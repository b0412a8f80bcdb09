#include "replay.hh"

#include <sstream>
#include <stdexcept>

#include "core/status.hh"
#include "desim/desim.hh"
#include "telemetry.hh"

namespace cchar::core {

namespace {

/** Source-side retry tallies shared by all replay processes. */
struct ReplayResilience
{
    std::uint64_t retransmits = 0;
    std::uint64_t deliveryFailures = 0;
};

desim::Task<void>
sourceProcess(mesh::MeshNetwork *net, std::vector<trace::TraceEvent> evs,
              bool blocking, obs::Counter msgCtr, obs::Histogram lagHist,
              const fault::RetryConfig *retry, ReplayResilience *res)
{
    // The pure trace clock: where this source would be if only its
    // recorded compute gaps were charged. The replay clock trails it
    // by the cumulative network drain time — the "replay lag".
    double traceClock = 0.0;
    for (const auto &ev : evs) {
        co_await net->sim().delay(ev.sinceLast);
        traceClock += ev.sinceLast;
        msgCtr.add(1);
        lagHist.record(net->sim().now() - traceClock);
        mesh::Packet pkt;
        pkt.src = ev.src;
        pkt.dst = ev.dst;
        pkt.bytes = ev.bytes;
        pkt.kind = ev.kind;
        if (!blocking) {
            net->post(std::move(pkt));
            continue;
        }
        if (!retry) {
            (void)co_await net->transfer(std::move(pkt));
            continue;
        }
        // Source-driven reliability: a blocking transfer reports its
        // own outcome, so a transport-level nack suffices — no acks.
        double backoff = retry->ackTimeoutUs;
        for (int attempt = 1;; ++attempt) {
            trace::MessageRecord rec = co_await net->transfer(pkt);
            if (rec.delivered && !rec.corrupted)
                break;
            if (!retry->unbounded() && attempt >= retry->maxAttempts) {
                ++res->deliveryFailures;
                std::ostringstream os;
                os << "replay: delivery failure " << ev.src << "->"
                   << ev.dst << " bytes=" << ev.bytes << " after "
                   << attempt << " attempts";
                reportDiagnostic(DiagSeverity::Error, os.str());
                break;
            }
            ++res->retransmits;
            co_await net->sim().delay(backoff);
            backoff *= retry->backoffFactor;
        }
    }
}

/** Drain every packet delivered to a node (replay has no consumers). */
desim::Task<void>
sinkProcess(mesh::MeshNetwork *net, int node)
{
    for (;;)
        (void)co_await net->rxQueue(node).receive();
}

} // namespace

DriveResult
TraceReplayer::replay(const trace::Trace &trace,
                      const mesh::MeshConfig &mesh,
                      const ReplayOptions &opts)
{
    if (trace.nprocs() > mesh.width * mesh.height)
        throw std::invalid_argument("replay: trace does not fit on "
                                    "the mesh");
    obs::Counter msgCtr;
    obs::Histogram lagHist;
    if (obs::MetricsRegistry *reg = obs::metrics()) {
        msgCtr = reg->counter("replay.messages");
        lagHist = reg->histogram("replay.lag_us");
    }

    mesh::MeshConfig meshCfg = mesh;
    if (opts.faults)
        meshCfg.faults = opts.faults;
    const fault::RetryConfig *retry = nullptr;
    if (opts.faults && opts.blocking)
        retry = &opts.faults->plan().retry();

    DriveResult result;
    ReplayResilience resilience;
    desim::Simulator sim;
    mesh::MeshNetwork net{sim, meshCfg, &result.log};
    desim::Watchdog watchdog{sim, opts.watchdog};
    if (opts.enableWatchdog) {
        // Progress = delivered messages plus resolved delivery
        // failures: a bounded retry budget burning down on a hostile
        // plan is progress toward the accounted delivery-failure
        // exit, not livelock. Retries that never resolve (a
        // permanently down link under an unbounded budget) advance
        // neither term and still trip the watchdog.
        watchdog.setProgressProbe([&net, &resilience] {
            return net.messageCount() + resilience.deliveryFailures;
        });
        watchdog.arm();
    }
    if (opts.sampler && opts.samplePeriodUs > 0.0)
        attachNetworkTelemetry(sim, net, *opts.sampler,
                               opts.samplePeriodUs);
    for (int node = 0; node < mesh.width * mesh.height; ++node)
        sim.spawn(sinkProcess(&net, node), "sink");
    for (int src = 0; src < trace.nprocs(); ++src) {
        auto evs = trace.eventsOfSource(src);
        if (!evs.empty()) {
            sim.spawn(sourceProcess(&net, std::move(evs), opts.blocking,
                                    msgCtr, lagHist, retry, &resilience),
                      "replay-src-" + std::to_string(src));
        }
    }
    sim.run();

    result.makespan = result.log.lastDeliverTime();
    result.latencyMean = net.latencyStats().mean();
    result.latencyMax = net.latencyStats().max();
    result.contentionMean = net.contentionStats().mean();
    result.avgChannelUtilization =
        net.averageChannelUtilization(sim.now());
    result.maxChannelUtilization = net.maxChannelUtilization(sim.now());
    result.retransmits = resilience.retransmits;
    result.deliveryFailures = resilience.deliveryFailures;
    if (opts.faults) {
        result.droppedPackets = opts.faults->drops();
        result.corruptedPackets = opts.faults->corrupts();
        result.linkDrops = opts.faults->linkDrops();
    }
    return result;
}

} // namespace cchar::core
