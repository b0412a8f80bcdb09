#include "pipeline.hh"

#include <functional>
#include <ostream>

#include "apps/registry.hh"
#include "desim/watchdog.hh"
#include "fault/injector.hh"
#include "status.hh"
#include "synthetic.hh"
#include "telemetry.hh"

namespace cchar::core {

namespace {

double
averageHops(const trace::TrafficLog &log)
{
    if (log.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &rec : log.records())
        sum += rec.hops;
    return sum / static_cast<double>(log.size());
}

/** Fill the report's Resilience section from the run's fault state. */
void
fillResilience(ResilienceSummary &rs, const fault::FaultInjector &injector,
               std::uint64_t retransmits, std::uint64_t deliveryFailures)
{
    rs.enabled = true;
    rs.planDescription = injector.plan().describe();
    rs.faultsPlanned = injector.plan().faults().size();
    rs.droppedPackets = injector.drops();
    rs.corruptedPackets = injector.corrupts();
    rs.linkDrops = injector.linkDrops();
    rs.routerStalls = injector.routerStalls();
    rs.retransmits = retransmits;
    rs.deliveryFailures = deliveryFailures;
    rs.plannedLinkDowntimeUs = injector.plan().plannedLinkDowntimeUs();
    rs.reroutedPackets = injector.reroutes();
    rs.rerouteExtraHops = injector.rerouteExtraHops();
}

/**
 * Arm `watchdog` by the rule of PipelineOptions::watchdog: under a
 * fault plan `delivered` is the progress probe; with only a cancel
 * flag the probe is the kernel's event count, which advances on every
 * tick, so only cancellation can trip it.
 */
void
armWatchdog(desim::Watchdog &watchdog, desim::Simulator &sim,
            const desim::WatchdogConfig &cfg, bool faulted,
            std::function<std::uint64_t()> delivered)
{
    if (faulted) {
        watchdog.setProgressProbe(std::move(delivered));
        watchdog.arm();
    } else if (cfg.cancelFlag != nullptr) {
        watchdog.setProgressProbe([&sim] { return sim.processedEvents(); });
        watchdog.arm();
    }
}

void
attachProgress(desim::Simulator &sim, std::ostream &os, double periodUs)
{
    sim.attachPeriodic(
        [&sim, &os](desim::SimTime t) {
            os << "[cchar] t=" << t << "us  events=" << sim.processedEvents()
               << "  calendar=" << sim.calendarSize() << "\n";
        },
        periodUs);
}

} // namespace

NetworkSummary
networkSummary(const DriveResult &drive)
{
    NetworkSummary net;
    net.latencyMean = drive.latencyMean;
    net.latencyMax = drive.latencyMax;
    net.contentionMean = drive.contentionMean;
    net.makespan = drive.makespan;
    net.avgChannelUtilization = drive.avgChannelUtilization;
    net.maxChannelUtilization = drive.maxChannelUtilization;
    return net;
}

NetworkSummary
networkSummary(const mesh::MeshNetwork &net, const trace::TrafficLog &log,
               desim::SimTime now)
{
    NetworkSummary s;
    s.latencyMean = net.latencyStats().mean();
    s.latencyMax = net.latencyStats().max();
    s.contentionMean = net.contentionStats().mean();
    s.makespan = log.lastDeliverTime();
    s.avgChannelUtilization = net.averageChannelUtilization(now);
    s.maxChannelUtilization = net.maxChannelUtilization(now);
    return s;
}

CharacterizationReport
CharacterizationPipeline::analyze(const trace::TrafficLog &log,
                                  const mesh::MeshConfig &mesh,
                                  const std::string &application,
                                  Strategy strategy,
                                  const NetworkSummary &network) const
{
    CharacterizationReport report;
    report.application = application;
    report.strategy = strategy;
    report.nprocs = log.nprocs();
    report.mesh = mesh;
    report.network = network;
    report.network.avgHops = averageHops(log);

    TemporalAnalyzer temporal{opts_.fitter};
    report.temporalAggregate = temporal.analyzeAggregate(log);
    if (opts_.perSource) {
        report.temporalPerSource =
            temporal.analyzeAllSources(log, opts_.minSamplesPerSource);
    }

    SpatialAnalyzer spatial{opts_.classifier};
    report.spatialPerSource = spatial.analyzeAllSources(log);
    report.spatialAggregate = spatial.analyzeAggregate(log);
    report.hopDistancePmf = SpatialAnalyzer::hopDistanceProfile(log, mesh);

    report.volume = VolumeAnalyzer{}.analyze(log);

    // Per-message-class breakdown and structured global pattern.
    for (trace::MessageKind kind :
         {trace::MessageKind::Data, trace::MessageKind::Control,
          trace::MessageKind::Sync}) {
        trace::TrafficLog sub = log.filterKind(kind);
        if (sub.empty())
            continue;
        CharacterizationReport::KindBreakdown kb;
        kb.kind = kind;
        kb.volume = VolumeAnalyzer{}.analyze(sub);
        kb.temporal = temporal.analyzeAggregate(sub);
        report.perKind.push_back(std::move(kb));
    }
    report.structured = StructuredPatternDetector{}.analyze(log);

    if (opts_.detectPhases) {
        PhaseAnalyzer phaser{opts_.phase, opts_.fitter,
                             opts_.classifier};
        report.phases = phaser.analyze(log);
    }
    return report;
}

CharacterizationReport
CharacterizationPipeline::characterize(const trace::TrafficLog &log,
                                       const mesh::MeshConfig &mesh,
                                       const std::string &application,
                                       Strategy strategy,
                                       const NetworkSummary &network,
                                       double end,
                                       obs::RankActivityTracker *activity) const
{
    CharacterizationReport report =
        analyze(log, mesh, application, strategy, network);
    if (activity) {
        report.rankActivity =
            RankActivityAnalyzer{}.analyze(*activity, report.phases);
    }
    if (obs::LinkStatsTracker *links = obs::linkStats()) {
        links->finish(end);
        report.linkStats = LinkWeatherAnalyzer{opts_.linkWeather}.analyze(
            *links, mesh, report.phases);
    }
    if (obs::MetricsRegistry *registry = obs::metrics()) {
        if (report.rankActivity.enabled)
            publishRankMetrics(*registry, report.rankActivity);
        if (report.linkStats.enabled)
            publishLinkMetrics(*registry, report.linkStats);
    }
    return report;
}

void
CharacterizationPipeline::replayModel(CharacterizationReport &report) const
{
    // The model describes the application run; its own traffic must
    // not feed the run's metrics or trackers.
    obs::ScopedObservability detach{nullptr};
    SyntheticModel model = SyntheticModel::fromReport(report);
    DriveResult synth =
        SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    report.synthFidelity = computeSynthFidelity(model, synth.log);
    double original = report.network.latencyMean;
    report.synthFidelity.latencyError =
        original != 0.0 ? (synth.latencyMean - original) / original : 0.0;
}

CharacterizationReport
CharacterizationPipeline::run(const std::string &name,
                              const mesh::MeshConfig &mesh,
                              trace::TrafficLog *log_out) const
{
    if (auto app = apps::makeSharedMemoryApp(name)) {
        ccnuma::MachineConfig cfg;
        cfg.mesh = mesh;
        return runDynamic(*app, cfg, log_out);
    }
    if (auto app = apps::makeMessagePassingApp(name)) {
        mp::MpConfig cfg;
        cfg.mesh = mesh;
        return runStatic(*app, cfg, nullptr, log_out);
    }
    throw CCharError(StatusCode::UsageError,
                     "unknown application '" + name + "'");
}

CharacterizationReport
CharacterizationPipeline::runDynamic(apps::SharedMemoryApp &app,
                                     const ccnuma::MachineConfig &cfg,
                                     trace::TrafficLog *log_out) const
{
    std::optional<fault::FaultInjector> injector;
    if (opts_.faultPlan)
        injector.emplace(*opts_.faultPlan);
    ccnuma::MachineConfig mcfg = cfg;
    if (injector)
        mcfg.mesh.faults = &*injector;

    desim::Simulator sim;
    ccnuma::Machine machine{sim, mcfg};
    desim::Watchdog watchdog{sim, opts_.watchdog};
    armWatchdog(watchdog, sim, opts_.watchdog, injector.has_value(),
                [&machine] { return machine.network().messageCount(); });
    if (opts_.sampler && opts_.samplePeriodUs > 0.0) {
        attachNetworkTelemetry(sim, machine.network(), *opts_.sampler,
                               opts_.samplePeriodUs);
    }
    if (opts_.progress)
        attachProgress(sim, *opts_.progress, opts_.samplePeriodUs * 10.0);
    apps::launch(machine, app);
    machine.run();
    if (opts_.sampler && opts_.samplePeriodUs > 0.0)
        opts_.sampler->flush(sim.now());

    obs::RankActivityTracker *activity = obs::rankActivity();
    if (activity)
        activity->finish(sim.now());
    CharacterizationReport report = characterize(
        machine.log(), mcfg.mesh, app.name(), Strategy::Dynamic,
        networkSummary(machine.network(), machine.log(), sim.now()),
        sim.now(), activity);
    report.verified = app.verify();
    if (opts_.synthesize)
        replayModel(report);
    if (injector)
        fillResilience(report.resilience, *injector, 0, 0);
    // The injector dies with the run.
    report.mesh.faults = nullptr;
    if (log_out)
        *log_out = machine.log();
    return report;
}

DriveResult
CharacterizationPipeline::replay(const trace::Trace &trace,
                                 const mesh::MeshConfig &mesh,
                                 fault::FaultInjector *faults) const
{
    ReplayOptions ropts;
    ropts.sampler = opts_.sampler;
    ropts.samplePeriodUs = opts_.samplePeriodUs;
    ropts.faults = faults;
    ropts.watchdog = opts_.watchdog;
    ropts.enableWatchdog =
        faults != nullptr || opts_.watchdog.cancelFlag != nullptr;
    // Without faults the delivered-message probe can stall on bursty
    // delivery, so a cancel-only watchdog never checks for stalls.
    if (faults == nullptr && opts_.watchdog.cancelFlag != nullptr)
        ropts.watchdog.stallChecks = 1 << 30;
    return TraceReplayer::replay(trace, mesh, ropts);
}

CharacterizationReport
CharacterizationPipeline::runStatic(apps::MessagePassingApp &app,
                                    const mp::MpConfig &cfg,
                                    trace::Trace *trace_out,
                                    trace::TrafficLog *log_out) const
{
    std::optional<fault::FaultInjector> injector;
    if (opts_.faultPlan)
        injector.emplace(*opts_.faultPlan);
    mp::MpConfig mcfg = cfg;
    if (injector)
        mcfg.mesh.faults = &*injector;

    // Phase 1: execute on the SP2-model runtime, collecting the
    // application-level trace.
    desim::Simulator sim;
    mp::MpWorld world{sim, mcfg};
    desim::Watchdog watchdog{sim, opts_.watchdog};
    // Delivered messages plus resolved delivery failures: a bounded
    // retry budget draining on a hostile plan (e.g. drop:1.0) is
    // progress toward the accounted failure exit, while an unbounded
    // no-delivery retry loop still trips the watchdog as livelock.
    armWatchdog(watchdog, sim, opts_.watchdog, injector.has_value(),
                [&world] {
                    return world.network().messageCount() +
                           world.deliveryFailures();
                });
    world.enableTracing();
    if (opts_.progress)
        attachProgress(sim, *opts_.progress, opts_.samplePeriodUs * 10.0);
    apps::launch(world, app);
    world.run();
    bool verified = app.verify();
    trace::Trace trace = world.collectedTrace();
    obs::RankActivityTracker *activity = obs::rankActivity();
    if (activity)
        activity->finish(sim.now());

    // Phase 2: intelligent replay into the 2-D mesh simulator. The
    // replay rebuilds the network, so the rank-activity tracker is
    // detached (the application run's comm spans are already
    // recorded) and the link-stats tracker restarts: the replay mesh
    // is the network the static-strategy report describes.
    obs::ScopedRankActivity detachActivity{nullptr};
    if (obs::LinkStatsTracker *links = obs::linkStats())
        links->reset();
    DriveResult replayed =
        replay(trace, mcfg.mesh, injector ? &*injector : nullptr);

    CharacterizationReport report =
        characterize(replayed.log, mcfg.mesh, app.name(), Strategy::Static,
                     networkSummary(replayed), replayed.makespan, activity);
    report.verified = verified;
    if (opts_.synthesize)
        replayModel(report);
    if (injector) {
        fillResilience(report.resilience, *injector,
                       world.retransmits() + replayed.retransmits,
                       world.deliveryFailures() + replayed.deliveryFailures);
        report.resilience.rankRetransmits = world.rankRetransmits();
        report.resilience.rankCorruptDiscards = world.rankCorruptDiscards();
    }
    report.mesh.faults = nullptr;
    if (trace_out)
        *trace_out = std::move(trace);
    if (log_out)
        *log_out = std::move(replayed.log);
    return report;
}

CharacterizationReport
CharacterizationPipeline::runReplay(const trace::Trace &trace,
                                    const mesh::MeshConfig &mesh,
                                    const std::string &application,
                                    trace::TrafficLog *log_out) const
{
    std::optional<fault::FaultInjector> injector;
    if (opts_.faultPlan)
        injector.emplace(*opts_.faultPlan);
    DriveResult replayed =
        replay(trace, mesh, injector ? &*injector : nullptr);
    CharacterizationReport report = characterizeDrive(replayed, mesh,
                                                      application);
    ResilienceSummary &rs = report.resilience;
    if (injector) {
        fillResilience(rs, *injector, replayed.retransmits,
                       replayed.deliveryFailures);
        rs.traceRecordsSkipped = trace.skippedRecords();
    } else if (trace.skippedRecords() > 0) {
        rs.enabled = true;
        rs.planDescription = "none (lenient ingest)";
        rs.traceRecordsSkipped = trace.skippedRecords();
    }
    if (log_out)
        *log_out = std::move(replayed.log);
    return report;
}

CharacterizationReport
CharacterizationPipeline::characterizeDrive(
    const DriveResult &drive, const mesh::MeshConfig &mesh,
    const std::string &application) const
{
    obs::RankActivityTracker *activity = obs::rankActivity();
    if (activity)
        activity->finish(drive.makespan);
    return characterize(drive.log, mesh, application, Strategy::Static,
                        networkSummary(drive), drive.makespan, activity);
}

} // namespace cchar::core
