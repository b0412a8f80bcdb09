/**
 * @file
 * Traced driver of the benchmark.
 *
 * Runs one cchar operation through the library's public calls, in the
 * order tools/cchar.cc makes them, and records a wall-clock span
 * around each layer call. The operation's output is written exactly
 * as the CLI writes it, so the benchmark can check that the traced
 * run produced the same bytes as the timed CLI run. Spans stay in
 * memory and are written as one JSON document when the op ends.
 *
 *   perfbench_driver characterize <app> --json-out F --report-out F
 *                    --spans F [--op-id N]
 *   perfbench_driver synth <MODEL.json> --scale-procs N --messages M
 *                    --seed S --json-out F --spans F [--op-id N]
 *   perfbench_driver sweep --spec F -j N --out F --csv F --spans F
 *                    [--op-id N]
 *   perfbench_driver sweep-jobs --spec F --spans F [--op-id N]
 *
 * `sweep-jobs` re-runs every job of the spec serially, once as
 * specified and, for jobs with observability sinks, once with the
 * sinks off, so per-job host time and sink cost can be read apart.
 *
 * Exit codes follow the CLI: 0 ok, 1 verification failure, 2 usage,
 * 3 input error, 4 any other error.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hh"
#include "core/core.hh"
#include "obs/obs.hh"
#include "sweep/engine.hh"

namespace {

using namespace cchar;
using Clock = std::chrono::steady_clock;

/** One timed interval around a layer call. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> counts;
};

/** In-memory span recorder; spans nest through a stack of open ones. */
class Spans
{
  public:
    explicit Spans(int opId) : opId_(opId), t0_(Clock::now()) {}

    int
    open(const std::string &name)
    {
        Span s;
        s.name = name;
        s.start = now();
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = now();
        stack_.pop_back();
    }

    void
    count(int id, const std::string &key, double value)
    {
        spans_[static_cast<std::size_t>(id)].counts.emplace_back(key,
                                                                 value);
    }

    void
    write(std::ostream &os) const
    {
        os << std::setprecision(17);
        os << "{\"op\":" << opId_ << ",\"spans\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? "," : "") << "{\"name\":\"" << s.name
               << "\",\"start\":" << s.start << ",\"end\":" << s.end
               << ",\"parent\":" << s.parent << ",\"counts\":{";
            for (std::size_t c = 0; c < s.counts.size(); ++c) {
                os << (c ? "," : "") << "\"" << s.counts[c].first
                   << "\":" << s.counts[c].second;
            }
            os << "}}";
        }
        os << "]}\n";
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    int opId_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Closes a span when the enclosing block ends. */
class Scope
{
  public:
    Scope(Spans &spans, const std::string &name)
        : spans_(spans), id_(spans.open(name))
    {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { spans_.close(id_); }

    void
    count(const std::string &key, double v)
    {
        spans_.count(id_, key, v);
    }

  private:
    Spans &spans_;
    int id_;
};

/** Peak resident set size of this process so far (VmHWM), in bytes. */
double
peakRssBytes()
{
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) * 1024.0;
    }
    return 0.0;
}

/** Registry counter deltas across one simulation call. */
class CounterDelta
{
  public:
    explicit CounterDelta(const obs::MetricsRegistry *reg) : reg_(reg)
    {
        events0_ = value("desim.events");
        messages0_ = value("mesh.messages");
    }

    void
    record(Scope &scope) const
    {
        scope.count("desim.events", value("desim.events") - events0_);
        scope.count("mesh.messages",
                    value("mesh.messages") - messages0_);
    }

  private:
    double
    value(const std::string &name) const
    {
        return reg_ ? static_cast<double>(reg_->counterValue(name)) : 0.0;
    }

    const obs::MetricsRegistry *reg_;
    double events0_ = 0.0;
    double messages0_ = 0.0;
};

/** Command-line flags of every op (unused ones stay empty). */
struct Args
{
    std::string op, target, jsonOut, reportOut, spansOut, spec, out, csv;
    int opId = 0;
    int scaleProcs = 0;
    std::uint64_t messages = 0;
    std::uint64_t seed = 42;
    int workers = 1;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw core::CCharError(core::StatusCode::UsageError, "no op");
    Args a;
    a.op = argv[1];
    int i = 2;
    if (a.op == "characterize" || a.op == "synth") {
        if (argc < 3)
            throw core::CCharError(core::StatusCode::UsageError,
                                   a.op + " needs a target");
        a.target = argv[i++];
    }
    for (; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw core::CCharError(core::StatusCode::UsageError,
                                   flag + " needs a value");
        std::string v = argv[++i];
        if (flag == "--json-out")
            a.jsonOut = v;
        else if (flag == "--report-out")
            a.reportOut = v;
        else if (flag == "--spans")
            a.spansOut = v;
        else if (flag == "--spec")
            a.spec = v;
        else if (flag == "--out")
            a.out = v;
        else if (flag == "--csv")
            a.csv = v;
        else if (flag == "--op-id")
            a.opId = std::atoi(v.c_str());
        else if (flag == "--scale-procs")
            a.scaleProcs = std::atoi(v.c_str());
        else if (flag == "--messages")
            a.messages = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "-j")
            a.workers = std::atoi(v.c_str());
        else
            throw core::CCharError(core::StatusCode::UsageError,
                                   "unknown option " + flag);
    }
    if (a.spansOut.empty())
        throw core::CCharError(core::StatusCode::UsageError,
                               "--spans is required");
    return a;
}

core::NetworkSummary
summaryOf(const core::DriveResult &r)
{
    core::NetworkSummary net;
    net.latencyMean = r.latencyMean;
    net.latencyMax = r.latencyMax;
    net.contentionMean = r.contentionMean;
    net.makespan = r.makespan;
    net.avgChannelUtilization = r.avgChannelUtilization;
    net.maxChannelUtilization = r.maxChannelUtilization;
    return net;
}

/**
 * CharacterizationPipeline::analyze, split at each analyzer so every
 * one gets its own span. The calls and their order match the
 * pipeline's, so the report is the same value.
 */
core::CharacterizationReport
analyzeTraced(Spans &spans, const core::PipelineOptions &popts,
              const trace::TrafficLog &log, const mesh::MeshConfig &mesh,
              const std::string &application, core::Strategy strategy,
              const core::NetworkSummary &network)
{
    Scope all{spans, "analysis"};
    double rss0 = peakRssBytes();
    core::CharacterizationReport report;
    report.application = application;
    report.strategy = strategy;
    report.nprocs = log.nprocs();
    report.mesh = mesh;
    report.network = network;
    double hops = 0.0;
    for (const auto &rec : log.records())
        hops += rec.hops;
    report.network.avgHops =
        log.empty() ? 0.0 : hops / static_cast<double>(log.size());

    core::TemporalAnalyzer temporal{popts.fitter};
    double fits = 0.0, samples = 0.0;
    auto tally = [&](const core::TemporalFit &f) {
        fits += 1.0;
        samples += static_cast<double>(f.stats.count);
    };
    {
        Scope s{spans, "analysis.temporal"};
        report.temporalAggregate = temporal.analyzeAggregate(log);
        tally(report.temporalAggregate);
        if (popts.perSource) {
            report.temporalPerSource = temporal.analyzeAllSources(
                log, popts.minSamplesPerSource);
            for (const auto &f : report.temporalPerSource)
                tally(f);
        }
    }
    {
        Scope s{spans, "analysis.spatial"};
        core::SpatialAnalyzer spatial{popts.classifier};
        report.spatialPerSource = spatial.analyzeAllSources(log);
        report.spatialAggregate = spatial.analyzeAggregate(log);
        report.hopDistancePmf =
            core::SpatialAnalyzer::hopDistanceProfile(log, mesh);
    }
    {
        Scope s{spans, "analysis.volume"};
        report.volume = core::VolumeAnalyzer{}.analyze(log);
    }
    for (trace::MessageKind kind :
         {trace::MessageKind::Data, trace::MessageKind::Control,
          trace::MessageKind::Sync}) {
        trace::TrafficLog sub;
        core::CharacterizationReport::KindBreakdown kb;
        {
            Scope s{spans, "analysis.volume"};
            sub = log.filterKind(kind);
            if (sub.empty())
                continue;
            kb.kind = kind;
            kb.volume = core::VolumeAnalyzer{}.analyze(sub);
        }
        {
            Scope s{spans, "analysis.temporal"};
            kb.temporal = temporal.analyzeAggregate(sub);
            tally(kb.temporal);
        }
        report.perKind.push_back(std::move(kb));
    }
    {
        Scope s{spans, "analysis.structured"};
        report.structured = core::StructuredPatternDetector{}.analyze(log);
    }
    if (popts.detectPhases) {
        Scope s{spans, "analysis.phases"};
        core::PhaseAnalyzer phaser{popts.phase, popts.fitter,
                                   popts.classifier};
        report.phases = phaser.analyze(log);
    }
    all.count("temporal_fits", fits);
    all.count("temporal_samples", samples);
    all.count("rss_growth_b", peakRssBytes() - rss0);
    return report;
}

/** Write `text` to `path` through the CLI's atomic writer. */
void
writeFile(const std::string &path, const std::string &text)
{
    core::AtomicFileWriter writer{path, "perfbench"};
    writer.stream() << text;
    writer.commit();
}

/** `cchar characterize <app> --json --report-out F`. */
int
runCharacterize(const Args &a, Spans &spans)
{
    Scope op{spans, "cli"};
    // The CLI's ObsSession for --report-out: registry, flows and the
    // windowed sampler; no tracer, rank-activity or link-stats sink.
    obs::MetricsRegistry registry;
    obs::WindowedSampler sampler;
    obs::FlowTracker flows;
    obs::ScopedObservability scope{&registry, nullptr, &flows};
    const double samplePeriodUs = 50.0;

    core::PipelineOptions popts;
    popts.detectPhases = true;
    core::CharacterizationReport report;
    trace::TrafficLog logCopy;
    mesh::MeshConfig meshCfg;
    meshCfg.width = 4;
    meshCfg.height = 4;

    if (auto app = apps::makeSharedMemoryApp(a.target)) {
        ccnuma::MachineConfig cfg;
        cfg.mesh = meshCfg;
        desim::Simulator sim;
        core::NetworkSummary net;
        std::optional<ccnuma::Machine> machine;
        std::optional<desim::Watchdog> watchdog;
        {
            Scope s{spans, "ccnuma"};
            CounterDelta delta{&registry};
            machine.emplace(sim, cfg);
            watchdog.emplace(sim, desim::WatchdogConfig{});
            core::attachNetworkTelemetry(sim, machine->network(),
                                         sampler, samplePeriodUs);
            apps::launch(*machine, *app);
            machine->run();
            delta.record(s);
            s.count("messages",
                    static_cast<double>(machine->log().size()));
        }
        net.latencyMean = machine->network().latencyStats().mean();
        net.latencyMax = machine->network().latencyStats().max();
        net.contentionMean = machine->network().contentionStats().mean();
        net.makespan = machine->log().lastDeliverTime();
        net.avgChannelUtilization =
            machine->network().averageChannelUtilization(sim.now());
        net.maxChannelUtilization =
            machine->network().maxChannelUtilization(sim.now());
        report = analyzeTraced(spans, popts, machine->log(), cfg.mesh,
                               a.target, core::Strategy::Dynamic, net);
        report.verified = app->verify();
        // The CLI keeps a copy of the log for --windows.
        logCopy = machine->log();
    } else if (auto mpApp = apps::makeMessagePassingApp(a.target)) {
        mp::MpConfig cfg;
        cfg.mesh = meshCfg;
        desim::Simulator sim;
        bool verified = false;
        trace::Trace collected;
        std::optional<mp::MpWorld> world;
        std::optional<desim::Watchdog> watchdog;
        {
            Scope s{spans, "mp"};
            CounterDelta delta{&registry};
            world.emplace(sim, cfg);
            watchdog.emplace(sim, desim::WatchdogConfig{});
            world->enableTracing();
            apps::launch(*world, *mpApp);
            world->run();
            verified = mpApp->verify();
            collected = world->collectedTrace();
            delta.record(s);
            s.count("trace_records",
                    static_cast<double>(collected.size()));
        }
        obs::ScopedRankActivity detachActivity{nullptr};
        core::ReplayOptions ropts;
        ropts.sampler = &sampler;
        ropts.samplePeriodUs = samplePeriodUs;
        core::DriveResult replayed;
        {
            Scope s{spans, "replay"};
            CounterDelta delta{&registry};
            replayed =
                core::TraceReplayer::replay(collected, cfg.mesh, ropts);
            delta.record(s);
            s.count("messages", static_cast<double>(replayed.log.size()));
        }
        report = analyzeTraced(spans, popts, replayed.log, cfg.mesh,
                               a.target, core::Strategy::Static,
                               summaryOf(replayed));
        report.verified = verified;
        logCopy = replayed.log;
    } else {
        std::cerr << "unknown application: " << a.target << "\n";
        return 2;
    }

    obs::publishSinkStats(registry, nullptr, &flows);
    core::HtmlReportInputs html;
    html.report = &report;
    html.registry = &registry;
    html.sampler = &sampler;
    html.flows = &flows;
    {
        Scope s{spans, "report.html"};
        std::ostringstream os;
        core::writeHtmlReport(os, html);
        writeFile(a.reportOut, os.str());
        s.count("bytes", static_cast<double>(os.str().size()));
    }
    {
        Scope s{spans, "report.json"};
        std::ostringstream os;
        report.writeJson(os);
        writeFile(a.jsonOut, os.str());
        s.count("bytes", static_cast<double>(os.str().size()));
    }
    return report.verified ? 0 : 1;
}

/** `cchar synth <model> --scale-procs N --messages M --seed S --json`. */
int
runSynth(const Args &a, Spans &spans)
{
    Scope op{spans, "cli"};
    core::SynthRunOptions ropts;
    ropts.seed = a.seed;
    core::SyntheticModel model;
    {
        Scope s{spans, "synth.load"};
        model = core::SyntheticModel::fromJsonFile(a.target);
    }
    const int origProcs = model.nprocs;
    const int origNodes = model.mesh.nodes();
    const std::size_t origTotal = model.totalMessages();
    if (a.scaleProcs > 0 || a.messages > 0) {
        Scope s{spans, "synth.scale"};
        model = model.scaleTo(a.scaleProcs, a.messages);
    }

    core::DriveResult result;
    {
        Scope s{spans, "synth.generate"};
        double rss0 = peakRssBytes();
        // A registry only around the simulation, to count its events;
        // the report does not read it.
        obs::MetricsRegistry registry;
        obs::ScopedObservability scope{&registry};
        CounterDelta delta{&registry};
        result = core::SyntheticTrafficGenerator::run(model, ropts);
        delta.record(s);
        s.count("messages", static_cast<double>(result.log.size()));
        s.count("rss_growth_b", peakRssBytes() - rss0);
    }

    core::PipelineOptions popts;
    std::string label = model.application.empty()
                            ? a.target
                            : model.application + " (synthetic)";
    core::CharacterizationReport report =
        analyzeTraced(spans, popts, result.log, model.mesh, label,
                      core::Strategy::Static, summaryOf(result));
    report.verified = true;
    {
        Scope s{spans, "synth.fidelity"};
        report.synthFidelity =
            core::computeSynthFidelity(model, result.log);
    }
    report.synthFidelity.modelSource = a.target;
    report.synthFidelity.modelProcs = origProcs;
    report.synthFidelity.scaleTiles = model.mesh.nodes() / origNodes;
    report.synthFidelity.messageScale =
        origTotal > 0 ? static_cast<double>(model.totalMessages()) /
                            static_cast<double>(origTotal)
                      : 1.0;
    report.synthFidelity.seed = ropts.seed;
    {
        Scope s{spans, "report.json"};
        std::ostringstream os;
        report.writeJson(os);
        writeFile(a.jsonOut, os.str());
        s.count("bytes", static_cast<double>(os.str().size()));
    }
    return 0;
}

/** `cchar sweep --spec F -j N --out F --csv F`. */
int
runSweep(const Args &a, Spans &spans)
{
    Scope op{spans, "cli"};
    sweep::SweepRunOptions ropts;
    ropts.workers = a.workers;
    // The CLI always hands the engine its signal counter, which arms a
    // cancellable watchdog in every job; that watchdog's ticks end up
    // in the reported utilizations, so it is armed here too.
    std::atomic<int> shutdown{0};
    ropts.shutdown = &shutdown;
    sweep::SweepResult result;
    std::size_t unverified = 0;
    {
        Scope s{spans, "sweep"};
        sweep::SweepEngine engine{sweep::SweepSpec::fromJsonFile(a.spec)};
        result = engine.run(ropts);
        double busy = 0.0;
        for (const auto &ws : result.workerStats)
            busy += ws.busyFraction;
        s.count("busy_frac_sum", busy);
        s.count("workers", static_cast<double>(result.workerStats.size()));
        double rerouted = 0.0, retransmits = 0.0;
        for (const auto &o : result.outcomes) {
            rerouted += static_cast<double>(o.reroutedPackets);
            retransmits += static_cast<double>(o.retransmits);
            unverified += (o.ok() && !o.verified) ? 1 : 0;
        }
        s.count("rerouted_packets", rerouted);
        s.count("retransmits", retransmits);
    }
    {
        Scope s{spans, "sweep.merge"};
        std::ostringstream json, csv;
        result.writeJson(json);
        result.writeCsv(csv);
        writeFile(a.out, json.str());
        writeFile(a.csv, csv.str());
    }
    return (result.failures() || unverified) ? 1 : 0;
}

/** Serial re-run of every job: as specified, then with sinks off. */
int
runSweepJobs(const Args &a, Spans &spans)
{
    std::vector<sweep::SweepJob> jobs =
        sweep::SweepSpec::fromJsonFile(a.spec).expand();
    // A cancel flag, as the engine passes one under the CLI (see
    // runSweep), so each job runs with the same watchdog.
    const std::atomic<bool> cancel{false};
    int failed = 0;
    for (const sweep::SweepJob &job : jobs) {
        {
            Scope s{spans, "sweep.job"};
            obs::MetricsRegistry registry;
            CounterDelta delta{&registry};
            sweep::JobOutcome o =
                sweep::SweepEngine::runJob(job, registry, &cancel);
            delta.record(s);
            s.count("index", static_cast<double>(job.index));
            s.count("faulted", job.faultPlan.empty() ? 0.0 : 1.0);
            failed += o.ok() ? 0 : 1;
        }
        if (job.linkStats || job.rankActivity) {
            sweep::SweepJob bare = job;
            bare.linkStats = false;
            bare.rankActivity = false;
            Scope s{spans, "obs.job_nosinks"};
            obs::MetricsRegistry registry;
            sweep::JobOutcome o =
                sweep::SweepEngine::runJob(bare, registry, &cancel);
            s.count("index", static_cast<double>(job.index));
            failed += o.ok() ? 0 : 1;
        }
    }
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args a = parseArgs(argc, argv);
        Spans spans{a.opId};
        int rc = 2;
        if (a.op == "characterize") {
            // As in the CLI, recoverable problems of characterize land
            // in a diagnostic sink that is dumped to stderr on exit.
            core::DiagnosticSink sink;
            core::ScopedDiagnostics diagGuard{&sink};
            rc = runCharacterize(a, spans);
            if (!sink.empty())
                sink.writeText(std::cerr);
        } else if (a.op == "synth")
            rc = runSynth(a, spans);
        else if (a.op == "sweep")
            rc = runSweep(a, spans);
        else if (a.op == "sweep-jobs")
            rc = runSweepJobs(a, spans);
        else
            throw core::CCharError(core::StatusCode::UsageError,
                                   "unknown op " + a.op);
        std::ostringstream os;
        spans.write(os);
        writeFile(a.spansOut, os.str());
        return rc;
    } catch (const core::CCharError &err) {
        std::cerr << "perfbench_driver: " << err.what() << "\n";
        return core::exitCodeOf(err.status().code());
    } catch (const std::exception &err) {
        std::cerr << "perfbench_driver: " << err.what() << "\n";
        return 4;
    }
}
