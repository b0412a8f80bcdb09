/**
 * @file
 * cchar — command-line driver for the characterization tool chain.
 *
 * Subcommands:
 *   list                             show available applications
 *   characterize <app> [options]     run + print the full report
 *   report <app> [options]           run + write the HTML run report
 *                                    to --out FILE (default stdout)
 *   trace <mp-app> --out FILE        collect an SP2-style trace
 *   replay <FILE> [options]          replay a trace into a mesh
 *   synth <MODEL.json> [options]     drive the mesh with synthetic
 *                                    traffic drawn from a saved
 *                                    characterization (the --json
 *                                    output of `characterize`),
 *                                    re-characterize it and report
 *                                    per-attribute model fidelity
 *   sweep <SPEC|@FILE> [options]     run a job matrix on a worker
 *                                    pool, merge deterministically
 *
 * Common options:
 *   --width W --height H             network dimensions
 *   --torus                          torus topology (2 VCs)
 *   --vcs N                          virtual channels
 *   --windows N                      print a windowed phase profile
 *   --phases                         detect execution phases and
 *                                    characterize each one
 *   --json                           print the report as JSON
 *   --out FILE                       write the report (characterize,
 *                                    replay, synth) or the HTML
 *                                    (report) to FILE
 *
 * Observability options:
 *   --trace-out FILE                 write a Chrome trace-event JSON
 *                                    with message flow arrows (load
 *                                    in Perfetto / about:tracing)
 *   --metrics-out FILE               write the metrics registry,
 *                                    windowed telemetry and message
 *                                    lifecycle records as JSON
 *   --report-out FILE                write the self-contained HTML
 *                                    run report (implies --phases)
 *   --sample-period US               telemetry sampling period in
 *                                    simulated microseconds (default 50)
 *   --rank-activity                  record per-rank activity
 *                                    timelines and report skew /
 *                                    idle-fraction / idle-wave
 *                                    desynchronization analytics
 *                                    (off by default; default
 *                                    outputs are unchanged)
 *   --link-stats                     record per-link utilization and
 *                                    queue occupancy and report the
 *                                    network-weather analysis
 *                                    (hotspots, Gini, congestion
 *                                    onset; off by default, default
 *                                    outputs are unchanged)
 *   --top-links N                    ranked links/routers kept in the
 *                                    network-weather output (16)
 *   --progress                       periodic progress line on stderr
 *                                    (sweep: live done/total + ETA
 *                                    and per-worker stats)
 *
 * Resilience options:
 *   --fault-plan SPEC|@FILE          run under a fault plan (clauses
 *                                    like "link:3->4:down@[10ms,25ms];
 *                                    drop:p=0.001", or @file with the
 *                                    textual or JSON plan form)
 *   --seed N                         fault-decision RNG seed override
 *   --trace-errors strict|skip       malformed trace records abort
 *                                    (strict, default) or are skipped
 *                                    with a diagnostic (skip)
 *   --strict / --lenient             aliases for --trace-errors
 *   --watchdog-period US             no-progress check period (5000)
 *   --watchdog-stalls N              checks without progress before
 *                                    the watchdog trips (8)
 *   --max-sim-time US                hard sim-time horizon (0 = none)
 *
 * Exit codes:
 *   0  success
 *   1  analysis or application-verification failure
 *   2  usage error (bad command line)
 *   3  input error (malformed trace or fault plan, missing file)
 *   4  simulation error (deadlock, delivery failure wedge...)
 *   5  no-progress watchdog tripped
 *   6  a sweep job exceeded its --job-timeout deadline (after
 *      exhausting --job-retries) and was quarantined
 *   7  interrupted by SIGINT/SIGTERM; a journaled sweep can be
 *      continued with --resume
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "obs/obs.hh"

#include "apps/registry.hh"
#include "core/core.hh"
#include "sweep/chaos.hh"
#include "sweep/engine.hh"

namespace {

using namespace cchar;

struct Options
{
    int width = 4;
    int height = 4;
    bool torus = false;
    int vcs = 1;
    int windows = 0;
    bool phases = false;
    bool json = false;
    std::string out;
    std::string traceOut;
    std::string metricsOut;
    std::string reportOut;
    double samplePeriodUs = 50.0;
    bool progress = false;
    /** Track per-rank activity and run the desync analysis. */
    bool rankActivity = false;
    /** Track per-link stats and run the network-weather analysis. */
    bool linkStats = false;
    /** Ranked links/routers kept in link-weather output. */
    int topLinks = 16;
    /** `cchar report` invocation: render HTML instead of text/JSON. */
    bool reportMode = false;

    /** --fault-plan SPEC or @FILE ("" = fault-free). */
    std::string faultPlan;
    /** --no-reroute: disable fault-aware adaptive routing. */
    bool reroute = true;
    std::uint64_t seed = 0;
    bool seedSet = false;
    trace::ErrorMode traceErrors = trace::ErrorMode::Strict;
    desim::WatchdogConfig watchdog{};

    bool faulted() const { return !faultPlan.empty(); }

    /** Any observability output requested at all. */
    bool
    wantsObs() const
    {
        return !traceOut.empty() || !metricsOut.empty() ||
               !reportOut.empty() || reportMode;
    }
};

mesh::MeshConfig
meshOf(const Options &opts)
{
    mesh::MeshConfig cfg;
    cfg.width = opts.width;
    cfg.height = opts.height;
    if (opts.torus) {
        cfg.topology = mesh::Topology::Torus;
        cfg.virtualChannels = std::max(opts.vcs, 2);
    } else {
        cfg.virtualChannels = opts.vcs;
    }
    cfg.adaptiveRouting = opts.reroute;
    return cfg;
}

/**
 * Build the fault plan of --fault-plan (inline spec or @file), with
 * the --seed override applied.
 * @throws core::CCharError IoError on a missing @file, ParseError on
 *         a malformed plan.
 */
fault::FaultPlan
loadFaultPlan(const Options &opts)
{
    std::string text = opts.faultPlan;
    if (!text.empty() && text[0] == '@') {
        std::ifstream f{text.substr(1)};
        if (!f) {
            throw core::CCharError(core::StatusCode::IoError,
                                   "fault plan: cannot open " +
                                       text.substr(1));
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        text = ss.str();
    }
    fault::FaultPlan plan = fault::FaultPlan::parse(text);
    if (opts.seedSet)
        plan.setSeed(opts.seed);
    return plan;
}

/**
 * Observability sinks for one tool invocation. Installs the process-
 * wide metrics registry / tracer before any simulator is built (so
 * components resolve their handles) and writes the requested output
 * files on finish().
 */
class ObsSession
{
  public:
    explicit ObsSession(const Options &opts)
        : opts_(opts),
          scope_(opts.wantsObs() ? &registry_ : nullptr,
                 opts.traceOut.empty() ? nullptr : &tracer_,
                 opts.wantsObs() ? &flows_ : nullptr,
                 opts.rankActivity ? &activity_ : nullptr,
                 opts.linkStats ? &linkStats_ : nullptr)
    {}

    /**
     * The run's characterization knobs, with this session's sampler.
     * Loads the fault plan, so call it once the sinks are installed.
     */
    core::PipelineOptions
    pipelineOptions()
    {
        core::PipelineOptions popts;
        popts.detectPhases =
            opts_.phases || opts_.reportMode || !opts_.reportOut.empty();
        popts.sampler = sampler();
        popts.samplePeriodUs = opts_.samplePeriodUs;
        if (opts_.faulted())
            popts.faultPlan = loadFaultPlan(opts_);
        popts.watchdog = opts_.watchdog;
        popts.progress = opts_.progress ? &std::cerr : nullptr;
        popts.linkWeather.topLinks = opts_.topLinks;
        return popts;
    }

    /**
     * Write the --trace-out / --metrics-out files; returns the inputs
     * of the HTML report of `report`.
     */
    core::HtmlReportInputs
    finish(const core::CharacterizationReport &report)
    {
        if (opts_.wantsObs()) {
            obs::publishSinkStats(
                registry_,
                opts_.traceOut.empty() ? nullptr : &tracer_, &flows_);
        }
        if (!opts_.traceOut.empty()) {
            core::AtomicFileWriter writer{opts_.traceOut};
            tracer_.writeChromeJson(writer.stream());
            writer.commit();
            std::cerr << "wrote trace (" << tracer_.size()
                      << " records, " << tracer_.dropped()
                      << " dropped) to " << opts_.traceOut << "\n";
            if (tracer_.dropped() > 0) {
                std::cerr << "warning: trace ring buffer overwrote "
                          << tracer_.dropped()
                          << " records; the exported trace is "
                             "truncated at the front\n";
            }
        }
        if (!opts_.metricsOut.empty()) {
            core::AtomicFileWriter writer{opts_.metricsOut};
            core::writeMetricsJson(writer.stream(), &registry_,
                                   &sampler_, &flows_);
            writer.commit();
            std::cerr << "wrote metrics to " << opts_.metricsOut
                      << "\n";
        }
        core::HtmlReportInputs html;
        html.report = &report;
        html.registry = opts_.wantsObs() ? &registry_ : nullptr;
        html.sampler = sampler();
        html.flows = opts_.wantsObs() ? &flows_ : nullptr;
        return html;
    }

  private:
    /** The telemetry sampler, or nullptr when no output shows it. */
    obs::WindowedSampler *
    sampler()
    {
        return !opts_.metricsOut.empty() || !opts_.reportOut.empty() ||
                       opts_.reportMode
                   ? &sampler_
                   : nullptr;
    }

    const Options &opts_;
    obs::MetricsRegistry registry_;
    obs::Tracer tracer_;
    obs::WindowedSampler sampler_;
    obs::FlowTracker flows_;
    obs::RankActivityTracker activity_;
    obs::LinkStatsTracker linkStats_;
    obs::ScopedObservability scope_;
};

int
usage()
{
    std::cerr
        << "usage:\n"
           "  cchar list\n"
           "  cchar characterize <app> [--width W] [--height H]\n"
           "                     [--torus] [--vcs N] [--windows N]\n"
           "                     [--phases] [--json] [--out FILE]\n"
           "                     [--trace-out FILE] [--metrics-out FILE]\n"
           "                     [--report-out FILE] [--rank-activity]\n"
           "                     [--link-stats] [--top-links N]\n"
           "                     [--sample-period US] [--progress]\n"
           "                     [--fault-plan SPEC|@FILE] [--seed N]\n"
           "                     [--no-reroute]\n"
           "                     [--watchdog-period US]\n"
           "                     [--watchdog-stalls N]\n"
           "                     [--max-sim-time US]\n"
           "  cchar report <app> [--out FILE] [characterize options]\n"
           "  cchar trace <mp-app> --out FILE [--width W] [--height H]\n"
           "  cchar replay <FILE> [--width W] [--height H] [--torus]\n"
           "                      [--phases] [--json] [--out FILE]\n"
           "                      [--report-out FILE]\n"
           "                      [--trace-out FILE] [--metrics-out FILE]\n"
           "                      [--link-stats] [--top-links N]\n"
           "                      [--fault-plan SPEC|@FILE] [--seed N]\n"
           "                      [--no-reroute]\n"
           "                      [--trace-errors strict|skip]\n"
           "  cchar synth <MODEL.json> [--scale-procs N] [--messages M]\n"
           "              [--seed N] [--time-scale X]\n"
           "              [--max-outstanding N] [--use-phases]\n"
           "              [--phases] [--json] [--out FILE]\n"
           "              [--report-out FILE] [--metrics-out FILE]\n"
           "              [--rank-activity] [--link-stats]\n"
           "              [--top-links N]\n"
           "  cchar sweep [--spec FILE] [--apps LIST] [--procs LIST]\n"
           "              [--loads LIST] [--seeds LIST|A..B]\n"
           "              [--fault-plan SPEC]... [--torus] [--vcs N]\n"
           "              [--rank-activity] [--link-stats] [--synthetic]\n"
           "              [--progress]\n"
           "              [-j N] [--out FILE] [--csv FILE]\n"
           "              [--journal FILE] [--resume FILE]\n"
           "              [--job-timeout SEC] [--job-retries N]\n"
           "              [--retry-backoff-ms MS]\n"
           "  cchar chaos [--seed N] [--plans N] [--apps LIST]\n"
           "              [--procs N] [--max-faults N] [--horizon US]\n"
           "              [--shrink-budget N] [--torus] [--vcs N]\n"
           "              [--json] [--out FILE] [-j N] [--progress]\n"
           "exit codes: 0 ok, 1 verification/analysis failure, 2 usage,\n"
           "            3 input error, 4 simulation error, 5 watchdog,\n"
           "            6 job deadline exceeded, 7 interrupted (resume\n"
           "              with --resume JOURNAL)\n";
    return 2;
}

bool
parseOptions(int argc, char **argv, int first, Options &opts)
{
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        // Store the flag's value (int, double or string) in `slot`.
        auto next = [&](auto &slot) {
            if (i + 1 >= argc)
                return false;
            const char *v = argv[++i];
            using T = std::remove_reference_t<decltype(slot)>;
            if constexpr (std::is_same_v<T, int>)
                slot = std::atoi(v);
            else if constexpr (std::is_same_v<T, double>)
                slot = std::atof(v);
            else
                slot = v;
            return true;
        };
        std::string value;
        if (arg == "--width") {
            if (!next(opts.width))
                return false;
        } else if (arg == "--height") {
            if (!next(opts.height))
                return false;
        } else if (arg == "--vcs") {
            if (!next(opts.vcs))
                return false;
        } else if (arg == "--windows") {
            if (!next(opts.windows))
                return false;
        } else if (arg == "--torus") {
            opts.torus = true;
        } else if (arg == "--phases") {
            opts.phases = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--out") {
            if (!next(opts.out))
                return false;
        } else if (arg == "--trace-out") {
            if (!next(opts.traceOut))
                return false;
        } else if (arg == "--metrics-out") {
            if (!next(opts.metricsOut))
                return false;
        } else if (arg == "--report-out") {
            if (!next(opts.reportOut))
                return false;
        } else if (arg == "--sample-period") {
            if (!next(opts.samplePeriodUs) || opts.samplePeriodUs <= 0.0)
                return false;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--rank-activity") {
            opts.rankActivity = true;
        } else if (arg == "--link-stats") {
            opts.linkStats = true;
        } else if (arg == "--top-links") {
            if (!next(opts.topLinks) || opts.topLinks < 1)
                return false;
        } else if (arg == "--fault-plan") {
            if (!next(opts.faultPlan) || opts.faultPlan.empty())
                return false;
        } else if (arg == "--no-reroute") {
            opts.reroute = false;
        } else if (arg == "--seed") {
            if (!next(value))
                return false;
            char *end = nullptr;
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                return false;
            opts.seedSet = true;
        } else if (arg == "--trace-errors") {
            if (!next(value))
                return false;
            if (value == "strict")
                opts.traceErrors = trace::ErrorMode::Strict;
            else if (value == "skip")
                opts.traceErrors = trace::ErrorMode::Lenient;
            else
                return false;
        } else if (arg == "--strict") {
            opts.traceErrors = trace::ErrorMode::Strict;
        } else if (arg == "--lenient") {
            opts.traceErrors = trace::ErrorMode::Lenient;
        } else if (arg == "--watchdog-period") {
            if (!next(opts.watchdog.checkPeriodUs) ||
                opts.watchdog.checkPeriodUs <= 0.0)
                return false;
        } else if (arg == "--watchdog-stalls") {
            if (!next(opts.watchdog.stallChecks) ||
                opts.watchdog.stallChecks < 1)
                return false;
        } else if (arg == "--max-sim-time") {
            if (!next(opts.watchdog.maxSimTimeUs) ||
                opts.watchdog.maxSimTimeUs < 0.0)
                return false;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return false;
        }
    }
    return true;
}

void
printWindows(std::ostream &os, const trace::TrafficLog &log, int windows)
{
    core::TemporalAnalyzer analyzer;
    auto fits = analyzer.analyzeWindows(log, windows);
    auto bw = core::BandwidthAnalyzer::profile(log, windows);
    os << "\n-- Phase profile (" << windows << " windows) --\n";
    os << "  win   rate(/us)      CV   bytes/us  family\n";
    for (std::size_t w = 0; w < fits.size(); ++w) {
        double rate = fits[w].stats.mean > 0.0
                          ? 1.0 / fits[w].stats.mean
                          : 0.0;
        os << "  " << w << "    " << rate << "  " << fits[w].stats.cv
           << "  " << (w < bw.size() ? bw[w] : 0.0) << "  "
           << (fits[w].fit.dist ? fits[w].fit.dist->name()
                                : std::string{"(sparse)"})
           << "\n";
    }
}

/**
 * The output step of characterize, report, replay and synth: the
 * --trace-out / --metrics-out files, the --report-out HTML, then the
 * report itself — HTML for `report`, else JSON or text followed by the
 * --windows profile of `log` — written to `out`, or to stdout when
 * `out` is empty.
 * @return the exit code: 1 when the application failed verification.
 */
int
writeOutputs(const core::CharacterizationReport &report,
             ObsSession &obsSession, const Options &opts,
             const std::string &out, const trace::TrafficLog &log)
{
    core::HtmlReportInputs html = obsSession.finish(report);
    auto writeTo = [](const std::string &path, const auto &render) {
        if (path.empty()) {
            render(std::cout);
            return;
        }
        core::AtomicFileWriter writer{path};
        render(writer.stream());
        writer.commit();
    };
    auto renderHtml = [&html](std::ostream &os) {
        core::writeHtmlReport(os, html);
    };
    if (!opts.reportOut.empty()) {
        writeTo(opts.reportOut, renderHtml);
        std::cerr << "wrote HTML report to " << opts.reportOut << "\n";
    }
    if (opts.reportMode) {
        if (opts.reportOut.empty()) {
            writeTo(out, renderHtml);
            if (!out.empty())
                std::cerr << "wrote HTML report to " << out << "\n";
        }
        return report.verified ? 0 : 1;
    }

    writeTo(out, [&](std::ostream &os) {
        if (opts.json)
            report.writeJson(os);
        else
            report.print(os);
        // The text phase profile would trail the JSON document and
        // break `cchar ... --json | python3 -m json.tool` style
        // consumers, so it is text-mode only.
        if (report.verified && opts.windows > 0 && !opts.json)
            printWindows(os, log, opts.windows);
    });
    if (!report.verified) {
        std::cerr << "WARNING: application verification FAILED\n";
        return 1;
    }
    return 0;
}

/** Shared run-and-analyze step of `characterize` and `report`. */
int
cmdCharacterize(const std::string &name, const Options &opts)
{
    ObsSession obsSession{opts};
    core::CharacterizationPipeline pipeline{obsSession.pipelineOptions()};
    trace::TrafficLog log;
    core::CharacterizationReport report = pipeline.run(
        name, meshOf(opts), opts.windows > 0 ? &log : nullptr);
    return writeOutputs(report, obsSession, opts, opts.out, log);
}

int
cmdTrace(const std::string &name, const Options &opts)
{
    auto app = apps::makeMessagePassingApp(name);
    if (!app) {
        std::cerr << "unknown message-passing application: " << name
                  << "\n";
        return usage();
    }
    if (opts.out.empty()) {
        std::cerr << "trace requires --out FILE\n";
        return usage();
    }
    desim::Simulator sim;
    mp::MpConfig cfg;
    cfg.mesh = meshOf(opts);
    mp::MpWorld world{sim, cfg};
    world.enableTracing();
    apps::launch(world, *app);
    world.run();
    world.collectedTrace().saveFile(opts.out);
    std::cout << "wrote " << world.collectedTrace().size()
              << " events to " << opts.out
              << " (verified: " << (app->verify() ? "yes" : "NO")
              << ")\n";
    return app->verify() ? 0 : 1;
}

int
cmdReplay(const std::string &path, const Options &opts)
{
    trace::TraceLoadOptions lopts;
    lopts.errors = opts.traceErrors;
    trace::Trace t = trace::Trace::loadFile(path, lopts);
    if (t.skippedRecords() > 0) {
        std::cerr << "warning: skipped " << t.skippedRecords()
                  << " malformed trace record"
                  << (t.skippedRecords() == 1 ? "" : "s") << "\n";
    }
    ObsSession obsSession{opts};
    core::CharacterizationPipeline pipeline{obsSession.pipelineOptions()};
    trace::TrafficLog log;
    core::CharacterizationReport report = pipeline.runReplay(
        t, meshOf(opts), path, opts.windows > 0 ? &log : nullptr);
    report.verified = true; // a replay has no application invariant
    if (!opts.json) {
        const core::NetworkSummary &net = report.network;
        std::cout << "replayed " << report.volume.messageCount
                  << " messages: latency mean " << net.latencyMean
                  << "us, contention mean " << net.contentionMean
                  << "us, makespan " << net.makespan << "us\n";
        if (opts.faulted()) {
            const core::ResilienceSummary &rs = report.resilience;
            std::cout << "resilience: " << rs.linkDrops
                      << " link drops, " << rs.droppedPackets
                      << " drops, " << rs.corruptedPackets
                      << " corrupted, " << rs.retransmits
                      << " retransmits, " << rs.deliveryFailures
                      << " delivery failures\n";
        }
    }
    return writeOutputs(report, obsSession, opts, opts.out, log);
}

/**
 * Command line of a subcommand that parses its own flags (synth,
 * sweep, chaos). Usage errors throw CCharError(UsageError) prefixed
 * with the subcommand name.
 */
struct SubcommandArgs
{
    int argc;
    char **argv;
    std::string cmd;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw core::CCharError(core::StatusCode::UsageError,
                               cmd + ": " + what);
    }

    /** The value of the flag at argv[i]; advances i past it. */
    std::string
    value(int &i) const
    {
        if (i + 1 >= argc)
            fail(std::string{argv[i]} + " needs a value");
        return argv[++i];
    }

    /** True for the worker-count flag: -j N, --jobs N or -jN. */
    static bool
    isWorkers(const std::string &arg)
    {
        return arg == "-j" || arg == "--jobs" || arg.rfind("-j", 0) == 0;
    }

    /** The worker count of the isWorkers() flag at argv[i]. */
    int
    workers(int &i) const
    {
        std::string arg = argv[i];
        // Accept both "-j 8" and the make-style joined "-j8".
        int jobs = std::atoi(
            (arg == "-j" || arg == "--jobs" ? value(i) : arg.substr(2))
                .c_str());
        if (jobs < 1)
            fail("-j needs a positive worker count");
        return jobs;
    }
};

/**
 * `cchar synth` — model-driven traffic replay at arbitrary scale.
 *
 * Loads a characterization JSON (the --json output of `characterize`),
 * optionally re-projects it onto a larger topology (--scale-procs) and
 * a larger message budget (--messages), drives the mesh simulator with
 * seeded draws from the fitted distributions, re-characterizes the
 * synthetic traffic, and reports the per-attribute KS divergence
 * between the model and what it produced — the closed loop of the
 * methodology. Deterministic: identical inputs produce byte-identical
 * output.
 */
int
cmdSynth(int argc, char **argv)
{
    SubcommandArgs args{argc, argv, "synth"};
    if (argc < 3 || argv[2][0] == '-')
        args.fail("needs a model JSON path");
    std::string modelPath = argv[2];
    Options opts;
    core::SynthRunOptions ropts;
    int scaleProcs = 0;
    std::uint64_t messages = 0;

    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--scale-procs") {
            scaleProcs = std::atoi(args.value(i).c_str());
            if (scaleProcs < 1)
                args.fail("--scale-procs must be >= 1");
        } else if (arg == "--messages") {
            std::string v = args.value(i);
            char *end = nullptr;
            messages = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0')
                args.fail("bad --messages value '" + v + "'");
        } else if (arg == "--seed") {
            std::string v = args.value(i);
            char *end = nullptr;
            ropts.seed = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0')
                args.fail("bad --seed value '" + v + "'");
        } else if (arg == "--time-scale") {
            ropts.timeScale = std::atof(args.value(i).c_str());
            if (ropts.timeScale <= 0.0)
                args.fail("--time-scale must be > 0");
        } else if (arg == "--max-outstanding") {
            ropts.maxOutstanding = std::atoi(args.value(i).c_str());
            if (ropts.maxOutstanding < 0)
                args.fail("--max-outstanding cannot be negative");
        } else if (arg == "--use-phases") {
            ropts.usePhases = true;
        } else if (arg == "--phases") {
            opts.phases = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--out") {
            opts.out = args.value(i);
        } else if (arg == "--report-out") {
            opts.reportOut = args.value(i);
        } else if (arg == "--metrics-out") {
            opts.metricsOut = args.value(i);
        } else if (arg == "--rank-activity") {
            opts.rankActivity = true;
        } else if (arg == "--link-stats") {
            opts.linkStats = true;
        } else if (arg == "--top-links") {
            opts.topLinks = std::atoi(args.value(i).c_str());
            if (opts.topLinks < 1)
                args.fail("--top-links must be >= 1");
        } else {
            args.fail("unknown option '" + arg + "'");
        }
    }

    core::SyntheticModel model =
        core::SyntheticModel::fromJsonFile(modelPath);
    const int origProcs = model.nprocs;
    const int origNodes = model.mesh.nodes();
    const std::size_t origTotal = model.totalMessages();
    if (scaleProcs > 0 || messages > 0)
        model = model.scaleTo(scaleProcs, messages);

    // The trackers must be ambient before the generator builds its
    // MeshNetwork (components resolve the sinks at construction).
    ObsSession obsSession{opts};
    core::DriveResult result =
        core::SyntheticTrafficGenerator::run(model, ropts);

    std::string label = model.application.empty()
                            ? modelPath
                            : model.application + " (synthetic)";
    core::CharacterizationPipeline pipeline{obsSession.pipelineOptions()};
    core::CharacterizationReport report =
        pipeline.characterizeDrive(result, model.mesh, label);
    report.verified = true; // a model replay has no app invariant

    report.synthFidelity = core::computeSynthFidelity(model, result.log);
    report.synthFidelity.modelSource = modelPath;
    report.synthFidelity.modelProcs = origProcs;
    report.synthFidelity.scaleTiles = model.mesh.nodes() / origNodes;
    report.synthFidelity.messageScale =
        origTotal > 0 ? static_cast<double>(model.totalMessages()) /
                            static_cast<double>(origTotal)
                      : 1.0;
    report.synthFidelity.seed = ropts.seed;

    int rc = writeOutputs(report, obsSession, opts, opts.out, result.log);
    std::cerr << "synth: " << result.log.size() << " messages from "
              << modelPath << " (KS temporal "
              << report.synthFidelity.temporalKs << ", spatial "
              << report.synthFidelity.spatialKs << ", volume "
              << report.synthFidelity.volumeKs << ")\n";
    return rc;
}

} // namespace

/**
 * `cchar sweep` — run a whole experiment matrix across worker threads.
 *
 * Dimensions come from a JSON spec file (--spec) and/or CLI lists;
 * CLI dimension flags override the spec file. The aggregate report is
 * deterministic: byte-identical output for any -j value.
 */
/**
 * Graceful-shutdown signal counter. The handler only bumps the
 * counter (async-signal-safe); the sweep engine's monitor thread and
 * drain loops poll it: one signal stops job claiming and drains, a
 * second also cancels in-flight jobs at their next watchdog tick.
 */
std::atomic<int> gSweepSignals{0};

extern "C" void
sweepSignalHandler(int)
{
    int level = gSweepSignals.fetch_add(1, std::memory_order_relaxed);
    // write(2) is on the async-signal-safe list; iostreams are not.
    const char *msg =
        level == 0
            ? "\nsweep: shutdown requested; draining in-flight jobs "
              "(signal again to cancel them)\n"
            : "\nsweep: cancelling in-flight jobs\n";
    ssize_t ignored = ::write(2, msg, std::strlen(msg));
    (void)ignored;
}

/** Installs SIGINT/SIGTERM handlers for the sweep, restores on exit. */
class ScopedSweepSignals
{
  public:
    ScopedSweepSignals()
    {
        gSweepSignals.store(0, std::memory_order_relaxed);
        struct sigaction sa = {};
        sa.sa_handler = sweepSignalHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;
        sigaction(SIGINT, &sa, &oldInt_);
        sigaction(SIGTERM, &sa, &oldTerm_);
    }
    ~ScopedSweepSignals()
    {
        sigaction(SIGINT, &oldInt_, nullptr);
        sigaction(SIGTERM, &oldTerm_, nullptr);
    }

  private:
    struct sigaction oldInt_ = {};
    struct sigaction oldTerm_ = {};
};

int
cmdSweep(int argc, char **argv)
{
    SubcommandArgs args{argc, argv, "sweep"};
    sweep::SweepSpec spec;
    int jobs = 1;
    bool progress = false;
    std::string outPath, csvPath;
    sweep::SweepRunOptions ropts;


    // Pass 1: the spec file seeds the matrix...
    for (int i = 2; i < argc; ++i) {
        if (std::string{argv[i]} == "--spec")
            spec = sweep::SweepSpec::fromJsonFile(args.value(i));
    }
    // ...pass 2: CLI flags override individual dimensions.
    bool sawFaultPlan = false;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--spec") {
            ++i; // consumed in pass 1
        } else if (arg == "--apps") {
            spec.apps = sweep::parseList(args.value(i));
        } else if (arg == "--procs") {
            spec.procs.clear();
            for (const std::string &item :
                 sweep::parseList(args.value(i))) {
                try {
                    spec.procs.push_back(std::stoi(item));
                } catch (const std::exception &) {
                    args.fail("bad procs value '" + item + "'");
                }
            }
        } else if (arg == "--loads") {
            spec.loads.clear();
            for (const std::string &item :
                 sweep::parseList(args.value(i))) {
                try {
                    spec.loads.push_back(std::stod(item));
                } catch (const std::exception &) {
                    args.fail("bad load value '" + item + "'");
                }
            }
        } else if (arg == "--seeds") {
            spec.seeds = sweep::parseSeeds(args.value(i));
        } else if (arg == "--fault-plan") {
            if (!sawFaultPlan) {
                spec.faultPlans.clear();
                sawFaultPlan = true;
            }
            spec.faultPlans.push_back(args.value(i));
        } else if (arg == "--torus") {
            spec.torus = true;
        } else if (arg == "--vcs") {
            spec.vcs = std::atoi(args.value(i).c_str());
        } else if (arg == "--rank-activity") {
            spec.rankActivity = true;
        } else if (arg == "--link-stats") {
            spec.linkStats = true;
        } else if (arg == "--synthetic") {
            spec.synthetic = true;
        } else if (arg == "--progress") {
            progress = true;
        } else if (SubcommandArgs::isWorkers(arg)) {
            jobs = args.workers(i);
        } else if (arg == "--out") {
            outPath = args.value(i);
        } else if (arg == "--csv") {
            csvPath = args.value(i);
        } else if (arg == "--journal") {
            ropts.journalPath = args.value(i);
        } else if (arg == "--resume") {
            ropts.resumePath = args.value(i);
        } else if (arg == "--job-timeout") {
            ropts.policy.jobTimeoutSec =
                std::atof(args.value(i).c_str());
            if (ropts.policy.jobTimeoutSec <= 0.0)
                args.fail("--job-timeout needs a positive number of "
                          "seconds");
        } else if (arg == "--job-retries") {
            ropts.policy.maxRetries = std::atoi(args.value(i).c_str());
            if (ropts.policy.maxRetries < 0)
                args.fail("--job-retries cannot be negative");
        } else if (arg == "--retry-backoff-ms") {
            ropts.policy.backoffMs = std::atof(args.value(i).c_str());
            if (ropts.policy.backoffMs < 0.0)
                args.fail("--retry-backoff-ms cannot be negative");
        } else {
            args.fail("unknown option '" + arg + "'");
        }
    }

    ropts.workers = jobs;
    ropts.progress = progress;
    ropts.shutdown = &gSweepSignals;
    ScopedSweepSignals signalScope;

    sweep::SweepEngine engine{std::move(spec)};
    sweep::SweepResult result = engine.run(ropts);

    if (result.resumedJobs > 0) {
        std::cerr << "sweep: resumed " << result.resumedJobs
                  << " completed job"
                  << (result.resumedJobs == 1 ? "" : "s")
                  << " from journal\n";
    }

    if (result.interrupted) {
        // A partial aggregate would be mistaken for a complete one;
        // the journal already holds everything that finished.
        std::string journalPath = !ropts.journalPath.empty()
                                      ? ropts.journalPath
                                      : ropts.resumePath;
        std::cerr << "sweep: interrupted after "
                  << (result.outcomes.size() -
                      result.interruptedCount())
                  << "/" << result.outcomes.size() << " jobs";
        if (!journalPath.empty()) {
            std::cerr << "; resume with: cchar sweep ... --resume "
                      << journalPath;
        } else {
            std::cerr << " (no --journal: completed work was not "
                         "persisted)";
        }
        std::cerr << "\n";
        return core::exitCodeOf(core::StatusCode::Interrupted);
    }

    if (outPath.empty()) {
        result.writeJson(std::cout);
    } else {
        core::AtomicFileWriter writer{outPath, "sweep"};
        result.writeJson(writer.stream());
        writer.commit();
    }
    if (!csvPath.empty()) {
        core::AtomicFileWriter writer{csvPath, "sweep"};
        result.writeCsv(writer.stream());
        writer.commit();
    }

    std::size_t unverified = 0;
    for (const auto &o : result.outcomes)
        unverified += (o.ok() && !o.verified) ? 1 : 0;
    std::cerr << "sweep: " << result.outcomes.size() << " jobs, "
              << result.failures() << " failed, " << unverified
              << " unverified";
    if (std::size_t q = result.quarantinedCount())
        std::cerr << ", " << q << " quarantined";
    if (std::size_t r = result.retries())
        std::cerr << ", " << r << " retries";
    std::cerr << "\n";
    if (progress) {
        // The wall-clock worker view only ever reaches stderr; the
        // serialized reports keep the matching gauges zeroed so they
        // stay byte-identical across -j (see sweep/engine.cc).
        for (std::size_t w = 0; w < result.workerStats.size(); ++w) {
            const auto &ws = result.workerStats[w];
            std::cerr << "sweep: worker " << w << ": "
                      << ws.jobsCompleted << " jobs, busy "
                      << static_cast<int>(ws.busyFraction * 100.0 + 0.5)
                      << "%\n";
        }
    }
    // Exit-code precedence: a deadline-killed job is the most
    // actionable signal (raise --job-timeout or quarantine the app),
    // so it outranks the generic failure code.
    for (const auto &o : result.outcomes) {
        if (o.status ==
            core::toString(core::StatusCode::DeadlineExceeded))
            return core::exitCodeOf(core::StatusCode::DeadlineExceeded);
    }
    return (result.failures() || unverified) ? 1 : 0;
}

/**
 * `cchar chaos`: seeded chaos campaign over generated fault plans.
 * Exit 0 when the campaign completes (failing plans are the product,
 * not an error) — nonzero only for usage or infrastructure problems.
 */
int
cmdChaos(int argc, char **argv)
{
    SubcommandArgs args{argc, argv, "chaos"};
    sweep::ChaosOptions copts;
    int jobs = 1;
    bool progress = false;
    bool json = false;
    std::string outPath;


    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--apps") {
            copts.apps = sweep::parseList(args.value(i));
        } else if (arg == "--procs") {
            copts.procs = std::atoi(args.value(i).c_str());
            if (copts.procs < 1)
                args.fail("--procs must be >= 1");
        } else if (arg == "--plans") {
            copts.plans = std::atoi(args.value(i).c_str());
        } else if (arg == "--seed") {
            copts.seed =
                std::strtoull(args.value(i).c_str(), nullptr, 10);
        } else if (arg == "--max-faults") {
            copts.maxFaults = std::atoi(args.value(i).c_str());
        } else if (arg == "--horizon") {
            copts.horizonUs = std::atof(args.value(i).c_str());
            if (copts.horizonUs < 2.0)
                args.fail("--horizon must be >= 2");
        } else if (arg == "--shrink-budget") {
            copts.shrinkBudget = std::atoi(args.value(i).c_str());
            if (copts.shrinkBudget < 0)
                args.fail("--shrink-budget cannot be negative");
        } else if (arg == "--torus") {
            copts.torus = true;
        } else if (arg == "--vcs") {
            copts.vcs = std::atoi(args.value(i).c_str());
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--out") {
            outPath = args.value(i);
        } else if (arg == "--progress") {
            progress = true;
        } else if (SubcommandArgs::isWorkers(arg)) {
            jobs = args.workers(i);
        } else {
            args.fail("unknown option '" + arg + "'");
        }
    }

    sweep::ChaosHarness harness{copts};
    sweep::ChaosResult result = harness.run(jobs, progress);

    if (outPath.empty()) {
        if (json)
            result.writeJson(std::cout);
        else
            result.print(std::cout);
    } else {
        core::AtomicFileWriter writer{outPath, "chaos"};
        if (json)
            result.writeJson(writer.stream());
        else
            result.print(writer.stream());
        writer.commit();
    }
    std::cerr << "chaos: " << result.jobs.size() << " jobs, "
              << result.failingCount() << " failing plans shrunk\n";
    return 0;
}

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "list") {
        std::cout << "shared-memory (dynamic strategy):\n";
        for (const auto &name : apps::sharedMemoryAppNames())
            std::cout << "  " << name << "\n";
        std::cout << "message-passing (static strategy):\n";
        for (const auto &name : apps::messagePassingAppNames())
            std::cout << "  " << name << "\n";
        return 0;
    }

    // Recoverable problems (lenient trace ingest, delivery failures)
    // land here instead of aborting; dumped to stderr on exit.
    core::DiagnosticSink sink;
    core::ScopedDiagnostics diagGuard{&sink};
    auto flushDiagnostics = [&sink] {
        if (!sink.empty())
            sink.writeText(std::cerr);
    };
    auto fail = [&](const char *what, core::StatusCode code) {
        flushDiagnostics();
        std::cerr << "error: " << what << "\n";
        return core::exitCodeOf(code);
    };

    try {
        int rc = 2;
        if (cmd == "sweep") {
            rc = cmdSweep(argc, argv);
        } else if (cmd == "chaos") {
            rc = cmdChaos(argc, argv);
        } else if (cmd == "synth") {
            rc = cmdSynth(argc, argv);
        } else {
            Options opts;
            if (argc < 3 || !parseOptions(argc, argv, 3, opts))
                return usage();
            std::string target = argv[2];
            if (cmd == "characterize") {
                rc = cmdCharacterize(target, opts);
            } else if (cmd == "report") {
                opts.reportMode = true;
                rc = cmdCharacterize(target, opts);
            } else if (cmd == "trace") {
                rc = cmdTrace(target, opts);
            } else if (cmd == "replay") {
                rc = cmdReplay(target, opts);
            } else {
                return usage();
            }
        }
        flushDiagnostics();
        return rc;
    } catch (const desim::WatchdogError &err) {
        return fail(err.what(), core::StatusCode::WatchdogTrip);
    } catch (const core::CCharError &err) {
        return fail(err.what(), err.status().code());
    } catch (const std::exception &err) {
        return fail(err.what(), core::StatusCode::SimError);
    }
}
