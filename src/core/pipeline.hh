/**
 * @file
 * The end-to-end characterization pipeline — the paper's methodology.
 *
 * Dynamic strategy: execute a shared-memory application on the
 * simulated CC-NUMA machine (execution-driven, with network feedback),
 * log every coherence/synchronization message the 2-D mesh carries,
 * and run the statistical analysis on the log.
 *
 * Static strategy: execute a message-passing application on the
 * SP2-model runtime with application-level tracing, replay the trace
 * into the same 2-D mesh simulator, and analyze the replayed log.
 *
 * The cchar subcommands and every sweep job run through this class,
 * which also owns what must happen in a fixed order around a run: the
 * fault injector, the watchdog, the sampler, the progress line, and
 * the rank-activity and link-stats trackers with their analyses.
 */

#ifndef CCHAR_CORE_PIPELINE_HH
#define CCHAR_CORE_PIPELINE_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "analyzers.hh"
#include "apps/app.hh"
#include "ccnuma/machine.hh"
#include "fault/plan.hh"
#include "mp/mp.hh"
#include "replay.hh"
#include "report.hh"

namespace cchar::core {

/** Analysis knobs of the pipeline. */
struct PipelineOptions
{
    stats::DistributionFitter fitter{};
    stats::SpatialClassifier classifier{};
    /** Minimum messages for a per-source temporal fit. */
    std::size_t minSamplesPerSource = 8;
    /** Produce per-source fits (aggregate only if false). */
    bool perSource = true;
    /**
     * Optional windowed telemetry sink. When set, the standard
     * network series (see attachNetworkTelemetry) are captured every
     * samplePeriodUs of simulated time during the run — for the
     * static strategy, during the replay phase. Must outlive the run.
     */
    obs::WindowedSampler *sampler = nullptr;
    double samplePeriodUs = 50.0;
    /**
     * Run the phase detector and characterize each detected phase
     * (report.phases). Off by default: reports analyzed without it
     * render byte-identically to earlier versions.
     */
    bool detectPhases = false;
    /** Phase-detection parameters (used when detectPhases is set). */
    PhaseAnalysisConfig phase{};

    /**
     * Fault plan of the run (none when empty). The run builds its
     * injector when it starts, so the fault.* metrics land in the
     * caller's installed sinks, and fills report.resilience.
     */
    std::optional<fault::FaultPlan> faultPlan{};
    /**
     * Watchdog of every simulation of a run, armed only with a fault
     * plan or a cancelFlag: any periodic hook moves the final
     * sim.now(), and with it the reported channel utilization. Under
     * faults it probes delivered messages (plus MP delivery failures);
     * with only a cancel flag it probes processed events and the
     * replay's stall check is off, so only cancellation trips it.
     */
    desim::WatchdogConfig watchdog{};
    /** Progress line sink, every 10 sample periods of the app run. */
    std::ostream *progress = nullptr;
    /** Network-weather analysis of an installed link-stats sink. */
    LinkWeatherConfig linkWeather{};
    /**
     * Replay the fitted model through the run's network, faults
     * included and sinks detached, into report.synthFidelity. Its
     * faults count in report.resilience.
     */
    bool synthesize = false;
};

/** Network summary of a finished mesh drive (replay, synthetic run). */
NetworkSummary networkSummary(const DriveResult &drive);

/** Network summary of a mesh whose simulation stopped at `now`. */
NetworkSummary networkSummary(const mesh::MeshNetwork &net,
                              const trace::TrafficLog &log,
                              desim::SimTime now);

/**
 * Runs applications and produces characterization reports.
 *
 * A run reports into the observability sinks installed when it starts
 * (obs::ScopedObservability): it finishes and analyzes the rank-activity
 * and link-stats trackers into report.rankActivity / report.linkStats
 * and publishes their rank.* / link.* metrics into the installed
 * registry. The static strategy detaches the rank-activity tracker for
 * the replay (it holds the application run) and resets the link-stats
 * tracker before it (it holds the replay).
 */
class CharacterizationPipeline
{
  public:
    CharacterizationPipeline() : opts_() {}

    explicit CharacterizationPipeline(PipelineOptions opts)
        : opts_(std::move(opts))
    {}

    /**
     * Run the application registered under `name` (apps/registry.hh)
     * on a network of the given configuration: shared-memory apps with
     * the dynamic strategy, message-passing apps with the static one.
     *
     * @param log_out Optional sink for the characterized traffic log.
     * @throws CCharError(UsageError) when no application has that name.
     */
    CharacterizationReport run(const std::string &name,
                               const mesh::MeshConfig &mesh,
                               trace::TrafficLog *log_out = nullptr) const;

    /**
     * Dynamic strategy: run `app` on a CC-NUMA machine of the given
     * configuration and characterize the generated traffic.
     *
     * @param log_out Optional sink for the characterized traffic log.
     */
    CharacterizationReport
    runDynamic(apps::SharedMemoryApp &app, const ccnuma::MachineConfig &cfg,
               trace::TrafficLog *log_out = nullptr) const;

    /**
     * Static strategy: run `app` on the MP runtime with tracing,
     * replay the trace into the mesh, and characterize the replayed
     * traffic.
     *
     * @param trace_out Optional sink for the collected trace.
     * @param log_out Optional sink for the replayed traffic log.
     */
    CharacterizationReport
    runStatic(apps::MessagePassingApp &app, const mp::MpConfig &cfg,
              trace::Trace *trace_out = nullptr,
              trace::TrafficLog *log_out = nullptr) const;

    /**
     * Replay a recorded trace into a fresh mesh and characterize the
     * replayed traffic (static strategy, report labelled
     * `application`). A replay has no application threads, so the
     * rank-activity tracker records the in-network comm spans only.
     * Records a lenient load skipped show up in report.resilience.
     */
    CharacterizationReport
    runReplay(const trace::Trace &trace, const mesh::MeshConfig &mesh,
              const std::string &application,
              trace::TrafficLog *log_out = nullptr) const;

    /**
     * Characterize a finished mesh drive, such as a synthetic traffic
     * run, as the static strategy does its replay; the trackers are
     * finished at the drive's makespan.
     */
    CharacterizationReport
    characterizeDrive(const DriveResult &drive,
                      const mesh::MeshConfig &mesh,
                      const std::string &application) const;

    /** Shared analysis step on an existing network log. */
    CharacterizationReport
    analyze(const trace::TrafficLog &log, const mesh::MeshConfig &mesh,
            const std::string &application, Strategy strategy,
            const NetworkSummary &network) const;

  private:
    /** The `synthesize` step (see PipelineOptions). */
    void replayModel(CharacterizationReport &report) const;

    /** Replay `trace` with the run's sampler, faults and watchdog. */
    DriveResult replay(const trace::Trace &trace,
                       const mesh::MeshConfig &mesh,
                       fault::FaultInjector *faults) const;

    /**
     * The tail every run shares: analyze the log and the finished
     * `activity` tracker (may be null), finish the link-stats tracker
     * at sim time `end` and analyze it, and publish their metrics.
     */
    CharacterizationReport
    characterize(const trace::TrafficLog &log, const mesh::MeshConfig &mesh,
                 const std::string &application, Strategy strategy,
                 const NetworkSummary &network, double end,
                 obs::RankActivityTracker *activity) const;

    PipelineOptions opts_;
};

} // namespace cchar::core

#endif // CCHAR_CORE_PIPELINE_HH
