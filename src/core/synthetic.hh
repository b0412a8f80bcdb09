/**
 * @file
 * Synthetic traffic generation from fitted characterizations — the
 * paper's end goal: "These distributions can be used in the analysis
 * of ICNs for developing realistic performance models."
 *
 * A SyntheticModel captures, per source, the fitted inter-arrival
 * distribution and the fitted destination distribution, plus the
 * global message-length PMF and (when phase detection ran) the phase
 * schedule. Models come from two places:
 *
 *  - fromReport: directly from an in-memory CharacterizationReport
 *    (the legacy `--synthetic` validation path);
 *  - fromJson / fromJsonFile: from a characterization JSON document
 *    written by `cchar characterize --json` — the `cchar synth`
 *    replay path. The report JSON *is* the model format; there is no
 *    second schema to keep in sync.
 *
 * A loaded model can be re-projected onto a larger machine with
 * scaleTo (topology tiling + message-budget scaling), so a 16-process
 * characterization can drive a 64-node mesh with millions of
 * messages. The generator drives the same 2-D mesh simulator with the
 * model, and computeSynthFidelity closes the methodology loop by
 * measuring the per-attribute KS divergence between the model and the
 * re-characterized synthetic run.
 */

#ifndef CCHAR_CORE_SYNTHETIC_HH
#define CCHAR_CORE_SYNTHETIC_HH

#include <memory>
#include <string>
#include <vector>

#include "replay.hh"
#include "report.hh"

namespace cchar::core {

/** Distribution-level description of one application's traffic. */
struct SyntheticModel
{
    struct SourceModel
    {
        int source = 0;
        /** Fitted inter-arrival time distribution. */
        std::unique_ptr<stats::Distribution> interArrival;
        /** Fitted destination PMF. */
        stats::DiscretePmf destination;
        /** Messages this source injects. */
        std::size_t messageCount = 0;
    };

    /**
     * One detected execution phase of the originating run. During
     * generation (SynthRunOptions::usePhases) every source's drawn
     * gap is multiplied by the gapScale of the phase containing the
     * current simulation time, so the replay reproduces the run's
     * alternation of fast and slow communication regimes on top of
     * the whole-run marginal fits.
     */
    struct PhaseModel
    {
        int index = 0;
        double tBegin = 0.0;
        double tEnd = 0.0;
        std::size_t messageCount = 0;
        /** Aggregate injection rate inside the phase (msgs/us). */
        double injectionRate = 0.0;
        /**
         * globalRate / injectionRate: < 1 compresses gaps inside a
         * hot phase, > 1 stretches them in a quiet one. 1.0 when
         * either rate is degenerate.
         */
        double gapScale = 1.0;
    };

    mesh::MeshConfig mesh;
    int nprocs = 0;
    /** Application named by the originating characterization. */
    std::string application;
    std::vector<SourceModel> sources;
    /** Phase schedule (empty when phase detection did not run). */
    std::vector<PhaseModel> phases;
    /** Global message-length PMF (bytes, probability). */
    std::vector<std::pair<int, double>> lengthPmf;

    /**
     * Build the model from a characterization report: per-source
     * temporal fits where available (aggregate fit otherwise), the
     * classified spatial model per source, and the observed length
     * PMF.
     */
    static SyntheticModel fromReport(const CharacterizationReport &report);

    /**
     * Parse a characterization JSON document (the `--json` output of
     * `cchar characterize`) into a model. Every malformed or
     * semantically invalid input throws CCharError(ParseError) whose
     * message names the offending field; nothing ever aborts.
     */
    static SyntheticModel fromJson(const std::string &text);

    /** fromJson over a file; missing file throws CCharError(IoError). */
    static SyntheticModel fromJsonFile(const std::string &path);

    /** Sum of the per-source message counts. */
    std::size_t totalMessages() const;

    /** Deep copy (SourceModel owns its distribution). */
    SyntheticModel clone() const;

    /**
     * Re-project the model onto a larger machine.
     *
     * @param target_procs  Total node count of the scaled topology;
     *        must be a positive multiple of mesh.nodes() (the original
     *        board is replicated as near-square tiles, and every
     *        source's destination PMF is remapped into its own tile so
     *        the hop-distance structure is preserved). 0 keeps the
     *        original topology.
     * @param target_messages  Total message budget, distributed over
     *        the tiled sources proportionally to their original
     *        counts by largest remainder (each source gets the floor
     *        of its quota, the leftover messages go to the largest
     *        fractional parts, ties in source order), so the counts
     *        sum to exactly the budget. 0 keeps the per-source counts
     *        of every clone (total grows with the tile count).
     * @throws CCharError(UsageError) when target_procs is not a
     *         multiple of the model's node count.
     */
    SyntheticModel scaleTo(int target_procs,
                           std::size_t target_messages) const;
};

/** Knobs of one synthetic generation run. */
struct SynthRunOptions
{
    std::uint64_t seed = 42;
    /**
     * Multiplier on every inter-arrival gap: values < 1 increase the
     * offered load (load sweeps), 1.0 reproduces the fitted rate.
     */
    double timeScale = 1.0;
    /**
     * Per-source cap on in-flight messages (0 = unbounded open loop).
     * Fitted marginal distributions lose the original traffic's
     * correlation structure; for very bursty applications an unbounded
     * open loop piles up unboundedly deep queues that the real
     * (feedback-limited) execution never formed. A small cap models
     * the finite network-interface buffering of a real node.
     */
    int maxOutstanding = 0;
    /**
     * Modulate gaps by the model's phase schedule (see PhaseModel).
     * Off by default: a run without phases is byte-identical to the
     * pre-phase generator.
     */
    bool usePhases = false;
};

/** Drives a mesh with synthetic traffic drawn from a model. */
class SyntheticTrafficGenerator
{
  public:
    /**
     * Generate each source's messageCount messages (open-loop
     * injection at fitted inter-arrival times) and return the
     * resulting network log and statistics. Deterministic: the same
     * model and options produce a byte-identical log.
     */
    static DriveResult run(const SyntheticModel &model,
                           const SynthRunOptions &opts);

    /** Positional legacy form of run (see SynthRunOptions). */
    static DriveResult run(const SyntheticModel &model,
                           std::uint64_t seed = 42,
                           double time_scale = 1.0,
                           int max_outstanding = 0);
};

/**
 * Close the characterization loop: compare the traffic a synthetic run
 * actually produced (its network log) against the model that drove it,
 * one KS distance per attribute. Provenance fields (modelSource, seed,
 * scaleTiles, messageScale) are left for the caller to fill.
 */
SynthesisFidelity computeSynthFidelity(const SyntheticModel &model,
                                       const trace::TrafficLog &log);

/** Original-vs-synthetic comparison of network behaviour. */
struct ValidationResult
{
    double originalLatencyMean = 0.0;
    double syntheticLatencyMean = 0.0;
    double originalContentionMean = 0.0;
    double syntheticContentionMean = 0.0;
    double originalAvgUtilization = 0.0;
    double syntheticAvgUtilization = 0.0;

    double
    latencyError() const
    {
        return originalLatencyMean != 0.0
                   ? (syntheticLatencyMean - originalLatencyMean) /
                         originalLatencyMean
                   : 0.0;
    }
};

/**
 * Run the synthetic model derived from `report` and compare the
 * network behaviour with the original run recorded in `report`.
 *
 * @param max_outstanding see SynthRunOptions.
 */
ValidationResult validateModel(const CharacterizationReport &report,
                               std::uint64_t seed = 42,
                               int max_outstanding = 0);

} // namespace cchar::core

#endif // CCHAR_CORE_SYNTHETIC_HH
