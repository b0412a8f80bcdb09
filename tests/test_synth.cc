/**
 * @file
 * Round-trip golden suite for the synthesis loop:
 *
 *     characterize -> model JSON -> synthesize -> re-characterize
 *
 * For real applications (1d-fft and is on the dynamic strategy, mg on
 * the static one) the suite asserts that a replay of the fitted model
 * — at the original scale AND re-projected onto 4x the processors with
 * 10x the messages — stays within committed per-attribute KS
 * thresholds of the model. Plus the determinism contract (the same
 * model and seed produce byte-identical traffic) and the gating
 * contract (a report analyzed without synthesis renders exactly as
 * before: no "synthFidelity" key, no "Synthesis fidelity" section).
 *
 * The KS thresholds are deliberately loose relative to what the seeds
 * actually achieve (see tools/ CLI goldens for exact values): they
 * bound regressions in the samplers and the scaling remap, not
 * sampling noise.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "apps/registry.hh"
#include "core/core.hh"

namespace {

using namespace cchar;
using core::CharacterizationReport;
using core::SyntheticModel;
using core::SyntheticTrafficGenerator;
using core::SynthRunOptions;

// Committed fidelity thresholds of the round-trip suite. A replay of
// a model drawn from the model itself measures pure sampling error;
// anything near these bounds means a sampler or the scaling remap is
// distorting an attribute.
constexpr double kTemporalKsMax = 0.10;
constexpr double kSpatialKsMax = 0.06;
constexpr double kVolumeKsMax = 0.05;

CharacterizationReport
characterizeApp(const std::string &name)
{
    core::CharacterizationPipeline pipeline;
    if (auto app = apps::makeSharedMemoryApp(name)) {
        ccnuma::MachineConfig cfg;
        cfg.mesh.width = 4;
        cfg.mesh.height = 4;
        return pipeline.runDynamic(*app, cfg);
    }
    auto mpApp = apps::makeMessagePassingApp(name);
    EXPECT_NE(mpApp, nullptr) << name;
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 4;
    return pipeline.runStatic(*mpApp, cfg);
}

std::string
reportJson(const CharacterizationReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

void
expectFidelityBounded(const core::SynthesisFidelity &sf,
                      const std::string &label)
{
    EXPECT_TRUE(sf.enabled) << label;
    EXPECT_GT(sf.temporalSources, 0u) << label;
    EXPECT_LT(sf.temporalKs, kTemporalKsMax) << label;
    EXPECT_LT(sf.spatialKs, kSpatialKsMax) << label;
    EXPECT_LT(sf.volumeKs, kVolumeKsMax) << label;
}

// --------------------------------------------------------------------
// Round trip at the originating scale

class SynthRoundTrip : public ::testing::TestWithParam<const char *>
{};

TEST_P(SynthRoundTrip, ModelReplayKsBounded)
{
    const std::string app = GetParam();
    CharacterizationReport report = characterizeApp(app);

    // The loop under test is the serialized one: report -> JSON ->
    // model, exactly what `cchar synth` consumes.
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    EXPECT_EQ(model.nprocs, 16);
    EXPECT_EQ(model.application, app);
    ASSERT_FALSE(model.sources.empty());

    core::DriveResult synth =
        SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    EXPECT_EQ(synth.log.size(), model.totalMessages());

    core::SynthesisFidelity sf =
        core::computeSynthFidelity(model, synth.log);
    expectFidelityBounded(sf, app + " @1x");
}

TEST_P(SynthRoundTrip, ScaledReplayKsBounded)
{
    const std::string app = GetParam();
    CharacterizationReport report = characterizeApp(app);
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));

    const std::size_t target = 10 * model.totalMessages();
    SyntheticModel scaled = model.scaleTo(64, target);
    EXPECT_EQ(scaled.mesh.nodes(), 64);
    EXPECT_EQ(scaled.nprocs, 64);
    EXPECT_EQ(scaled.sources.size(), 4 * model.sources.size());
    // Per-source rounding may drift the total by at most half a
    // message per source.
    EXPECT_NEAR(static_cast<double>(scaled.totalMessages()),
                static_cast<double>(target),
                static_cast<double>(scaled.sources.size()));

    core::DriveResult synth =
        SyntheticTrafficGenerator::run(scaled, SynthRunOptions{});
    EXPECT_EQ(synth.log.nprocs(), 64);
    EXPECT_EQ(synth.log.size(), scaled.totalMessages());

    core::SynthesisFidelity sf =
        core::computeSynthFidelity(scaled, synth.log);
    expectFidelityBounded(sf, app + " @4x/10x");
}

INSTANTIATE_TEST_SUITE_P(Apps, SynthRoundTrip,
                         ::testing::Values("1d-fft", "is", "mg"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// --------------------------------------------------------------------
// Determinism

TEST(SynthDeterminism, SameModelAndSeedProduceIdenticalTraffic)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));

    auto runOnce = [&model] {
        return SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    };
    core::DriveResult a = runOnce();
    core::DriveResult b = runOnce();

    ASSERT_EQ(a.log.size(), b.log.size());
    for (std::size_t i = 0; i < a.log.size(); ++i) {
        const auto &ra = a.log.records()[i];
        const auto &rb = b.log.records()[i];
        EXPECT_EQ(ra.src, rb.src) << i;
        EXPECT_EQ(ra.dst, rb.dst) << i;
        EXPECT_EQ(ra.bytes, rb.bytes) << i;
        EXPECT_EQ(ra.injectTime, rb.injectTime) << i;
        EXPECT_EQ(ra.deliverTime, rb.deliverTime) << i;
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
}

TEST(SynthDeterminism, DifferentSeedsProduceDifferentTraffic)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));

    SynthRunOptions sa;
    sa.seed = 1;
    SynthRunOptions sb;
    sb.seed = 2;
    core::DriveResult a = SyntheticTrafficGenerator::run(model, sa);
    core::DriveResult b = SyntheticTrafficGenerator::run(model, sb);
    ASSERT_EQ(a.log.size(), b.log.size());
    EXPECT_NE(a.makespan, b.makespan);
}

// --------------------------------------------------------------------
// Scaling semantics

TEST(SynthScaling, RejectsNonMultipleProcs)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    EXPECT_THROW((void)model.scaleTo(17, 0), core::CCharError);
    EXPECT_THROW((void)model.scaleTo(8, 0), core::CCharError);
}

TEST(SynthScaling, TilePreservesDestinationLocality)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    SyntheticModel scaled = model.scaleTo(64, 0);

    // Every cloned source's destination mass stays inside its own
    // 4x4 tile of the 8x8 board — the remap preserves the original
    // hop-distance structure instead of smearing traffic globally.
    const int W = scaled.mesh.width; // 8
    for (const auto &sm : scaled.sources) {
        int tileX = (sm.source % W) / model.mesh.width;
        int tileY = (sm.source / W) / model.mesh.height;
        const auto &p = sm.destination.probabilities();
        for (std::size_t d = 0; d < p.size(); ++d) {
            if (p[d] <= 0.0)
                continue;
            int dx = (static_cast<int>(d) % W) / model.mesh.width;
            int dy = (static_cast<int>(d) / W) / model.mesh.height;
            EXPECT_EQ(dx, tileX) << "source " << sm.source;
            EXPECT_EQ(dy, tileY) << "source " << sm.source;
        }
    }
}

TEST(SynthScaling, MessageScaleKeepsPerSourceProportions)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    const std::size_t total = model.totalMessages();
    SyntheticModel scaled = model.scaleTo(0, 5 * total);

    ASSERT_EQ(scaled.sources.size(), model.sources.size());
    for (std::size_t i = 0; i < model.sources.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(scaled.sources[i].messageCount),
                    5.0 *
                        static_cast<double>(model.sources[i].messageCount),
                    1.0)
            << "source " << i;
    }
}

// --------------------------------------------------------------------
// Gating: reports produced without synthesis are unchanged

TEST(SynthGating, ReportWithoutSynthesisHasNoFidelitySection)
{
    CharacterizationReport report = characterizeApp("is");
    EXPECT_FALSE(report.synthFidelity.enabled);

    std::string json = reportJson(report);
    EXPECT_EQ(json.find("synthFidelity"), std::string::npos);

    std::ostringstream text;
    report.print(text);
    EXPECT_EQ(text.str().find("Synthesis fidelity"), std::string::npos);
}

TEST(SynthGating, FidelitySectionAppearsWhenEnabled)
{
    CharacterizationReport report = characterizeApp("is");
    SyntheticModel model = SyntheticModel::fromJson(reportJson(report));
    core::DriveResult synth =
        SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    report.synthFidelity = core::computeSynthFidelity(model, synth.log);
    report.synthFidelity.modelSource = "unit-test";

    std::string json = reportJson(report);
    EXPECT_NE(json.find("\"synthFidelity\":{"), std::string::npos);
    EXPECT_NE(json.find("\"modelSource\":\"unit-test\""),
              std::string::npos);

    std::ostringstream text;
    report.print(text);
    EXPECT_NE(text.str().find("Synthesis fidelity"), std::string::npos);
}

// --------------------------------------------------------------------
// Message-budget scaling

TEST(SynthScale, MessageBudgetIsExact)
{
    // The model `cchar characterize cholesky --json --phases` writes.
    core::PipelineOptions popts;
    popts.detectPhases = true;
    ccnuma::MachineConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 4;
    auto app = apps::makeSharedMemoryApp("cholesky");
    ASSERT_NE(app, nullptr);
    SyntheticModel model = SyntheticModel::fromJson(reportJson(
        core::CharacterizationPipeline{popts}.runDynamic(*app, cfg)));

    // Rounding each source's quota on its own misses this budget.
    EXPECT_EQ(model.scaleTo(64, 400000).totalMessages(), 400000u);

    // Where per-source rounding already meets the budget, the split is
    // that rounding, source for source.
    SyntheticModel scaled = model.scaleTo(64, 250000);
    EXPECT_EQ(scaled.totalMessages(), 250000u);
    const std::size_t n = model.sources.size();
    ASSERT_EQ(scaled.sources.size(), 4 * n);
    const double scale =
        250000.0 / (static_cast<double>(model.totalMessages()) * 4.0);
    for (std::size_t i = 0; i < scaled.sources.size(); ++i) {
        EXPECT_EQ(scaled.sources[i].messageCount,
                  static_cast<std::size_t>(std::llround(
                      static_cast<double>(model.sources[i % n].messageCount) *
                      scale)))
            << "source " << i;
    }
}

// --------------------------------------------------------------------
// The legacy --synthetic validation path rides on the same generator

TEST(SynthLegacy, ValidationNumbersArePinned)
{
    // Frozen golden of the retired `characterize is --synthetic` line
    // ("latency original 0.4385us, synthetic 0.6283us").
    core::ValidationResult v = core::validateModel(characterizeApp("is"));
    std::ostringstream os;
    os.precision(4); // as the report text had left the CLI's stdout
    os << "latency original " << v.originalLatencyMean << "us, synthetic "
       << v.syntheticLatencyMean << "us";
    EXPECT_EQ(os.str(), "latency original 0.4385us, synthetic 0.6283us");
}

TEST(SynthLegacy, ValidateModelMatchesDirectGeneration)
{
    CharacterizationReport report = characterizeApp("is");
    core::ValidationResult v = core::validateModel(report);

    SyntheticModel model = SyntheticModel::fromReport(report);
    core::DriveResult direct =
        SyntheticTrafficGenerator::run(model, SynthRunOptions{});
    EXPECT_DOUBLE_EQ(v.syntheticLatencyMean, direct.latencyMean);
    EXPECT_DOUBLE_EQ(v.originalLatencyMean, report.network.latencyMean);
}

} // namespace
