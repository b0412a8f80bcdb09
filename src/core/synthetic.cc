#include "synthetic.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "desim/desim.hh"
#include "jsonscan.hh"

namespace cchar::core {

namespace {

/**
 * Fill gapScale for every phase: the ratio of the run's mean injection
 * rate to the phase's own rate. Degenerate rates (zero, negative,
 * non-finite) leave the phase neutral at 1.0.
 */
void
computePhaseGapScales(std::vector<SyntheticModel::PhaseModel> &phases)
{
    if (phases.empty())
        return;
    double total = 0.0;
    for (const auto &ph : phases)
        total += static_cast<double>(ph.messageCount);
    double span = phases.back().tEnd - phases.front().tBegin;
    double globalRate = span > 0.0 ? total / span : 0.0;
    for (auto &ph : phases) {
        ph.gapScale = 1.0;
        if (globalRate > 0.0 && ph.injectionRate > 0.0 &&
            std::isfinite(ph.injectionRate)) {
            double s = globalRate / ph.injectionRate;
            if (std::isfinite(s) && s > 0.0)
                ph.gapScale = s;
        }
    }
}

} // namespace

SyntheticModel
SyntheticModel::fromReport(const CharacterizationReport &report)
{
    SyntheticModel model;
    model.mesh = report.mesh;
    model.nprocs = report.nprocs;
    model.application = report.application;
    model.lengthPmf = report.volume.lengthPmf;

    // Index per-source temporal fits.
    std::vector<const TemporalFit *> bySource(
        static_cast<std::size_t>(report.nprocs), nullptr);
    for (const auto &fit : report.temporalPerSource) {
        if (fit.source >= 0 && fit.source < report.nprocs)
            bySource[static_cast<std::size_t>(fit.source)] = &fit;
    }

    for (const auto &spatial : report.spatialPerSource) {
        int src = spatial.source;
        auto count = static_cast<std::size_t>(
            report.volume.perSourceCounts[static_cast<std::size_t>(src)]);
        if (count == 0)
            continue;
        SourceModel sm;
        sm.source = src;
        sm.messageCount = count;
        const TemporalFit *tf = bySource[static_cast<std::size_t>(src)];
        const stats::FitResult &fit =
            (tf && tf->fit.dist) ? tf->fit : report.temporalAggregate.fit;
        if (!fit.dist)
            continue; // no usable temporal model for this source
        sm.interArrival = fit.dist->clone();
        sm.destination = spatial.classification.model;
        model.sources.push_back(std::move(sm));
    }

    for (const auto &ph : report.phases) {
        PhaseModel pm;
        pm.index = ph.index;
        pm.tBegin = ph.tBegin;
        pm.tEnd = ph.tEnd;
        pm.messageCount = ph.messageCount;
        pm.injectionRate = ph.injectionRate;
        model.phases.push_back(pm);
    }
    computePhaseGapScales(model.phases);
    return model;
}

// ---------------------------------------------------------------
// Characterization-JSON model loader.

namespace {

/** Guard against hostile "[[[[..." documents blowing the stack. */
constexpr int kMaxJsonDepth = 64;

/** Largest mesh a loaded model may describe (fuzz OOM guard). */
constexpr int kMaxModelNodes = 1 << 20;

/** Per-source message-count ceiling (keeps arithmetic sane). */
constexpr double kMaxSourceMessages = 1e15;

void
skipValue(JsonScanner &s, int depth)
{
    if (depth > kMaxJsonDepth)
        s.fail("JSON nested too deeply");
    char c = s.peek();
    if (c == '{') {
        s.expect('{');
        if (s.consumeIf('}'))
            return;
        do {
            s.readString();
            s.expect(':');
            skipValue(s, depth + 1);
        } while (s.consumeIf(','));
        s.expect('}');
    } else if (c == '[') {
        s.expect('[');
        if (s.consumeIf(']'))
            return;
        do {
            skipValue(s, depth + 1);
        } while (s.consumeIf(','));
        s.expect(']');
    } else if (c == '"') {
        s.readString();
    } else if (c == 't' || c == 'f') {
        s.readBool();
    } else {
        s.readNumber();
    }
}

/** {"key": value, ...}; onKey consumes each value. */
template <typename F>
void
parseObject(JsonScanner &s, F &&onKey)
{
    s.expect('{');
    if (s.consumeIf('}'))
        return;
    do {
        std::string key = s.readString();
        s.expect(':');
        onKey(key);
    } while (s.consumeIf(','));
    s.expect('}');
}

/** [value, ...]; onItem consumes each element. */
template <typename F>
void
parseArray(JsonScanner &s, F &&onItem)
{
    s.expect('[');
    if (s.consumeIf(']'))
        return;
    do {
        onItem();
    } while (s.consumeIf(','));
    s.expect(']');
}

double
readFinite(JsonScanner &s, const char *field)
{
    double v = s.readNumber();
    if (!std::isfinite(v))
        s.fail(std::string{field} + " must be finite");
    return v;
}

int
readIntField(JsonScanner &s, const char *field)
{
    double v = readFinite(s, field);
    if (v != std::floor(v) || v < -2147483648.0 || v > 2147483647.0)
        s.fail(std::string{field} + " must be an integer");
    return static_cast<int>(v);
}

/** One parsed temporal-fit JSON object (family absent = no fit). */
struct TemporalJson
{
    int source = -1;
    std::string family;
    int stages = 0;
    std::vector<double> params;
    bool hasFit = false;
};

TemporalJson
parseTemporalFit(JsonScanner &s, const char *where)
{
    TemporalJson t;
    parseObject(s, [&](const std::string &key) {
        if (key == "source") {
            t.source = readIntField(s, "temporal source");
        } else if (key == "family") {
            t.family = s.readString();
            t.hasFit = true;
        } else if (key == "stages") {
            t.stages = readIntField(s, "temporal stages");
        } else if (key == "params") {
            parseArray(s, [&] {
                t.params.push_back(readFinite(s, "temporal param"));
            });
        } else {
            skipValue(s, 0);
        }
    });
    if (t.hasFit && t.family.empty())
        s.fail(std::string{where} + " has an empty family name");
    return t;
}

std::unique_ptr<stats::Distribution>
buildDistribution(JsonScanner &s, const TemporalJson &t,
                  const std::string &where)
{
    auto dist = stats::distributionFromName(t.family, t.params, t.stages);
    if (!dist) {
        std::ostringstream msg;
        msg << where << ": family '" << t.family << "' with "
            << t.params.size() << " params";
        if (t.family == "erlang")
            msg << " and stages=" << t.stages;
        msg << " is not a valid model";
        s.fail(msg.str());
    }
    return dist;
}

/** One parsed spatial.perSource entry. */
struct SpatialJson
{
    int source = -1;
    std::vector<double> pmf;
};

} // namespace

SyntheticModel
SyntheticModel::fromJson(const std::string &text)
{
    JsonScanner s{text, "synth model"};

    SyntheticModel model;
    TemporalJson aggregate;
    std::vector<TemporalJson> perSource;
    std::vector<SpatialJson> spatial;
    std::vector<double> perSourceCounts;
    bool sawMesh = false, sawTemporal = false, sawSpatial = false;
    bool sawVolume = false, sawCounts = false;
    std::string topology = "mesh";
    int vcs = 1;

    parseObject(s, [&](const std::string &key) {
        if (key == "application") {
            model.application = s.readString();
        } else if (key == "nprocs") {
            model.nprocs = readIntField(s, "nprocs");
        } else if (key == "mesh") {
            sawMesh = true;
            parseObject(s, [&](const std::string &mk) {
                if (mk == "width")
                    model.mesh.width = readIntField(s, "mesh.width");
                else if (mk == "height")
                    model.mesh.height = readIntField(s, "mesh.height");
                else if (mk == "topology")
                    topology = s.readString();
                else if (mk == "vcs")
                    vcs = readIntField(s, "mesh.vcs");
                else
                    skipValue(s, 0);
            });
        } else if (key == "temporal") {
            sawTemporal = true;
            parseObject(s, [&](const std::string &tk) {
                if (tk == "aggregate") {
                    aggregate = parseTemporalFit(s, "temporal.aggregate");
                } else if (tk == "perSource") {
                    parseArray(s, [&] {
                        perSource.push_back(parseTemporalFit(
                            s, "temporal.perSource entry"));
                    });
                } else {
                    skipValue(s, 0);
                }
            });
        } else if (key == "spatial") {
            sawSpatial = true;
            parseObject(s, [&](const std::string &sk) {
                if (sk == "perSource") {
                    parseArray(s, [&] {
                        SpatialJson sj;
                        parseObject(s, [&](const std::string &pk) {
                            if (pk == "source") {
                                sj.source = readIntField(
                                    s, "spatial.perSource source");
                            } else if (pk == "pmf") {
                                parseArray(s, [&] {
                                    double p = readFinite(
                                        s, "spatial.perSource pmf entry");
                                    if (p < 0.0)
                                        s.fail("spatial.perSource pmf "
                                               "entry must be >= 0");
                                    sj.pmf.push_back(p);
                                });
                            } else {
                                skipValue(s, 0);
                            }
                        });
                        spatial.push_back(std::move(sj));
                    });
                } else {
                    skipValue(s, 0);
                }
            });
        } else if (key == "volume") {
            sawVolume = true;
            parseObject(s, [&](const std::string &vk) {
                if (vk == "lengthPmf") {
                    parseArray(s, [&] {
                        int bytes = 0;
                        double p = 0.0;
                        parseObject(s, [&](const std::string &lk) {
                            if (lk == "bytes")
                                bytes = readIntField(
                                    s, "volume.lengthPmf bytes");
                            else if (lk == "p")
                                p = readFinite(s, "volume.lengthPmf p");
                            else
                                skipValue(s, 0);
                        });
                        if (bytes < 0)
                            s.fail("volume.lengthPmf bytes must be "
                                   ">= 0");
                        if (p < 0.0)
                            s.fail("volume.lengthPmf p must be >= 0");
                        model.lengthPmf.emplace_back(bytes, p);
                    });
                } else if (vk == "perSourceCounts") {
                    sawCounts = true;
                    parseArray(s, [&] {
                        double c = readFinite(
                            s, "volume.perSourceCounts entry");
                        if (c < 0.0 || c > kMaxSourceMessages)
                            s.fail("volume.perSourceCounts entry out "
                                   "of range");
                        perSourceCounts.push_back(c);
                    });
                } else {
                    skipValue(s, 0);
                }
            });
        } else if (key == "phases") {
            parseArray(s, [&] {
                PhaseModel pm;
                parseObject(s, [&](const std::string &pk) {
                    if (pk == "index") {
                        pm.index = readIntField(s, "phase index");
                    } else if (pk == "tBegin") {
                        pm.tBegin = readFinite(s, "phase tBegin");
                    } else if (pk == "tEnd") {
                        pm.tEnd = readFinite(s, "phase tEnd");
                    } else if (pk == "messages") {
                        double m = readFinite(s, "phase messages");
                        if (m < 0.0 || m > kMaxSourceMessages)
                            s.fail("phase messages out of range");
                        pm.messageCount =
                            static_cast<std::size_t>(m);
                    } else if (pk == "injectionRate") {
                        pm.injectionRate =
                            readFinite(s, "phase injectionRate");
                    } else {
                        skipValue(s, 0);
                    }
                });
                if (pm.tEnd < pm.tBegin)
                    s.fail("phase tEnd must be >= tBegin");
                model.phases.push_back(pm);
            });
        } else {
            skipValue(s, 0);
        }
    });
    if (!s.atEnd())
        s.fail("trailing content after JSON document");

    // Structural validation with named fields.
    if (model.nprocs < 1)
        s.fail("nprocs must be >= 1");
    if (!sawMesh)
        s.fail("mesh object is missing");
    if (model.mesh.width < 1 || model.mesh.height < 1)
        s.fail("mesh.width and mesh.height must be >= 1");
    if (model.mesh.nodes() > kMaxModelNodes)
        s.fail("mesh describes more than 2^20 nodes");
    if (model.nprocs > model.mesh.nodes())
        s.fail("nprocs exceeds the mesh node count");
    if (topology == "torus")
        model.mesh.topology = mesh::Topology::Torus;
    else if (topology == "mesh")
        model.mesh.topology = mesh::Topology::Mesh;
    else
        s.fail("mesh.topology must be \"mesh\" or \"torus\"");
    if (vcs < 1 || vcs > 16)
        s.fail("mesh.vcs out of range [1, 16]");
    model.mesh.virtualChannels =
        model.mesh.topology == mesh::Topology::Torus
            ? std::max(vcs, 2)
            : vcs;
    if (!sawTemporal)
        s.fail("temporal object is missing");
    if (!sawSpatial)
        s.fail("spatial object is missing");
    if (!sawVolume)
        s.fail("volume object is missing");
    if (!sawCounts)
        s.fail("volume.perSourceCounts is missing (regenerate the "
               "report with a build that emits it)");

    // Assemble the per-source models.
    std::unique_ptr<stats::Distribution> aggDist;
    if (aggregate.hasFit)
        aggDist = buildDistribution(s, aggregate, "temporal.aggregate");
    std::vector<const TemporalJson *> bySource(
        static_cast<std::size_t>(model.nprocs), nullptr);
    for (const auto &t : perSource) {
        if (t.source < 0 || t.source >= model.nprocs)
            s.fail("temporal.perSource source out of range");
        bySource[static_cast<std::size_t>(t.source)] = &t;
    }
    for (const auto &sj : spatial) {
        if (sj.source < 0 || sj.source >= model.nprocs)
            s.fail("spatial.perSource source out of range");
        double count =
            sj.source < static_cast<int>(perSourceCounts.size())
                ? perSourceCounts[static_cast<std::size_t>(sj.source)]
                : 0.0;
        if (count < 1.0)
            continue;
        double mass = 0.0;
        for (double p : sj.pmf)
            mass += p;
        if (mass <= 0.0)
            s.fail("spatial.perSource pmf of source " +
                   std::to_string(sj.source) + " has no mass");
        SourceModel sm;
        sm.source = sj.source;
        sm.messageCount = static_cast<std::size_t>(count);
        const TemporalJson *tf =
            bySource[static_cast<std::size_t>(sj.source)];
        if (tf && tf->hasFit) {
            sm.interArrival = buildDistribution(
                s, *tf,
                "temporal.perSource[" + std::to_string(sj.source) + "]");
        } else if (aggDist) {
            sm.interArrival = aggDist->clone();
        } else {
            continue; // no usable temporal model for this source
        }
        sm.destination = stats::DiscretePmf{sj.pmf};
        model.sources.push_back(std::move(sm));
    }
    if (model.sources.empty())
        s.fail("no source has both traffic and a usable temporal fit");

    computePhaseGapScales(model.phases);
    return model;
}

SyntheticModel
SyntheticModel::fromJsonFile(const std::string &path)
{
    std::ifstream in{path, std::ios::binary};
    if (!in)
        throw CCharError(StatusCode::IoError,
                         "synth model: cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJson(buf.str());
}

std::size_t
SyntheticModel::totalMessages() const
{
    std::size_t total = 0;
    for (const auto &sm : sources)
        total += sm.messageCount;
    return total;
}

SyntheticModel
SyntheticModel::clone() const
{
    SyntheticModel out;
    out.mesh = mesh;
    out.nprocs = nprocs;
    out.application = application;
    out.phases = phases;
    out.lengthPmf = lengthPmf;
    out.sources.reserve(sources.size());
    for (const auto &sm : sources) {
        SourceModel c;
        c.source = sm.source;
        c.interArrival = sm.interArrival->clone();
        c.destination = sm.destination;
        c.messageCount = sm.messageCount;
        out.sources.push_back(std::move(c));
    }
    return out;
}

SyntheticModel
SyntheticModel::scaleTo(int target_procs,
                        std::size_t target_messages) const
{
    int nodes = mesh.nodes();
    int tiles = 1;
    if (target_procs > 0) {
        if (target_procs % nodes != 0)
            throw CCharError(
                StatusCode::UsageError,
                "synth: --scale-procs must be a positive multiple of "
                "the model's " +
                    std::to_string(nodes) + " nodes");
        tiles = target_procs / nodes;
    }
    // Near-square tile grid: the largest ty <= sqrt(tiles) dividing it.
    int ty = 1;
    for (int d = 1; d * d <= tiles; ++d)
        if (tiles % d == 0)
            ty = d;
    int tx = tiles / ty;

    SyntheticModel out;
    out.mesh = mesh;
    out.mesh.width = mesh.width * tx;
    out.mesh.height = mesh.height * ty;
    out.nprocs = target_procs > 0 ? target_procs : nprocs;
    out.application = application;
    out.phases = phases;
    out.lengthPmf = lengthPmf;

    double total = static_cast<double>(totalMessages());
    double scale = 1.0;
    if (target_messages > 0 && total > 0.0)
        scale = static_cast<double>(target_messages) /
                (total * static_cast<double>(tiles));

    const int w = mesh.width, h = mesh.height;
    const int wScaled = out.mesh.width;
    out.sources.reserve(sources.size() *
                        static_cast<std::size_t>(tiles));
    for (int tj = 0; tj < ty; ++tj) {
        for (int ti = 0; ti < tx; ++ti) {
            for (const auto &sm : sources) {
                int x = sm.source % w, y = sm.source / w;
                SourceModel c;
                c.source = (y + h * tj) * wScaled + (x + w * ti);
                c.interArrival = sm.interArrival->clone();
                c.messageCount = sm.messageCount;
                // Remap the destination PMF into this clone's own
                // tile: relative geometry (and thus hop distances on
                // the mesh) is preserved exactly.
                std::vector<double> weights(
                    static_cast<std::size_t>(out.mesh.nodes()), 0.0);
                const auto &p = sm.destination.probabilities();
                for (std::size_t d = 0;
                     d < p.size() &&
                     d < static_cast<std::size_t>(nodes);
                     ++d) {
                    if (p[d] <= 0.0)
                        continue;
                    int dx = static_cast<int>(d) % w;
                    int dy = static_cast<int>(d) / w;
                    weights[static_cast<std::size_t>(
                        (dy + h * tj) * wScaled + (dx + w * ti))] =
                        p[d];
                }
                c.destination = stats::DiscretePmf{std::move(weights)};
                out.sources.push_back(std::move(c));
            }
        }
    }
    if (scale == 1.0)
        return out;

    // Largest remainder: floor every quota, then hand the messages
    // still missing from the budget to the largest fractional parts.
    std::vector<double> fraction(out.sources.size());
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < out.sources.size(); ++i) {
        double quota =
            static_cast<double>(out.sources[i].messageCount) * scale;
        double whole = std::floor(quota);
        fraction[i] = quota - whole;
        out.sources[i].messageCount = static_cast<std::size_t>(whole);
        assigned += out.sources[i].messageCount;
    }
    std::vector<std::size_t> order(out.sources.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&fraction](std::size_t a, std::size_t b) {
                         return fraction[a] > fraction[b];
                     });
    for (std::size_t k = 0; k < order.size() && assigned < target_messages;
         ++k, ++assigned)
        ++out.sources[order[k]].messageCount;
    return out;
}

// ---------------------------------------------------------------
// Generation.

namespace {

/** Shared per-run generation state (outlives every coroutine). */
struct GenContext
{
    const SyntheticModel *model = nullptr;
    stats::DiscreteSampler length;
    bool usePhases = false;
};

double
gapScaleAt(const std::vector<SyntheticModel::PhaseModel> &phases,
           double t)
{
    auto it = std::upper_bound(
        phases.begin(), phases.end(), t,
        [](double tv, const SyntheticModel::PhaseModel &ph) {
            return tv < ph.tBegin;
        });
    if (it != phases.begin())
        --it;
    return it->gapScale;
}

/** Bounded-outstanding transfer: releases its slot when drained. */
desim::Task<void>
pacedTransfer(mesh::MeshNetwork *net,
              std::shared_ptr<desim::Resource> slots, mesh::Packet pkt)
{
    (void)co_await net->transfer(std::move(pkt));
    slots->release();
}

desim::Task<void>
syntheticSource(mesh::MeshNetwork *net,
                const SyntheticModel::SourceModel *sm,
                const stats::DiscreteSampler *destination,
                const GenContext *ctx, std::uint64_t seed,
                double time_scale, int max_outstanding)
{
    stats::Rng rng{seed};
    std::shared_ptr<desim::Resource> slots;
    if (max_outstanding > 0) {
        slots = std::make_shared<desim::Resource>(
            net->sim(), max_outstanding,
            "ni-" + std::to_string(sm->source));
    }
    for (std::size_t i = 0; i < sm->messageCount; ++i) {
        double gap = sm->interArrival->sample(rng) * time_scale;
        if (ctx->usePhases)
            gap *= gapScaleAt(ctx->model->phases, net->sim().now());
        // A degenerate model (loaded rate underflow) may draw a
        // non-finite gap; clamping keeps the run terminating without
        // touching any finite-gap byte stream.
        if (!std::isfinite(gap))
            gap = 0.0;
        co_await net->sim().delay(gap);
        int dst = destination->sample(rng);
        if (dst == sm->source) {
            // Fitted models keep a structural zero at the source; a
            // numerically degenerate draw falls back to the most
            // likely other destination.
            dst = sm->destination.argmax() == sm->source
                      ? (sm->source + 1) % net->config().nodes()
                      : sm->destination.argmax();
        }
        mesh::Packet pkt;
        pkt.src = sm->source;
        pkt.dst = dst;
        pkt.bytes = ctx->length.sample(rng);
        if (slots) {
            co_await slots->acquire();
            net->sim().spawn(
                pacedTransfer(net, slots, std::move(pkt)),
                "synth-paced");
        } else {
            net->post(std::move(pkt));
        }
    }
}

desim::Task<void>
syntheticSink(mesh::MeshNetwork *net, int node)
{
    for (;;)
        (void)co_await net->rxQueue(node).receive();
}

} // namespace

DriveResult
SyntheticTrafficGenerator::run(const SyntheticModel &model,
                               const SynthRunOptions &opts)
{
    if (model.nprocs > model.mesh.nodes())
        throw std::invalid_argument("synthetic: model does not fit on "
                                    "the mesh");
    DriveResult result;
    desim::Simulator sim;
    mesh::MeshNetwork net{sim, model.mesh, &result.log};

    GenContext ctx;
    ctx.model = &model;
    ctx.usePhases = opts.usePhases && !model.phases.empty();
    ctx.length = stats::DiscreteSampler::fromLengthPmf(model.lengthPmf, 8);
    // Destination CDFs are cached once per source: at replay scale
    // (millions of messages) the per-draw linear scan of DiscretePmf
    // would dominate the run.
    std::vector<stats::DiscreteSampler> destinations;
    destinations.reserve(model.sources.size());
    for (const auto &sm : model.sources)
        destinations.push_back(
            stats::DiscreteSampler::fromPmf(sm.destination));

    for (int node = 0; node < model.mesh.nodes(); ++node)
        sim.spawn(syntheticSink(&net, node), "sink");
    for (std::size_t i = 0; i < model.sources.size(); ++i) {
        const auto &sm = model.sources[i];
        sim.spawn(syntheticSource(&net, &sm, &destinations[i], &ctx,
                                  opts.seed +
                                      static_cast<std::uint64_t>(
                                          sm.source) *
                                          7919,
                                  opts.timeScale, opts.maxOutstanding),
                  "synth-src-" + std::to_string(sm.source));
    }
    sim.run();

    result.makespan = result.log.lastDeliverTime();
    result.latencyMean = net.latencyStats().mean();
    result.latencyMax = net.latencyStats().max();
    result.contentionMean = net.contentionStats().mean();
    result.avgChannelUtilization =
        net.averageChannelUtilization(sim.now());
    result.maxChannelUtilization = net.maxChannelUtilization(sim.now());
    return result;
}

DriveResult
SyntheticTrafficGenerator::run(const SyntheticModel &model,
                               std::uint64_t seed, double time_scale,
                               int max_outstanding)
{
    SynthRunOptions opts;
    opts.seed = seed;
    opts.timeScale = time_scale;
    opts.maxOutstanding = max_outstanding;
    return run(model, opts);
}

// ---------------------------------------------------------------
// Fidelity: model vs re-observed synthetic traffic.

SynthesisFidelity
computeSynthFidelity(const SyntheticModel &model,
                     const trace::TrafficLog &log)
{
    SynthesisFidelity sf;
    sf.enabled = true;
    sf.modelApplication = model.application;
    sf.modelProcs = model.nprocs;
    sf.syntheticMessages = log.size();

    // Temporal: per-source KS of the observed inter-arrival sample
    // against the distribution that generated it (open-loop injection
    // makes the per-source gaps exactly the drawn sample), weighted by
    // sample size.
    double weightSum = 0.0, ksSum = 0.0;
    std::size_t included = 0;
    for (const auto &sm : model.sources) {
        std::vector<double> iat = log.interArrivalTimes(sm.source);
        if (iat.size() < 8)
            continue;
        stats::GoodnessOfFit gof =
            stats::DistributionFitter::evaluate(*sm.interArrival, iat);
        double w = static_cast<double>(iat.size());
        ksSum += gof.ks * w;
        weightSum += w;
        ++included;
    }
    sf.temporalSources = included;
    sf.temporalKs = weightSum > 0.0 ? ksSum / weightSum : 1.0;

    // Spatial: sup CDF distance (destination-index order) between the
    // count-weighted mixture of the per-source destination PMFs and
    // the observed aggregate destination distribution.
    std::size_t n = static_cast<std::size_t>(model.mesh.nodes());
    std::vector<double> expect(n, 0.0), observed(n, 0.0);
    double expectSum = 0.0, observedSum = 0.0;
    for (const auto &sm : model.sources) {
        const auto &p = sm.destination.probabilities();
        double count = static_cast<double>(sm.messageCount);
        for (std::size_t d = 0; d < p.size() && d < n; ++d)
            expect[d] += p[d] * count;
        expectSum += count;
    }
    for (const auto &rec : log.records()) {
        if (rec.dst >= 0 && static_cast<std::size_t>(rec.dst) < n) {
            observed[static_cast<std::size_t>(rec.dst)] += 1.0;
            observedSum += 1.0;
        }
    }
    if (expectSum > 0.0 && observedSum > 0.0) {
        double ce = 0.0, co = 0.0, sup = 0.0;
        for (std::size_t d = 0; d < n; ++d) {
            ce += expect[d] / expectSum;
            co += observed[d] / observedSum;
            sup = std::max(sup, std::fabs(ce - co));
        }
        sf.spatialKs = sup;
    }

    // Volume: sup CDF distance over the union of byte-size supports
    // between the model length PMF and the observed lengths.
    std::map<int, double> modelMass, observedMass;
    double modelSum = 0.0, lenSum = 0.0;
    for (const auto &[bytes, p] : model.lengthPmf) {
        if (p > 0.0) {
            modelMass[bytes] += p;
            modelSum += p;
        }
    }
    for (const auto &rec : log.records()) {
        observedMass[rec.bytes] += 1.0;
        lenSum += 1.0;
    }
    if (modelSum > 0.0 && lenSum > 0.0) {
        double cm = 0.0, co = 0.0, sup = 0.0;
        auto im = modelMass.begin();
        auto io = observedMass.begin();
        while (im != modelMass.end() || io != observedMass.end()) {
            int b;
            if (im == modelMass.end())
                b = io->first;
            else if (io == observedMass.end())
                b = im->first;
            else
                b = std::min(im->first, io->first);
            if (im != modelMass.end() && im->first == b) {
                cm += im->second / modelSum;
                ++im;
            }
            if (io != observedMass.end() && io->first == b) {
                co += io->second / lenSum;
                ++io;
            }
            sup = std::max(sup, std::fabs(cm - co));
        }
        sf.volumeKs = sup;
    }
    return sf;
}

ValidationResult
validateModel(const CharacterizationReport &report, std::uint64_t seed,
              int max_outstanding)
{
    SyntheticModel model = SyntheticModel::fromReport(report);
    DriveResult synth = SyntheticTrafficGenerator::run(
        model, seed, 1.0, max_outstanding);

    ValidationResult v;
    v.originalLatencyMean = report.network.latencyMean;
    v.syntheticLatencyMean = synth.latencyMean;
    v.originalContentionMean = report.network.contentionMean;
    v.syntheticContentionMean = synth.contentionMean;
    v.originalAvgUtilization = report.network.avgChannelUtilization;
    v.syntheticAvgUtilization = synth.avgChannelUtilization;
    return v;
}

} // namespace cchar::core
