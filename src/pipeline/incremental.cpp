/**
 * @file
 * The incremental re-place stages (see incremental.hpp).
 */

#include "pipeline/incremental.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/placer.hpp"
#include "legal/legalizer.hpp"
#include "pipeline/context.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qplacer {

PriorLayout
PriorLayout::capture(const Netlist &netlist)
{
    PriorLayout prior;
    prior.region = netlist.region();
    prior.numInstances = netlist.numInstances();
    for (const Instance &inst : netlist.instances()) {
        if (inst.kind == InstanceKind::Qubit) {
            prior.qubitSites[inst.qubit] = {inst.pos, inst.freqHz};
        } else if (inst.resonator >= 0) {
            const Resonator &res = netlist.resonator(inst.resonator);
            const SegmentKey key{std::min(res.qubitA, res.qubitB),
                                 std::max(res.qubitA, res.qubitB),
                                 inst.segment};
            prior.segmentSites[key] = {inst.pos, inst.freqHz};
        }
    }
    return prior;
}

namespace {

IncrementalState &
incrementalState(FlowContext &ctx)
{
    if (!ctx.incremental || !ctx.incremental->prior)
        panic("incremental stages require FlowContext::incremental "
              "with a prior layout");
    return *ctx.incremental;
}

/**
 * Maps prior legal sites onto the freshly built netlist, computes the
 * dirty closure, and prepares the warm-start positions. An unchanged
 * netlist with an empty delta short-circuits the rest of the flow by
 * reproducing the prior layout exactly.
 */
class WarmStartStage final : public FlowStage
{
  public:
    const char *name() const override { return "warm_start"; }

    void run(FlowContext &ctx) const override
    {
        IncrementalState &st = incrementalState(ctx);
        const PriorLayout &prior = *st.prior;
        Netlist &netlist = ctx.result.netlist;
        const int n = netlist.numInstances();

        st.dirty.assign(n, 0);
        st.hasAnchor.assign(n, 0);
        st.anchors.assign(n, Vec2());
        st.reusedPrior = false;

        const std::unordered_set<int> delta_qubits(
            st.delta.dirtyQubits.begin(), st.delta.dirtyQubits.end());

        int mapped = 0;
        int fresh = 0;
        int dirty_count = 0;
        for (int i = 0; i < n; ++i) {
            Instance &inst = netlist.instance(i);
            const PriorSite *site = nullptr;
            bool delta_dirty = false;
            if (inst.kind == InstanceKind::Qubit) {
                const auto it = prior.qubitSites.find(inst.qubit);
                if (it != prior.qubitSites.end())
                    site = &it->second;
                delta_dirty = delta_qubits.count(inst.qubit) > 0;
            } else if (inst.resonator >= 0) {
                const Resonator &res = netlist.resonator(inst.resonator);
                const PriorLayout::SegmentKey key{
                    std::min(res.qubitA, res.qubitB),
                    std::max(res.qubitA, res.qubitB), inst.segment};
                const auto it = prior.segmentSites.find(key);
                if (it != prior.segmentSites.end())
                    site = &it->second;
                delta_dirty = delta_qubits.count(res.qubitA) > 0 ||
                              delta_qubits.count(res.qubitB) > 0;
            }
            if (site) {
                ++mapped;
                st.hasAnchor[i] = 1;
                st.anchors[i] = site->pos;
                // A drifted frequency means the assignment changed
                // around this instance even if the caller's delta
                // missed it; re-place it rather than trust the prior.
                if (site->freqHz != inst.freqHz)
                    delta_dirty = true;
                if (!delta_dirty)
                    inst.pos = site->pos;
            } else {
                ++fresh;
            }
            st.dirty[i] = (site == nullptr || delta_dirty) ? 1 : 0;
            dirty_count += st.dirty[i];
        }

        IncrementalStats &stats = ctx.result.incremental;
        stats.incremental = true;
        stats.mappedInstances = mapped;
        stats.freshInstances = fresh;
        stats.dirtyInstances = dirty_count;

        if (dirty_count == 0 && fresh == 0 &&
            n == prior.numInstances) {
            // Nothing changed: the prior layout is already the answer.
            netlist.setRegion(prior.region);
            st.reusedPrior = true;
            stats.reusedPrior = true;
            if (ctx.logging)
                inform("incremental: empty delta, reusing prior layout");
            return;
        }

        // Fixed prior sites must stay in-region; the freshly sized
        // region can be smaller than the prior's (both are anchored at
        // the origin, so the union preserves occupancy-cell alignment).
        netlist.setRegion(netlist.region().unionWith(prior.region));

        // Jitter the dirty set exactly like a cold run seeds its
        // start (same Rng stream over instance order), so stacked
        // fresh segments split; clean instances stay put and the warm
        // place below runs jitter-free.
        Rng rng(ctx.params.placer.seed);
        const double jitter =
            ctx.params.placer.jitterFrac * netlist.region().width();
        for (int i = 0; i < n; ++i) {
            const Vec2 off(rng.gaussian(0.0, jitter),
                           rng.gaussian(0.0, jitter));
            if (st.dirty[i])
                netlist.instance(i).pos += off;
        }

        if (ctx.logging) {
            inform(str("incremental: ", mapped, " warm-started, ", fresh,
                       " fresh, ", dirty_count, " dirty of ", n,
                       " instances"));
        }
    }
};

/**
 * Short jitter-free Nesterov re-solve from the warm start. The system
 * sits near a legalized optimum, so IncrementalPlaceParams::maxIters
 * (a fraction of the cold budget) suffices; clean instances barely
 * move and later snap back to their prior sites.
 */
class WarmPlaceStage final : public FlowStage
{
  public:
    const char *name() const override { return "place"; }

    void run(FlowContext &ctx) const override
    {
        IncrementalState &st = incrementalState(ctx);
        if (st.reusedPrior)
            return;

        PlaceMonitor monitor;
        monitor.cancel = ctx.cancel;
        if (ctx.observer) {
            monitor.onIteration = [&ctx](const PlaceProgress &progress) {
                ctx.observer->onIteration(ctx, progress);
            };
        }

        PlacerParams pp = ctx.params.placer;
        pp.maxIters = std::max(1, ctx.params.incremental.maxIters);
        pp.minIters = std::min(pp.minIters, pp.maxIters);
        pp.jitterFrac = 0.0; // the warm start already broke symmetry

        const GlobalPlacer placer(pp);
        ctx.result.place =
            placer.place(ctx.result.netlist, ctx.pool, monitor);
        if (ctx.result.place.cancelled) {
            ctx.result.status = {FlowCode::Cancelled, name(),
                                 "cancelled during global placement"};
        }
    }
};

/**
 * Scoped legalization: clean instances that stayed within
 * IncrementalPlaceParams::snapToleranceUm of their prior site snap
 * back and are held fixed; everything else (dirty closure + drifters)
 * goes through Legalizer::legalizeScoped.
 */
class ScopedLegalizeStage final : public FlowStage
{
  public:
    const char *name() const override { return "legalize"; }

    void run(FlowContext &ctx) const override
    {
        IncrementalState &st = incrementalState(ctx);
        Netlist &netlist = ctx.result.netlist;
        if (st.reusedPrior) {
            ctx.result.legal.legal = Legalizer::isLegal(netlist);
            return;
        }

        const double snap = ctx.params.incremental.snapToleranceUm;
        std::vector<int> movable;
        for (int i = 0; i < netlist.numInstances(); ++i) {
            if (st.dirty[i] || !st.hasAnchor[i]) {
                movable.push_back(i);
                continue;
            }
            Instance &inst = netlist.instance(i);
            if (inst.pos.dist(st.anchors[i]) > snap)
                movable.push_back(i);
            else
                inst.pos = st.anchors[i];
        }
        ctx.result.incremental.movableInstances =
            static_cast<int>(movable.size());

        const Legalizer legalizer(ctx.params.legalizer, ctx.params.hotspot);
        ctx.result.legal =
            legalizer.legalizeScoped(netlist, movable, ctx.cancel);
        if (ctx.result.legal.cancelled) {
            ctx.result.status = {FlowCode::Cancelled, name(),
                                 "cancelled during legalization"};
        }
    }
};

} // namespace

std::vector<std::unique_ptr<FlowStage>>
makeIncrementalStages(const FlowParams &params)
{
    if (params.mode == PlacerMode::Human)
        fatal("incremental re-place supports Qplacer/Classic modes only");
    std::vector<std::unique_ptr<FlowStage>> stages;
    stages.push_back(makeAssignStage());
    stages.push_back(makeBuildStage());
    stages.push_back(std::make_unique<WarmStartStage>());
    stages.push_back(std::make_unique<WarmPlaceStage>());
    stages.push_back(std::make_unique<ScopedLegalizeStage>());
    stages.push_back(makeMetricsStage());
    return stages;
}

} // namespace qplacer
