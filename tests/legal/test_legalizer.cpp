#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/placer.hpp"
#include "freq/assigner.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "pipeline/flow.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

Netlist
placedNetlist(int rows, int cols, bool freq_force = true)
{
    const Topology topo = makeGrid(rows, cols);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs);
    PlacerParams params;
    params.freqForce = freq_force;
    GlobalPlacer(params).place(nl);
    return nl;
}

/** The legalized layout of the default Qplacer flow on @p spec. */
Netlist
flowLayout(const std::string &spec)
{
    Topology topo;
    std::string error;
    EXPECT_TRUE(resolveTopologySpec(spec, topo, &error)) << error;
    FlowResult result = QplacerFlow(FlowParams{}).run(topo);
    EXPECT_TRUE(result.status.ok()) << result.status.message;
    return std::move(result.netlist);
}

/** O(n^2) scan: pairs whose padded footprints overlap by > tol on both axes. */
std::vector<std::pair<int, int>>
overlappingPairs(const Netlist &nl, double tol_um = 1.0)
{
    const auto &instances = nl.instances();
    std::vector<std::pair<int, int>> pairs;
    for (std::size_t a = 0; a < instances.size(); ++a) {
        for (std::size_t b = a + 1; b < instances.size(); ++b) {
            const Rect overlap = instances[a].paddedRect().intersect(
                instances[b].paddedRect());
            if (!overlap.empty() && overlap.width() > tol_um &&
                overlap.height() > tol_um)
                pairs.emplace_back(static_cast<int>(a), static_cast<int>(b));
        }
    }
    return pairs;
}

/** The isLegal oracle: every footprint in region, no overlapping pair. */
bool
pairwiseLegal(const Netlist &nl, double tol_um = 1.0)
{
    const Rect region = nl.region().inflated(tol_um);
    for (const Instance &inst : nl.instances())
        if (!region.containsRect(inst.paddedRect()))
            return false;
    return overlappingPairs(nl, tol_um).empty();
}

TEST(Legalizer, ProducesLegalLayout)
{
    Netlist nl = placedNetlist(4, 4);
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
}

TEST(Legalizer, FullPassLegalizesTheWarmStart)
{
    // The whole legalization stack (spiral + flow refine + Tetris +
    // integration) straight from the builder's warm start, where the
    // segment chains pile up on the coupler lines.
    const Topology topo = makeGrid(8, 8);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs);
    const Rect sized = nl.region();

    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
    EXPECT_EQ(nl.region().lo, sized.lo);
    EXPECT_EQ(nl.region().hi, sized.hi);
}

TEST(Legalizer, ScopedPassDemotesAStaleFixedQubit)
{
    // The scoped pass with fixed obstacles: start from a legal layout,
    // hold every even instance fixed, jitter the odd ones, and leave
    // one fixed qubit on a stale site overlapping another fixed qubit,
    // so the demotion restart runs.
    const Topology topo = makeGrid(6, 6);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist built = NetlistBuilder().build(topo, freqs);
    Legalizer().legalize(built);
    ASSERT_TRUE(Legalizer::isLegal(built));

    Rng rng(2024);
    std::vector<int> movable;
    for (int i = 1; i < built.numInstances(); i += 2) {
        movable.push_back(i);
        Vec2 &pos = built.instance(i).pos;
        pos.x += rng.uniform(-600.0, 600.0);
        pos.y += rng.uniform(-600.0, 600.0);
    }
    const Vec2 fixed_a = built.instance(0).pos;
    built.instance(2).pos = Vec2(fixed_a.x + 100.0, fixed_a.y);
    ASSERT_FALSE(Legalizer::isLegal(built));

    Netlist nl = built;
    const LegalizeResult result = Legalizer().legalizeScoped(nl, movable);
    EXPECT_TRUE(result.legal);
    EXPECT_FALSE(result.cancelled);
    EXPECT_TRUE(Legalizer::isLegal(nl));
    EXPECT_FALSE(nl.instance(2).pos == built.instance(2).pos)
        << "the stale fixed qubit was not demoted";
    EXPECT_EQ(nl.region().lo, built.region().lo);
    EXPECT_EQ(nl.region().hi, built.region().hi);
}

TEST(Legalizer, AllInstancesOnCellLattice)
{
    Netlist nl = placedNetlist(3, 3);
    Legalizer().legalize(nl);
    for (const Instance &inst : nl.instances()) {
        const Rect fp = inst.paddedRect();
        const double fx = std::fmod(fp.lo.x - nl.region().lo.x, 100.0);
        const double fy = std::fmod(fp.lo.y - nl.region().lo.y, 100.0);
        EXPECT_NEAR(std::min(fx, 100.0 - fx), 0.0, 1e-6);
        EXPECT_NEAR(std::min(fy, 100.0 - fy), 0.0, 1e-6);
    }
}

TEST(Legalizer, DisplacementIsBounded)
{
    Netlist nl = placedNetlist(3, 3);
    const LegalizeResult result = Legalizer().legalize(nl);
    // Average displacement per instance stays within a few footprints.
    const double avg =
        (result.qubitDisplacementUm + result.segmentDisplacementUm) /
        nl.numInstances();
    EXPECT_LT(avg, 2500.0);
}

TEST(Legalizer, MostResonatorsIntegrated)
{
    Netlist nl = placedNetlist(4, 4);
    const LegalizeResult result = Legalizer().legalize(nl);
    const int total = static_cast<int>(nl.resonators().size());
    EXPECT_LE(result.integration.unintegrated, total / 5);
}

TEST(Legalizer, IsLegalDetectsOverlap)
{
    Netlist nl = placedNetlist(3, 3);
    Legalizer().legalize(nl);
    ASSERT_TRUE(Legalizer::isLegal(nl));
    // Force an overlap.
    nl.instance(1).pos = nl.instance(0).pos;
    EXPECT_FALSE(Legalizer::isLegal(nl));
}

TEST(Legalizer, IsLegalDetectsCornerOverlap)
{
    // Two of the largest footprints (padded qubits) overlapping by
    // 80 x 80 um at a corner: their centres are further apart than
    // max_extent + tol, so a circular query around each centre misses
    // the pair.
    Netlist nl = flowLayout("Eagle");
    ASSERT_TRUE(Legalizer::isLegal(nl));
    const auto &instances = nl.instances();
    double max_extent = 0.0;
    for (const Instance &inst : instances)
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
    const Instance &mover = instances[0];
    ASSERT_EQ(mover.kind, InstanceKind::Qubit);
    ASSERT_EQ(mover.paddedWidth(), max_extent);
    ASSERT_EQ(mover.paddedHeight(), max_extent);
    const double offset = max_extent - 80.0;

    // Find an anchor qubit and a diagonal where the moved qubit stays
    // in region and overlaps the anchor and nothing else.
    const Rect region = nl.region();
    int anchor = -1;
    Vec2 target;
    for (const Instance &inst : instances) {
        if (inst.kind != InstanceKind::Qubit || inst.id == mover.id)
            continue;
        for (const Vec2 dir : {Vec2(1, 1), Vec2(1, -1), Vec2(-1, 1),
                               Vec2(-1, -1)}) {
            const Vec2 p = inst.pos + dir * offset;
            const Rect moved =
                Rect::fromCenter(p, mover.paddedWidth(), mover.paddedHeight());
            if (!region.containsRect(moved))
                continue;
            bool only_anchor = true;
            for (const Instance &other : instances) {
                if (other.id != mover.id && other.id != inst.id &&
                    moved.overlaps(other.paddedRect())) {
                    only_anchor = false;
                    break;
                }
            }
            if (only_anchor) {
                anchor = inst.id;
                target = p;
                break;
            }
        }
        if (anchor >= 0)
            break;
    }
    ASSERT_GE(anchor, 0) << "no clean corner-overlap spot found";

    nl.instance(mover.id).pos = target;
    const double dist = target.dist(nl.instance(anchor).pos);
    EXPECT_NEAR(dist, offset * std::sqrt(2.0), 1e-6);
    EXPECT_GT(dist, max_extent + 1.0);
    ASSERT_EQ(overlappingPairs(nl),
              (std::vector<std::pair<int, int>>{
                  {std::min(mover.id, anchor), std::max(mover.id, anchor)}}));
    EXPECT_FALSE(Legalizer::isLegal(nl));
}

TEST(Legalizer, IsLegalMatchesPairwiseScan)
{
    for (const std::string spec : {"Falcon", "grid8x8"}) {
        SCOPED_TRACE(spec);
        const Netlist placed = flowLayout(spec);
        ASSERT_TRUE(pairwiseLegal(placed));
        EXPECT_TRUE(Legalizer::isLegal(placed));

        // Displace one instance at a time: anywhere in the region, or
        // a short hop that often lands a corner on a neighbour.
        Rng rng(11);
        const Rect region = placed.region();
        int illegal = 0;
        for (int trial = 0; trial < 40; ++trial) {
            Netlist nl = placed;
            const auto k = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(nl.numInstances())));
            Vec2 &pos = nl.instance(k).pos;
            if (trial % 2 == 0)
                pos = Vec2(rng.uniform(region.lo.x, region.hi.x),
                           rng.uniform(region.lo.y, region.hi.y));
            else
                pos += Vec2(rng.uniform(-900, 900), rng.uniform(-900, 900));
            const bool want = pairwiseLegal(nl);
            illegal += !want;
            EXPECT_EQ(Legalizer::isLegal(nl), want) << "trial " << trial;
        }
        EXPECT_GT(illegal, 0);
    }
}

TEST(Legalizer, IsLegalDetectsOutOfRegion)
{
    Netlist nl = placedNetlist(3, 3);
    Legalizer().legalize(nl);
    nl.instance(0).pos = Vec2(-5000, -5000);
    EXPECT_FALSE(Legalizer::isLegal(nl));
}

TEST(Legalizer, ExpandsRegionWhenTooTight)
{
    const Topology topo = makeGrid(3, 3);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs, 0.95); // very tight
    GlobalPlacer().place(nl);
    const double before = nl.region().area();
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    EXPECT_GE(nl.region().area(), before); // may have grown
}

TEST(Legalizer, RetryGrowsRegionInEightPercentSteps)
{
    // Falcon sized at 95% utilization does not fit its sized region:
    // the retry loop grows it (8%, then 16%) until the pass succeeds.
    const Topology topo = makeFalcon();
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs, 0.95);
    PlacerParams params;
    params.threads = 1;
    GlobalPlacer(params).place(nl);
    const Rect sized = nl.region();

    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));

    const Rect grown = nl.region();
    EXPECT_EQ(grown.lo.x, sized.lo.x);
    EXPECT_EQ(grown.lo.y, sized.lo.y);
    int steps = 0;
    for (int k = 1; k <= 3; ++k) {
        const double grow = 1.0 + 0.08 * static_cast<double>(k);
        if (grown.hi.x == sized.lo.x + sized.width() * grow &&
            grown.hi.y == sized.lo.y + sized.height() * grow) {
            steps = k;
        }
    }
    EXPECT_GE(steps, 1) << "region " << grown.width() << " x "
                        << grown.height() << " is not the sized "
                        << sized.width() << " x " << sized.height()
                        << " grown by a whole number of 8% steps";
}

TEST(Legalizer, PreCancelledTokenLeavesLayoutUntouched)
{
    const Netlist placed = placedNetlist(3, 3);
    CancelToken token;
    token.cancel();

    Netlist full = placed;
    const LegalizeResult full_result = Legalizer().legalize(full, &token);
    EXPECT_TRUE(full_result.cancelled);
    EXPECT_TRUE(bitwiseSameLayout(full, placed));
    EXPECT_EQ(full.region().lo, placed.region().lo);
    EXPECT_EQ(full.region().hi, placed.region().hi);

    Netlist scoped = placed;
    const LegalizeResult scoped_result =
        Legalizer().legalizeScoped(scoped, {0, 1, 2}, &token);
    EXPECT_TRUE(scoped_result.cancelled);
    EXPECT_TRUE(bitwiseSameLayout(scoped, placed));
    EXPECT_EQ(scoped.region().lo, placed.region().lo);
    EXPECT_EQ(scoped.region().hi, placed.region().hi);
}

TEST(Legalizer, ClassicModeSkipsResonanceChecks)
{
    Netlist nl = placedNetlist(4, 4, /*freq_force=*/false);
    LegalizerParams params;
    params.integrationParams.resonanceCheck = false;
    const LegalizeResult result = Legalizer(params).legalize(nl);
    EXPECT_TRUE(result.legal);
}

} // namespace
} // namespace qplacer
