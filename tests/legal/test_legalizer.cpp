#include <gtest/gtest.h>

#include "core/placer.hpp"
#include "freq/assigner.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"
#include "util/cancel.hpp"

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

TEST(Legalizer, ProducesLegalLayout)
{
    Netlist nl = placedNetlist(4, 4);
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
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
