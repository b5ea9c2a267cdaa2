/**
 * @file
 * Single-die equivalence contract: a "@dies=1x1" suffix (with any cut
 * gap) must reproduce the plain single-die flow bitwise. The multi-die code paths gate on
 * DieSpec::active(), so an inactive spec may not perturb one bit of
 * the layout.
 */

#include <gtest/gtest.h>

#include <string>

#include "pipeline/flow.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

FlowResult
runFlow(const std::string &spec)
{
    Topology topo;
    std::string error;
    if (!resolveTopologySpec(spec, topo, &error))
        ADD_FAILURE() << spec << ": " << error;

    FlowParams params;
    params.mode = PlacerMode::Qplacer;
    params.partition.segmentUm = 300.0;
    params.placer.seed = 1;
    params.placer.threads = 1;
    return QplacerFlow(params).run(topo);
}

TEST(MultidieGolden, SingleDieSuffixIsBitwiseIdentical)
{
    const FlowResult plain = runFlow("grid6x6");
    const FlowResult suffixed = runFlow("grid6x6@dies=1x1");
    ASSERT_TRUE(plain.status.ok());
    ASSERT_TRUE(suffixed.status.ok());
    EXPECT_TRUE(bitwiseSameNetlist(plain.netlist, suffixed.netlist));
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, suffixed.netlist));
    EXPECT_FALSE(suffixed.multidie.active);
}

TEST(MultidieGolden, CutGapOptionIsInertOnSingleDie)
{
    const FlowResult plain = runFlow("grid6x6");
    const FlowResult gapped = runFlow("grid6x6@dies=1x1:cutGapUm=500");
    ASSERT_TRUE(plain.status.ok());
    ASSERT_TRUE(gapped.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, gapped.netlist));
}

TEST(MultidieGolden, MultiDieRunIsDeterministic)
{
    const FlowResult a = runFlow("grid6x6@dies=2x1");
    const FlowResult b = runFlow("grid6x6@dies=2x1");
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(bitwiseSameNetlist(a.netlist, b.netlist));
    EXPECT_TRUE(bitwiseSameLayout(a.netlist, b.netlist));
    EXPECT_TRUE(a.multidie.active);
    EXPECT_EQ(a.multidie.crossingCouplers, b.multidie.crossingCouplers);
}

} // namespace
} // namespace qplacer
