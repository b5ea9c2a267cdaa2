/**
 * @file
 * Multi-die quality gate: on square grids cut into two dies, the
 * default flow (per-die legalization, no cut term in the objective)
 * must land every layout legally at the grid's minimum cut -- an
 * RxR grid split in two by a straight cut has exactly R couplers
 * across it, and no partition into two equal halves has fewer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "legal/legalizer.hpp"
#include "pipeline/flow.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

struct MinCutCase
{
    const char *spec;
    int minCut;
    PlacerMode mode;
    std::uint64_t seed;
};

void
PrintTo(const MinCutCase &c, std::ostream *os)
{
    *os << c.spec << " " << placerModeName(c.mode) << " seed " << c.seed;
}

class MinCut : public ::testing::TestWithParam<MinCutCase>
{};

TEST_P(MinCut, CrossingsEqualMinimumCut)
{
    const MinCutCase &c = GetParam();
    Topology topo;
    std::string error;
    ASSERT_TRUE(resolveTopologySpec(c.spec, topo, &error)) << error;

    FlowParams params;
    params.mode = c.mode;
    params.placer.seed = c.seed;
    params.placer.threads = 1;
    const FlowResult r = QplacerFlow(params).run(topo);

    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_TRUE(r.legal.legal);
    EXPECT_TRUE(Legalizer::isLegal(r.netlist));
    ASSERT_TRUE(r.multidie.active);
    EXPECT_EQ(r.multidie.crossingCouplers, c.minCut);
}

std::string
caseName(const ::testing::TestParamInfo<MinCutCase> &info)
{
    std::string name = info.param.spec;
    for (char &ch : name)
        if (ch == '@' || ch == '=')
            ch = '_';
    return name + "_" + placerModeName(info.param.mode) + "_seed" +
           std::to_string(info.param.seed);
}

constexpr MinCutCase kCases[] = {
    {"grid6x6@dies=2x1", 6, PlacerMode::Qplacer, 1},
    {"grid6x6@dies=2x1", 6, PlacerMode::Qplacer, 2},
    {"grid6x6@dies=2x1", 6, PlacerMode::Qplacer, 3},
    {"grid6x6@dies=2x1", 6, PlacerMode::Classic, 1},
    {"grid6x6@dies=2x1", 6, PlacerMode::Classic, 2},
    {"grid6x6@dies=2x1", 6, PlacerMode::Classic, 3},
    {"grid8x8@dies=2x1", 8, PlacerMode::Qplacer, 1},
    {"grid8x8@dies=2x1", 8, PlacerMode::Qplacer, 2},
    {"grid8x8@dies=2x1", 8, PlacerMode::Qplacer, 3},
    {"grid8x8@dies=2x1", 8, PlacerMode::Classic, 1},
    {"grid8x8@dies=2x1", 8, PlacerMode::Classic, 2},
    {"grid8x8@dies=2x1", 8, PlacerMode::Classic, 3},
    {"grid8x8@dies=1x2", 8, PlacerMode::Qplacer, 1},
    {"grid8x8@dies=1x2", 8, PlacerMode::Qplacer, 2},
    {"grid8x8@dies=1x2", 8, PlacerMode::Qplacer, 3},
    {"grid8x8@dies=1x2", 8, PlacerMode::Classic, 1},
    {"grid8x8@dies=1x2", 8, PlacerMode::Classic, 2},
    {"grid8x8@dies=1x2", 8, PlacerMode::Classic, 3},
};

INSTANTIATE_TEST_SUITE_P(Grids, MinCut, ::testing::ValuesIn(kCases),
                         caseName);

} // namespace
} // namespace qplacer
