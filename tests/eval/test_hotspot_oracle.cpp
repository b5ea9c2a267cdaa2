/**
 * @file
 * analyzeHotspots against an O(n^2) recount: the same predicate
 * (isHotspotPair) and reach (centres at most max_extent +
 * adjacencyTolUm apart), every pair a < b in ascending order, every
 * HotspotPair field compared bit for bit. Runs on flow layouts with
 * few pairs (Qplacer mode) and with thousands (grid16x16 Classic).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>

#include "eval/hotspot.hpp"
#include "pipeline/flow.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<HotspotPair>
recountPairs(const Netlist &netlist, const HotspotParams &params)
{
    const auto &instances = netlist.instances();
    double max_extent = 0.0;
    for (const Instance &inst : instances)
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
    const double reach = max_extent + params.adjacencyTolUm;
    const double half_tol = params.adjacencyTolUm / 2.0;

    std::vector<HotspotPair> pairs;
    for (std::size_t a = 0; a < instances.size(); ++a) {
        for (std::size_t b = a + 1; b < instances.size(); ++b) {
            const Instance &ia = instances[a];
            const Instance &ib = instances[b];
            double gap = 0.0;
            if ((ib.pos - ia.pos).normSq() > reach * reach ||
                !isHotspotPair(ia, ib, params, gap))
                continue;
            HotspotPair pair;
            pair.a = ia.id;
            pair.b = ib.id;
            pair.gapUm = gap;
            pair.distUm = ia.pos.dist(ib.pos);
            pair.overlapLenUm =
                ia.paddedRect().inflated(half_tol).overlapLength(
                    ib.paddedRect().inflated(half_tol));
            pairs.push_back(pair);
        }
    }
    return pairs;
}

struct Case
{
    std::string spec;
    PlacerMode mode;
    std::uint64_t seed;
};

std::ostream &
operator<<(std::ostream &os, const Case &c)
{
    return os << c.spec << " " << placerModeName(c.mode) << " seed "
              << c.seed;
}

class HotspotRecount : public ::testing::TestWithParam<Case>
{};

TEST_P(HotspotRecount, AnalyzerMatchesPairwiseScan)
{
    const Case &c = GetParam();
    Topology topo;
    std::string error;
    ASSERT_TRUE(resolveTopologySpec(c.spec, topo, &error)) << error;
    FlowParams params;
    params.mode = c.mode;
    params.placer.seed = c.seed;
    const FlowResult result = QplacerFlow(params).run(topo);
    ASSERT_TRUE(result.status.ok()) << result.status.message;

    const HotspotReport report =
        analyzeHotspots(result.netlist, params.hotspot);
    const std::vector<HotspotPair> want =
        recountPairs(result.netlist, params.hotspot);
    if (c.mode == PlacerMode::Classic) {
        // Dense enough to stress the scan (1,000 pairs today).
        EXPECT_GT(want.size(), 500u);
    }
    ASSERT_EQ(report.pairs.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
        SCOPED_TRACE("pair " + std::to_string(p));
        const HotspotPair &got = report.pairs[p];
        EXPECT_EQ(got.a, want[p].a);
        EXPECT_EQ(got.b, want[p].b);
        EXPECT_TRUE(sameBits(got.gapUm, want[p].gapUm));
        EXPECT_TRUE(sameBits(got.distUm, want[p].distUm));
        EXPECT_TRUE(sameBits(got.overlapLenUm, want[p].overlapLenUm));
    }
    EXPECT_TRUE(sameBits(report.phPercent, result.hotspots.phPercent));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, HotspotRecount,
    ::testing::Values(Case{"Falcon", PlacerMode::Qplacer, 1},
                      Case{"Falcon", PlacerMode::Qplacer, 2},
                      Case{"Eagle", PlacerMode::Qplacer, 1},
                      Case{"Eagle", PlacerMode::Qplacer, 2},
                      Case{"grid8x8", PlacerMode::Qplacer, 1},
                      Case{"grid8x8", PlacerMode::Qplacer, 2},
                      Case{"Aspen-M", PlacerMode::Qplacer, 1},
                      Case{"Aspen-M", PlacerMode::Qplacer, 2},
                      Case{"grid16x16", PlacerMode::Classic, 1}),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string name = info.param.spec + "_" +
                           placerModeName(info.param.mode) + "_seed" +
                           std::to_string(info.param.seed);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

} // namespace
} // namespace qplacer
