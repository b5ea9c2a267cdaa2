/**
 * @file
 * Thread-count invariance: a layout depends only on (topology, params,
 * seed). The full flow at threads 2, 3, 4 and 8 must reproduce the
 * threads = 1 result bit for bit: positions (memcmp), iteration count,
 * final HPWL and overflow, hotspot proportion.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>

#include "pipeline/flow.hpp"
#include "topology/factory.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

FlowResult
runAt(const Topology &topo, PlacerMode mode, int threads)
{
    FlowParams params;
    params.mode = mode;
    params.placer.seed = 1;
    params.placer.threads = threads;
    return QplacerFlow(params).run(topo);
}

struct Case
{
    std::string spec;
    PlacerMode mode;
};

std::ostream &
operator<<(std::ostream &os, const Case &c)
{
    return os << c.spec << " " << placerModeName(c.mode);
}

class ThreadCounts : public ::testing::TestWithParam<Case>
{};

TEST_P(ThreadCounts, LayoutMatchesOneThread)
{
    const Case &c = GetParam();
    Topology topo;
    std::string error;
    ASSERT_TRUE(resolveTopologySpec(c.spec, topo, &error)) << error;

    const FlowResult serial = runAt(topo, c.mode, 1);
    ASSERT_TRUE(serial.status.ok()) << serial.status.message;
    // grid16x16 has n >= kGrainFine instances, so the elementwise and
    // grad-max loops chunk too, not only the per-instance ones.
    if (c.spec == "grid16x16") {
        ASSERT_GE(static_cast<std::size_t>(serial.netlist.numInstances()),
                  ThreadPool::kGrainFine);
    }

    for (const int threads : {2, 3, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const FlowResult threaded = runAt(topo, c.mode, threads);
        ASSERT_TRUE(threaded.status.ok()) << threaded.status.message;
        EXPECT_TRUE(bitwiseSameLayout(serial.netlist, threaded.netlist));
        EXPECT_EQ(threaded.place.iterations, serial.place.iterations);
        EXPECT_TRUE(sameBits(threaded.place.finalHpwl,
                             serial.place.finalHpwl))
            << threaded.place.finalHpwl << " vs " << serial.place.finalHpwl;
        EXPECT_TRUE(sameBits(threaded.place.finalOverflow,
                             serial.place.finalOverflow))
            << threaded.place.finalOverflow << " vs "
            << serial.place.finalOverflow;
        EXPECT_TRUE(sameBits(threaded.hotspots.phPercent,
                             serial.hotspots.phPercent))
            << threaded.hotspots.phPercent << " vs "
            << serial.hotspots.phPercent;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Determinism, ThreadCounts,
    ::testing::Values(Case{"Falcon", PlacerMode::Qplacer},
                      Case{"grid8x8", PlacerMode::Qplacer},
                      Case{"grid16x16", PlacerMode::Classic}),
    [](const auto &info) {
        return info.param.spec + "_" + placerModeName(info.param.mode);
    });

} // namespace
} // namespace qplacer
