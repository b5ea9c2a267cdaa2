/**
 * @file
 * The paper's ablation as a property over seeds: on the six paper
 * devices plus grid8x8, seeds 1-5, Qplacer with the frequency force
 * (Eq. 9/10) must be at least as good as Qplacer without it -- no more
 * hotspot pairs, a fidelity gmean at least as high, every run
 * converged, and legalization displacement within 2x of force off --
 * and the large grids must converge hotspot-free. ctest -L paper.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "eval/evaluator.hpp"
#include "pipeline/flow.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

FlowResult
runQplacer(const Topology &topo, std::uint64_t seed, bool freq_force)
{
    FlowParams params;
    params.mode = PlacerMode::Qplacer;
    params.partition.segmentUm = 300.0;
    params.placer.seed = seed;
    params.placer.threads = 1;
    params.placer.freqForce = freq_force;
    const FlowResult r = QplacerFlow(params).run(topo);
    EXPECT_TRUE(r.status.ok()) << topo.name << ": " << r.status.message;
    return r;
}

/**
 * The report's fidelity proxy: the largest Bernstein-Vazirani circuit
 * the device fits, over a fixed 8-subset sample.
 */
double
fidelityProxy(const Topology &topo, const FlowResult &r)
{
    const char *circuit = topo.numQubits() >= 16  ? "bv-16"
                          : topo.numQubits() >= 9 ? "bv-9"
                                                  : "bv-4";
    EvaluatorParams eparams;
    eparams.numSubsets = 8;
    return Evaluator(eparams)
        .evaluate(topo, r.netlist, makeBenchmark(circuit))
        .meanFidelity;
}

TEST(PaperAblation, ForceBeatsItsAblationOnPaperDevices)
{
    std::vector<std::string> devices = paperTopologyNames();
    devices.push_back("grid8x8");

    int pairs_on = 0;
    int pairs_off = 0;
    double log_fid_on = 0.0;
    double log_fid_off = 0.0;
    int runs = 0;
    double worst_disp_ratio = 0.0;
    for (const std::string &name : devices) {
        const Topology topo = name == "grid8x8" ? makeGrid(8, 8)
                                                : makeTopology(name);
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            const FlowResult on = runQplacer(topo, seed, true);
            const FlowResult off = runQplacer(topo, seed, false);
            EXPECT_EQ(on.place.stopReason, PlaceStopReason::Converged)
                << name << " seed " << seed << ": "
                << placeStopReasonName(on.place.stopReason);

            pairs_on += static_cast<int>(on.hotspots.pairs.size());
            pairs_off += static_cast<int>(off.hotspots.pairs.size());
            log_fid_on += std::log(fidelityProxy(topo, on));
            log_fid_off += std::log(fidelityProxy(topo, off));
            ++runs;

            const double ratio = on.legal.segmentDisplacementUm /
                                 off.legal.segmentDisplacementUm;
            worst_disp_ratio = std::max(worst_disp_ratio, ratio);
            EXPECT_LE(ratio, 2.0)
                << name << " seed " << seed
                << ": segment displacement with the force on "
                << on.legal.segmentDisplacementUm << " um vs off "
                << off.legal.segmentDisplacementUm << " um";
        }
    }
    const double gmean_on = std::exp(log_fid_on / runs);
    const double gmean_off = std::exp(log_fid_off / runs);
    std::printf("[ablation] %d runs: pairs on %d / off %d, fidelity "
                "gmean on %.4g / off %.4g, worst segment displacement "
                "ratio %.3f\n",
                runs, pairs_on, pairs_off, gmean_on, gmean_off,
                worst_disp_ratio);
    EXPECT_EQ(runs, 35);
    EXPECT_LE(pairs_on, pairs_off);
    EXPECT_GE(gmean_on, gmean_off);
}

void
expectConvergesHotspotFree(const Topology &topo)
{
    const FlowResult r = runQplacer(topo, 1, true);
    EXPECT_EQ(r.place.stopReason, PlaceStopReason::Converged)
        << topo.name << ": " << placeStopReasonName(r.place.stopReason);
    EXPECT_EQ(r.hotspots.pairs.size(), 0u) << topo.name;
}

TEST(PaperAblation, Grid16x16ConvergesHotspotFree)
{
    expectConvergesHotspotFree(makeGrid(16, 16));
}

TEST(PaperAblation, Grid32x32ConvergesHotspotFree)
{
    expectConvergesHotspotFree(makeGrid(32, 32));
}

} // namespace
} // namespace qplacer
