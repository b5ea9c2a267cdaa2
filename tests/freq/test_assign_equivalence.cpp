/**
 * @file
 * Equivalence of the assign/build stages against the oracles in
 * tests/oracles/: the saturation-heap DSATUR must colour every graph
 * exactly like the linear-scan reference, full assignments must carry
 * the reference colourings on the paper topologies, the share-graph
 * violation counter must agree with the all-pairs scan, and the
 * prefix-summed parallel builder must reproduce the sequential-append
 * netlist bit for bit at any thread count. ctest -L assign.
 */

#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "oracles/assign.hpp"
#include "oracles/build.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

Graph
randomGraph(int n, double edge_prob, Rng &rng)
{
    Graph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (rng.uniform() < edge_prob)
                g.addEdge(u, v);
        }
    }
    return g;
}

Graph
starGraph(int n, Rng &rng)
{
    Graph g(n);
    for (int v = 1; v < n; ++v)
        g.addEdge(0, v);
    // A few random chords so saturation ties actually occur.
    for (int u = 1; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (rng.uniform() < 0.05)
                g.addEdge(u, v);
        }
    }
    return g;
}

Graph
pathGraph(int n)
{
    Graph g(n);
    for (int v = 0; v + 1 < n; ++v)
        g.addEdge(v, v + 1);
    return g;
}

void
expectProperColoring(const Graph &g, const std::vector<int> &color)
{
    for (const auto &[u, v] : g.edges()) {
        EXPECT_GE(color[u], 0);
        EXPECT_NE(color[u], color[v]) << "edge " << u << "-" << v;
    }
}

/**
 * An assignment is a pure function of four DSATUR colourings: the
 * qubit interference graph and the resonator share graph give the
 * colours, and colorsToFrequencies colours the coupling graph and the
 * share graph again as the hard-edge graphs of a crowded band. Matching
 * the reference colouring of all four pins every frequency and slot
 * count.
 */
void
expectReferenceColorings(const Topology &topo, const AssignerParams &params,
                         const FrequencyAssignment &out)
{
    const Graph interference = oracle::qubitInterferenceGraphAllPairs(
        topo.coupling, params.distance2);
    const Graph shares = oracle::resonatorShareGraphAllPairs(topo.coupling);
    EXPECT_EQ(out.qubitColor, oracle::dsaturReference(interference));
    EXPECT_EQ(out.resonatorColor, oracle::dsaturReference(shares));
    EXPECT_EQ(FrequencyAssigner::dsatur(topo.coupling),
              oracle::dsaturReference(topo.coupling));
    EXPECT_EQ(FrequencyAssigner::dsatur(shares),
              oracle::dsaturReference(shares));
}

TEST(DsaturEquivalence, RandomDenseAndSparse)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const double p : {0.5, 0.08}) {
            Rng rng(seed);
            const Graph g = randomGraph(60, p, rng);
            const auto ref = oracle::dsaturReference(g);
            const auto fast = FrequencyAssigner::dsatur(g);
            EXPECT_EQ(ref, fast) << "seed " << seed << " p " << p;
            expectProperColoring(g, fast);
        }
    }
}

TEST(DsaturEquivalence, StarAndPath)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        const Graph star = starGraph(50, rng);
        EXPECT_EQ(oracle::dsaturReference(star),
                  FrequencyAssigner::dsatur(star));

        const Graph path = pathGraph(40 + static_cast<int>(seed));
        EXPECT_EQ(oracle::dsaturReference(path),
                  FrequencyAssigner::dsatur(path));
    }
}

TEST(DsaturEquivalence, EmptyAndIsolatedNodes)
{
    const Graph empty(0);
    EXPECT_TRUE(FrequencyAssigner::dsatur(empty).empty());

    Graph isolated(5); // no edges: everything gets colour 0
    const auto colors = FrequencyAssigner::dsatur(isolated);
    EXPECT_EQ(colors, oracle::dsaturReference(isolated));
    for (int c : colors)
        EXPECT_EQ(c, 0);
}

TEST(AssignEquivalence, PaperTopologies)
{
    for (const Topology &topo :
         {makeGrid(8, 8), makeHeavyHex(3, 5), makeOctagon(4, 4),
          makeEagle()}) {
        SCOPED_TRACE(topo.name);
        const AssignerParams params;
        const FrequencyAssigner assigner(params);
        const auto out = assigner.assign(topo);
        expectReferenceColorings(topo, params, out);
        EXPECT_EQ(assigner.countDomainViolations(topo, out),
                  oracle::countDomainViolationsAllPairs(
                      topo, out, params.detuningThresholdHz));
    }
}

TEST(AssignEquivalence, ViolationCountersAgreeUnderCollisions)
{
    // Force resonances by sampling frequencies from a tiny slot pool,
    // then check the share-graph counter matches the all-pairs scan
    // exactly.
    const Topology topo = makeGrid(6, 6);
    const FrequencyAssigner assigner;
    const double threshold_hz = AssignerParams().detuningThresholdHz;

    FrequencyAssignment assignment = assigner.assign(topo);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        for (double &f : assignment.qubitFreqHz)
            f = 5.0e9 + 0.05e9 * static_cast<double>(rng.below(3));
        for (double &f : assignment.resonatorFreqHz)
            f = 6.5e9 + 0.05e9 * static_cast<double>(rng.below(3));
        const int ref_count = oracle::countDomainViolationsAllPairs(
            topo, assignment, threshold_hz);
        EXPECT_GT(ref_count, 0);
        EXPECT_EQ(ref_count,
                  assigner.countDomainViolations(topo, assignment));
    }
}

TEST(AssignEquivalence, CrowdedHardClassesAliasDeterministically)
{
    // A 6-clique needs 6 hard colour classes; a band with room for only
    // 3 slots forces the aliasing fallback. Classes alias slots
    // round-robin (c % used), so exactly the 3 coupled pairs whose
    // classes collide stay resonant.
    Topology topo;
    topo.name = "K6";
    topo.coupling = Graph(6);
    for (int u = 0; u < 6; ++u)
        for (int v = u + 1; v < 6; ++v)
            topo.coupling.addEdge(u, v);
    topo.embedding = {{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}};

    AssignerParams params;
    params.qubitBand =
        FrequencyBand(5.0e9, 5.0e9 + 2.0 * params.detuningThresholdHz);
    const FrequencyAssigner assigner(params);

    const auto out = assigner.assign(topo);
    expectReferenceColorings(topo, params, out);
    EXPECT_EQ(out.numQubitSlots, 3);

    // 6 classes on 3 slots: pairs (0,3), (1,4), (2,5) alias.
    const int violations = assigner.countDomainViolations(topo, out);
    EXPECT_EQ(violations, oracle::countDomainViolationsAllPairs(
                              topo, out, params.detuningThresholdHz));
    EXPECT_EQ(violations, 3);
}

TEST(BuildEquivalence, BitwiseIdenticalAcrossThreadCounts)
{
    // grid16x16 has 480 couplers, above the builder's serial cutoff
    // (ThreadPool::kGrainMedium), so its per-coupler fills run chunked.
    for (const Topology &topo :
         {makeGrid(8, 8), makeOctagon(4, 4), makeGrid(16, 16)}) {
        SCOPED_TRACE(topo.name);
        const FrequencyAssigner assigner;
        const auto freqs = assigner.assign(topo);
        const PartitionParams params;
        const Netlist ref = oracle::buildReference(topo, freqs, params, 0.72);
        const NetlistBuilder builder(params);

        for (const int threads : {1, 2, 8}) {
            ThreadPool pool(threads);
            BuildStats stats;
            const Netlist fast =
                builder.build(topo, freqs, 0.72, &pool, &stats);
            EXPECT_TRUE(bitwiseSameNetlist(ref, fast))
                << threads << " threads";
            EXPECT_EQ(stats.threads, threads);
        }
    }
}

} // namespace
} // namespace qplacer
