#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "freq/assigner.hpp"
#include "oracles/assign.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

TEST(Dsatur, ColorsPathWithTwo)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    const auto colors = FrequencyAssigner::dsatur(g);
    int max_color = 0;
    for (int c : colors)
        max_color = std::max(max_color, c);
    EXPECT_EQ(max_color, 1);
    for (const auto &[u, v] : g.edges())
        EXPECT_NE(colors[u], colors[v]);
}

TEST(Dsatur, CliqueNeedsAllColors)
{
    Graph g(4);
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            g.addEdge(i, j);
    const auto colors = FrequencyAssigner::dsatur(g);
    std::set<int> unique(colors.begin(), colors.end());
    EXPECT_EQ(unique.size(), 4u);
}

TEST(Dsatur, ProperColoringOnAllPaperTopologies)
{
    for (const auto &name : paperTopologyNames()) {
        const Topology topo = makeTopology(name);
        const auto colors = FrequencyAssigner::dsatur(topo.coupling);
        for (const auto &[u, v] : topo.coupling.edges())
            EXPECT_NE(colors[u], colors[v]) << name;
    }
}

class AssignerOnTopology
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AssignerOnTopology, NoCoupledPairResonant)
{
    const Topology topo = makeTopology(GetParam());
    const auto freqs = FrequencyAssigner().assign(topo);
    EXPECT_EQ(oracle::countDomainViolationsAllPairs(
                  topo, freqs, AssignerParams().detuningThresholdHz),
              0);
}

TEST_P(AssignerOnTopology, FrequenciesInsideBands)
{
    const Topology topo = makeTopology(GetParam());
    const auto freqs = FrequencyAssigner().assign(topo);
    for (double f : freqs.qubitFreqHz)
        EXPECT_TRUE(FrequencyBand::qubitBand().contains(f));
    for (double f : freqs.resonatorFreqHz)
        EXPECT_TRUE(FrequencyBand::resonatorBand().contains(f));
}

TEST_P(AssignerOnTopology, SlotCountsWithinCapacity)
{
    const Topology topo = makeTopology(GetParam());
    const auto freqs = FrequencyAssigner().assign(topo);
    EXPECT_LE(freqs.numQubitSlots, 5);
    EXPECT_LE(freqs.numResonatorSlots, 11);
    EXPECT_GE(freqs.numQubitSlots, 2);
    EXPECT_GE(freqs.numResonatorSlots, 2);
}

INSTANTIATE_TEST_SUITE_P(Paper, AssignerOnTopology,
                         ::testing::Values("Grid", "Xtree", "Falcon",
                                           "Eagle", "Aspen-11",
                                           "Aspen-M"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Assigner, FrequencyReuseIsInevitableOnLargeDevices)
{
    // 127 qubits cannot fit in 5 mutually detuned slots: same-frequency
    // qubits must exist (the placement engine's workload).
    const Topology topo = makeEagle();
    const auto freqs = FrequencyAssigner().assign(topo);
    std::set<double> unique(freqs.qubitFreqHz.begin(),
                            freqs.qubitFreqHz.end());
    EXPECT_LT(unique.size(), freqs.qubitFreqHz.size());
}

TEST(Assigner, Distance2SeparatesSpectators)
{
    // With distance-2 coloring on, qubits two hops apart on a path get
    // distinct frequencies (when the band allows).
    Topology topo;
    topo.name = "path";
    topo.coupling = Graph(3);
    topo.coupling.addEdge(0, 1);
    topo.coupling.addEdge(1, 2);
    topo.embedding = {{0, 0}, {1, 0}, {2, 0}};

    AssignerParams params;
    params.distance2 = true;
    const auto freqs = FrequencyAssigner(params).assign(topo);
    EXPECT_NE(freqs.qubitFreqHz[0], freqs.qubitFreqHz[2]);

    params.distance2 = false;
    const auto freqs2 = FrequencyAssigner(params).assign(topo);
    EXPECT_EQ(freqs2.qubitFreqHz[0], freqs2.qubitFreqHz[2]);
}

TEST(Assigner, ResonatorsSharingAQubitDetuned)
{
    const Topology topo = makeGrid(3, 3);
    const auto freqs = FrequencyAssigner().assign(topo);
    const auto &edges = topo.coupling.edges();
    for (std::size_t a = 0; a < edges.size(); ++a) {
        for (std::size_t b = a + 1; b < edges.size(); ++b) {
            const bool share = edges[a].first == edges[b].first ||
                               edges[a].first == edges[b].second ||
                               edges[a].second == edges[b].first ||
                               edges[a].second == edges[b].second;
            if (share) {
                EXPECT_FALSE(isResonant(freqs.resonatorFreqHz[a],
                                        freqs.resonatorFreqHz[b]));
            }
        }
    }
}

} // namespace
} // namespace qplacer
