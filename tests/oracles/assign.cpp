#include "oracles/assign.hpp"

#include <set>

#include "freq/spectrum.hpp"

namespace qplacer::oracle {

std::vector<int>
dsaturReference(const Graph &graph)
{
    const int n = graph.numNodes();
    std::vector<int> color(n, -1);
    std::vector<std::set<int>> neighbor_colors(n);

    for (int step = 0; step < n; ++step) {
        // Pick the uncoloured node with maximum saturation, breaking
        // ties by degree then by index (deterministic).
        int best = -1;
        for (int v = 0; v < n; ++v) {
            if (color[v] >= 0)
                continue;
            if (best < 0)
                best = v;
            const auto sat_v = neighbor_colors[v].size();
            const auto sat_b = neighbor_colors[best].size();
            if (sat_v > sat_b ||
                (sat_v == sat_b && graph.degree(v) > graph.degree(best))) {
                best = v;
            }
        }
        // Smallest colour not used by neighbours.
        int c = 0;
        while (neighbor_colors[best].count(c))
            ++c;
        color[best] = c;
        for (int u : graph.neighbors(best))
            neighbor_colors[u].insert(c);
    }
    return color;
}

Graph
qubitInterferenceGraphAllPairs(const Graph &coupling, bool distance2)
{
    const int n = coupling.numNodes();
    Graph out(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            bool interfere = coupling.hasEdge(u, v);
            if (distance2) {
                for (int w : coupling.neighbors(u))
                    interfere = interfere || coupling.hasEdge(w, v);
            }
            if (interfere)
                out.addEdge(u, v);
        }
    }
    return out;
}

namespace {

bool
shareQubit(const std::pair<int, int> &a, const std::pair<int, int> &b)
{
    return a.first == b.first || a.first == b.second ||
           a.second == b.first || a.second == b.second;
}

} // namespace

Graph
resonatorShareGraphAllPairs(const Graph &coupling)
{
    const auto &edges = coupling.edges();
    const int nr = coupling.numEdges();
    Graph res(nr);
    for (int a = 0; a < nr; ++a)
        for (int b = a + 1; b < nr; ++b)
            if (shareQubit(edges[a], edges[b]))
                res.addEdge(a, b);
    return res;
}

int
countDomainViolationsAllPairs(const Topology &topo,
                              const FrequencyAssignment &assignment,
                              double detuning_threshold_hz)
{
    int violations = 0;
    const auto &edges = topo.coupling.edges();
    for (const auto &[u, v] : edges) {
        if (isResonant(assignment.qubitFreqHz[u], assignment.qubitFreqHz[v],
                       detuning_threshold_hz)) {
            ++violations;
        }
    }
    for (std::size_t a = 0; a < edges.size(); ++a) {
        for (std::size_t b = a + 1; b < edges.size(); ++b) {
            if (shareQubit(edges[a], edges[b]) &&
                isResonant(assignment.resonatorFreqHz[a],
                           assignment.resonatorFreqHz[b],
                           detuning_threshold_hz)) {
                ++violations;
            }
        }
    }
    return violations;
}

} // namespace qplacer::oracle
