/**
 * @file
 * Flow-refinement oracles: the cold min-cost-flow refinement that
 * refineAssignment replaced with an identity certificate in front of
 * an early-exit solver. ColdMinCostFlow runs successive shortest paths
 * with a full Dijkstra per unit of flow; refineAssignmentCold always
 * solves, over candidate arcs built by brute force. The flow
 * equivalence suite (tests/legal/test_flow_equivalence.cpp,
 * ctest -L legal) requires equal cost everywhere and equal
 * assignments wherever the optimum is unique (isUniqueOptimum).
 */

#ifndef QPLACER_TESTS_ORACLES_FLOW_HPP
#define QPLACER_TESTS_ORACLES_FLOW_HPP

#include <cstdint>
#include <vector>

#include "geometry/vec2.hpp"
#include "legal/flow_refine.hpp"

namespace qplacer::oracle {

/**
 * Min-cost max-flow by successive shortest paths, each a Dijkstra
 * that settles every reachable node; potentials advance by the full
 * distance of each reachable node. Same API as MinCostFlow.
 */
class ColdMinCostFlow
{
  public:
    explicit ColdMinCostFlow(int num_nodes);

    int addEdge(int from, int to, std::int64_t capacity, std::int64_t cost);

    struct Result
    {
        std::int64_t flow = 0;
        std::int64_t cost = 0;
    };

    Result solve(int source, int sink, std::int64_t max_flow = kInfinite);

    std::int64_t flowOn(int edge_id) const;

    static constexpr std::int64_t kInfinite = INT64_MAX / 4;

  private:
    struct Edge
    {
        int to;
        std::int64_t capacity;
        std::int64_t cost;
        int reverse;
    };

    bool dijkstra(int source, int sink);

    int numNodes_;
    std::vector<std::vector<Edge>> graph_;
    std::vector<std::pair<int, int>> edgeIndex_;
    std::vector<std::int64_t> potential_;
    std::vector<std::int64_t> dist_;
    std::vector<std::pair<int, int>> parent_;
};

/** Candidate sites per item (site indices). */
using Candidates = std::vector<std::vector<std::int32_t>>;

/**
 * The candidate arcs refineAssignment builds, by brute force: every
 * site in index order at or below options.sparseThreshold items (or
 * when options.neighbors >= n), else the options.neighbors sites of
 * least Euclidean distance (nearest first, ties to the lower index)
 * plus the item's own site, appended when missing.
 */
Candidates candidateSitesReference(const std::vector<Vec2> &desired,
                                   const std::vector<Vec2> &sites,
                                   const FlowRefineOptions &options);

/**
 * refineAssignment as it was before the identity certificate: always
 * a ColdMinCostFlow solve over candidateSitesReference, arcs added
 * and read back in candidate order.
 */
std::vector<int> refineAssignmentCold(const std::vector<Vec2> &desired,
                                      const std::vector<Vec2> &sites,
                                      const FlowRefineOptions &options);

/** Total integer cost (llround of each Manhattan distance). */
std::int64_t assignmentCost(const std::vector<Vec2> &desired,
                            const std::vector<Vec2> &sites,
                            const std::vector<int> &assignment);

/**
 * Whether @p assignment is the unique min-cost perfect assignment over
 * @p candidates. Works on the bipartite residual graph of the
 * assignment (item -> unused candidate site at +cost, site -> its
 * item at -cost): Bellman-Ford to convergence finds no negative cycle,
 * and a depth-first search finds no cycle of zero reduced cost.
 */
bool isUniqueOptimum(const std::vector<Vec2> &desired,
                     const std::vector<Vec2> &sites,
                     const Candidates &candidates,
                     const std::vector<int> &assignment);

} // namespace qplacer::oracle

#endif // QPLACER_TESTS_ORACLES_FLOW_HPP
