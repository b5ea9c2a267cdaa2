/**
 * @file
 * Min-cost max-flow via successive shortest paths with Johnson potentials.
 * Each round's Dijkstra stops once the sink is settled; nodes it left
 * unsettled advance their potential by the sink's distance, which keeps
 * reduced costs non-negative for the next round.
 *
 * Used by the legalization stack to refine qubit positions: qubits are
 * matched to candidate sites minimizing total displacement (the min-cost
 * flow refinement of [88] in the paper).
 */

#ifndef QPLACER_MATH_MIN_COST_FLOW_HPP
#define QPLACER_MATH_MIN_COST_FLOW_HPP

#include <cstdint>
#include <vector>

namespace qplacer {

/**
 * Min-cost max-flow solver. Costs must be non-negative (which holds for
 * displacement costs); capacities are integral.
 */
class MinCostFlow
{
  public:
    /** Create a network with @p num_nodes nodes. */
    explicit MinCostFlow(int num_nodes);

    /**
     * Add a directed edge.
     * @return edge id usable with flowOn().
     */
    int addEdge(int from, int to, std::int64_t capacity, std::int64_t cost);

    /**
     * Pre-size @p node's adjacency for @p degree edge slots (forward
     * plus reverse). Purely a reallocation hint for bulk graph
     * construction -- the legalization refinement adds O(n) arcs per
     * item node -- with no effect on results.
     */
    void reserveNode(int node, std::size_t degree);

    /** Result of a solve: total flow pushed and its total cost. */
    struct Result
    {
        std::int64_t flow = 0;
        std::int64_t cost = 0;
    };

    /**
     * Push up to @p max_flow units from @p source to @p sink
     * (default: as much as possible).
     */
    Result solve(int source, int sink,
                 std::int64_t max_flow = kInfinite);

    /** Flow currently routed through edge @p edge_id. */
    std::int64_t flowOn(int edge_id) const;

    static constexpr std::int64_t kInfinite = INT64_MAX / 4;

  private:
    struct Edge
    {
        int to;
        std::int64_t capacity;
        std::int64_t cost;
        int reverse; // index of the reverse edge in graph_[to]
    };

    bool dijkstra(int source, int sink);

    int numNodes_;
    std::vector<std::vector<Edge>> graph_;
    std::vector<std::pair<int, int>> edgeIndex_; // edge id -> (node, slot)
    std::vector<std::int64_t> potential_;
    std::vector<std::int64_t> dist_;
    std::vector<std::pair<int, int>> parent_; // (node, edge slot)
};

} // namespace qplacer

#endif // QPLACER_MATH_MIN_COST_FLOW_HPP
