#include "math/min_cost_flow.hpp"

#include <algorithm>
#include <queue>

#include "util/logging.hpp"

namespace qplacer {

MinCostFlow::MinCostFlow(int num_nodes)
    : numNodes_(num_nodes), graph_(num_nodes)
{
    if (num_nodes <= 0)
        panic("MinCostFlow: non-positive node count");
}

void
MinCostFlow::reserveNode(int node, std::size_t degree)
{
    if (node < 0 || node >= numNodes_)
        panic(str("MinCostFlow::reserveNode: node out of range (", node,
                  ")"));
    graph_[node].reserve(degree);
}

int
MinCostFlow::addEdge(int from, int to, std::int64_t capacity,
                     std::int64_t cost)
{
    if (from < 0 || from >= numNodes_ || to < 0 || to >= numNodes_)
        panic(str("MinCostFlow::addEdge: node out of range (", from, ", ",
                  to, ")"));
    if (cost < 0)
        panic("MinCostFlow::addEdge: negative cost unsupported");
    const int fwd_slot = static_cast<int>(graph_[from].size());
    const int rev_slot = static_cast<int>(graph_[to].size());
    graph_[from].push_back(Edge{to, capacity, cost, rev_slot});
    graph_[to].push_back(Edge{from, 0, -cost, fwd_slot});
    edgeIndex_.emplace_back(from, fwd_slot);
    return static_cast<int>(edgeIndex_.size()) - 1;
}

bool
MinCostFlow::dijkstra(int source, int sink)
{
    dist_.assign(numNodes_, kInfinite);
    parent_.assign(numNodes_, {-1, -1});
    dist_[source] = 0;

    using Item = std::pair<std::int64_t, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0, source);

    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist_[u])
            continue;
        // Settled: no later pop can shorten the path to the sink.
        if (u == sink)
            break;
        for (int slot = 0; slot < static_cast<int>(graph_[u].size());
             ++slot) {
            const Edge &e = graph_[u][slot];
            if (e.capacity <= 0)
                continue;
            const std::int64_t reduced =
                e.cost + potential_[u] - potential_[e.to];
            const std::int64_t nd = d + reduced;
            if (nd < dist_[e.to]) {
                dist_[e.to] = nd;
                parent_[e.to] = {u, slot};
                heap.emplace(nd, e.to);
            }
        }
    }
    return dist_[sink] < kInfinite;
}

MinCostFlow::Result
MinCostFlow::solve(int source, int sink, std::int64_t max_flow)
{
    potential_.assign(numNodes_, 0);
    Result result;

    while (result.flow < max_flow && dijkstra(source, sink)) {
        // Nodes the search did not settle are at least as far as the
        // sink; capping at dist(sink) keeps every residual reduced
        // cost non-negative.
        const std::int64_t sink_dist = dist_[sink];
        for (int v = 0; v < numNodes_; ++v)
            potential_[v] += std::min(dist_[v], sink_dist);

        // Bottleneck along the augmenting path.
        std::int64_t push = max_flow - result.flow;
        for (int v = sink; v != source;) {
            const auto [u, slot] = parent_[v];
            push = std::min(push, graph_[u][slot].capacity);
            v = u;
        }

        for (int v = sink; v != source;) {
            const auto [u, slot] = parent_[v];
            Edge &e = graph_[u][slot];
            e.capacity -= push;
            graph_[v][e.reverse].capacity += push;
            result.cost += push * e.cost;
            v = u;
        }
        result.flow += push;
    }
    return result;
}

std::int64_t
MinCostFlow::flowOn(int edge_id) const
{
    if (edge_id < 0 || edge_id >= static_cast<int>(edgeIndex_.size()))
        panic(str("MinCostFlow::flowOn: bad edge id ", edge_id));
    const auto [node, slot] = edgeIndex_[edge_id];
    const Edge &e = graph_[node][slot];
    // Flow pushed equals the residual capacity of the reverse edge.
    return graph_[e.to][e.reverse].capacity;
}

} // namespace qplacer
