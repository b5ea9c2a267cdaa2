#include "oracles/flow.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "util/logging.hpp"

namespace qplacer::oracle {

ColdMinCostFlow::ColdMinCostFlow(int num_nodes)
    : numNodes_(num_nodes), graph_(num_nodes)
{
    if (num_nodes <= 0)
        panic("ColdMinCostFlow: non-positive node count");
}

int
ColdMinCostFlow::addEdge(int from, int to, std::int64_t capacity,
                         std::int64_t cost)
{
    if (from < 0 || from >= numNodes_ || to < 0 || to >= numNodes_)
        panic("ColdMinCostFlow::addEdge: node out of range");
    if (cost < 0)
        panic("ColdMinCostFlow::addEdge: negative cost unsupported");
    const int fwd_slot = static_cast<int>(graph_[from].size());
    const int rev_slot = static_cast<int>(graph_[to].size());
    graph_[from].push_back(Edge{to, capacity, cost, rev_slot});
    graph_[to].push_back(Edge{from, 0, -cost, fwd_slot});
    edgeIndex_.emplace_back(from, fwd_slot);
    return static_cast<int>(edgeIndex_.size()) - 1;
}

bool
ColdMinCostFlow::dijkstra(int source, int sink)
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
        for (int slot = 0; slot < static_cast<int>(graph_[u].size());
             ++slot) {
            const Edge &e = graph_[u][slot];
            if (e.capacity <= 0)
                continue;
            const std::int64_t nd =
                d + e.cost + potential_[u] - potential_[e.to];
            if (nd < dist_[e.to]) {
                dist_[e.to] = nd;
                parent_[e.to] = {u, slot};
                heap.emplace(nd, e.to);
            }
        }
    }
    return dist_[sink] < kInfinite;
}

ColdMinCostFlow::Result
ColdMinCostFlow::solve(int source, int sink, std::int64_t max_flow)
{
    potential_.assign(numNodes_, 0);
    Result result;

    while (result.flow < max_flow && dijkstra(source, sink)) {
        for (int v = 0; v < numNodes_; ++v) {
            if (dist_[v] < kInfinite)
                potential_[v] += dist_[v];
        }

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
ColdMinCostFlow::flowOn(int edge_id) const
{
    const auto [node, slot] = edgeIndex_.at(edge_id);
    const Edge &e = graph_[node][slot];
    return graph_[e.to][e.reverse].capacity;
}

namespace {

std::int64_t
arcCost(Vec2 desired, Vec2 site)
{
    return static_cast<std::int64_t>(std::llround(desired.manhattan(site)));
}

} // namespace

Candidates
candidateSitesReference(const std::vector<Vec2> &desired,
                        const std::vector<Vec2> &sites, int neighbors)
{
    const int n = static_cast<int>(desired.size());
    std::vector<std::int32_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    if (neighbors >= n)
        return Candidates(n, all);

    Candidates candidates(n);
    for (int i = 0; i < n; ++i) {
        std::vector<std::pair<double, std::int32_t>> by_dist;
        for (const std::int32_t s : all)
            by_dist.emplace_back((sites[s] - desired[i]).normSq(), s);
        std::sort(by_dist.begin(), by_dist.end());
        for (int k = 0; k < neighbors; ++k)
            candidates[i].push_back(by_dist[k].second);
        if (std::find(candidates[i].begin(), candidates[i].end(), i) ==
            candidates[i].end())
            candidates[i].push_back(i);
    }
    return candidates;
}

std::vector<int>
refineAssignmentCold(const std::vector<Vec2> &desired,
                     const std::vector<Vec2> &sites, int neighbors)
{
    const int n = static_cast<int>(desired.size());
    if (n == 0)
        return {};
    const Candidates candidates =
        candidateSitesReference(desired, sites, neighbors);

    const int source = 0;
    const int sink = 2 * n + 1;
    ColdMinCostFlow flow(2 * n + 2);
    for (int i = 0; i < n; ++i)
        flow.addEdge(source, 1 + i, 1, 0);
    std::vector<std::vector<int>> edge_id(n);
    for (int i = 0; i < n; ++i)
        for (const std::int32_t s : candidates[i])
            edge_id[i].push_back(flow.addEdge(
                1 + i, 1 + n + s, 1, arcCost(desired[i], sites[s])));
    for (int s = 0; s < n; ++s)
        flow.addEdge(1 + n + s, sink, 1, 0);

    if (flow.solve(source, sink).flow != n)
        panic("refineAssignmentCold: flow did not saturate");
    std::vector<int> assignment(n, -1);
    for (int i = 0; i < n; ++i)
        for (std::size_t c = 0; c < candidates[i].size(); ++c)
            if (assignment[i] < 0 && flow.flowOn(edge_id[i][c]) > 0)
                assignment[i] = candidates[i][c];
    return assignment;
}

std::int64_t
assignmentCost(const std::vector<Vec2> &desired,
               const std::vector<Vec2> &sites,
               const std::vector<int> &assignment)
{
    std::int64_t total = 0;
    for (std::size_t i = 0; i < desired.size(); ++i)
        total += arcCost(desired[i], sites[assignment[i]]);
    return total;
}

bool
isUniqueOptimum(const std::vector<Vec2> &desired,
                const std::vector<Vec2> &sites, const Candidates &candidates,
                const std::vector<int> &assignment)
{
    // Nodes: items 0..n-1, sites n..2n-1.
    const int n = static_cast<int>(desired.size());
    struct Arc
    {
        int from;
        int to;
        std::int64_t weight;
    };
    std::vector<Arc> arcs;
    for (int i = 0; i < n; ++i) {
        const int own = assignment[i];
        if (std::find(candidates[i].begin(), candidates[i].end(), own) ==
            candidates[i].end())
            panic("isUniqueOptimum: assignment uses a non-candidate arc");
        arcs.push_back({n + own, i, -arcCost(desired[i], sites[own])});
        for (const std::int32_t s : candidates[i])
            if (s != own)
                arcs.push_back({i, n + s, arcCost(desired[i], sites[s])});
    }

    // Bellman-Ford from a virtual root; still relaxing after 2n passes
    // means a negative cycle (a cheaper assignment).
    std::vector<std::int64_t> dist(2 * n, 0);
    bool changed = true;
    for (int pass = 0; changed; ++pass) {
        if (pass > 2 * n)
            return false;
        changed = false;
        for (const Arc &a : arcs) {
            if (dist[a.from] + a.weight < dist[a.to]) {
                dist[a.to] = dist[a.from] + a.weight;
                changed = true;
            }
        }
    }

    // A zero-cost cycle is a cycle of tight arcs: depth-first search
    // for a back edge in the tight subgraph.
    std::vector<std::vector<int>> tight(2 * n);
    for (const Arc &a : arcs)
        if (dist[a.from] + a.weight == dist[a.to])
            tight[a.from].push_back(a.to);
    enum class Mark { New, Open, Done };
    std::vector<Mark> mark(2 * n, Mark::New);
    for (int root = 0; root < 2 * n; ++root) {
        if (mark[root] != Mark::New)
            continue;
        std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
        mark[root] = Mark::Open;
        while (!stack.empty()) {
            auto &[v, next] = stack.back();
            if (next == tight[v].size()) {
                mark[v] = Mark::Done;
                stack.pop_back();
                continue;
            }
            const int w = tight[v][next++];
            if (mark[w] == Mark::Open)
                return false;
            if (mark[w] == Mark::New) {
                mark[w] = Mark::Open;
                stack.emplace_back(w, 0);
            }
        }
    }
    return true;
}

} // namespace qplacer::oracle
