#include "legal/flow_refine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geometry/cell_list.hpp"
#include "math/min_cost_flow.hpp"
#include "util/logging.hpp"

namespace qplacer {

namespace {

using Candidates = std::vector<std::vector<std::int32_t>>;

/** Integer arc cost of placing an item at @p desired on @p site. */
std::int64_t
arcCost(Vec2 desired, Vec2 site)
{
    return static_cast<std::int64_t>(std::llround(desired.manhattan(site)));
}

/**
 * Bellman-Ford passes the certificate may spend before it declines.
 * Spiral output settles in one or two (the paper devices and grid8x8
 * to grid32x32); a negative cycle never settles, so the cap is also
 * what rejects a non-optimal identity.
 */
constexpr int kCertificatePasses = 32;

/**
 * Whether the identity (item i keeps site i) is the unique min-cost
 * perfect assignment over @p candidates. Any other assignment differs
 * from the identity by disjoint rotations, i.e. by cycles of the
 * exchange graph whose arc i -> j (item i takes site j, j in
 * candidates[i], j != i) weighs cost(i, j) - cost(j, j). The identity
 * is optimal iff that graph has no negative cycle, and unique iff it
 * also has no zero-weight cycle: with shortest-path potentials p from a
 * zero-distance virtual root, a zero-weight cycle is a cycle of tight
 * arcs (w + p(i) - p(j) == 0), so the tight subgraph must be acyclic.
 * candidates[i] must hold i, which both candidate builders guarantee.
 *
 * @return true only with that proof in hand; false when it fails or
 *         does not settle within kCertificatePasses (always safe: the
 *         caller then runs the solver).
 */
bool
certifyIdentity(const std::vector<Vec2> &desired,
                const std::vector<Vec2> &sites, const Candidates &candidates)
{
    const int n = static_cast<int>(desired.size());

    // Exchange graph in CSR form.
    std::vector<std::int64_t> own(n);
    for (int j = 0; j < n; ++j)
        own[j] = arcCost(desired[j], sites[j]);
    std::vector<std::size_t> first(n + 1, 0);
    std::vector<std::int32_t> head;
    std::vector<std::int64_t> weight;
    for (int i = 0; i < n; ++i) {
        for (const std::int32_t j : candidates[i]) {
            if (j != i) {
                head.push_back(j);
                weight.push_back(arcCost(desired[i], sites[j]) - own[j]);
            }
        }
        first[i + 1] = head.size();
    }

    // Potentials: in-place Bellman-Ford from a virtual root at 0.
    std::vector<std::int64_t> dist(n, 0);
    bool changed = true;
    for (int pass = 0; changed && pass < kCertificatePasses; ++pass) {
        changed = false;
        for (int i = 0; i < n; ++i) {
            for (std::size_t a = first[i]; a < first[i + 1]; ++a) {
                const std::int64_t d = dist[i] + weight[a];
                if (d < dist[head[a]]) {
                    dist[head[a]] = d;
                    changed = true;
                }
            }
        }
    }
    if (changed)
        return false;

    // Tight arcs must be acyclic (Kahn: every node gets popped).
    const auto tight = [&](int i, std::size_t a) {
        return weight[a] + dist[i] - dist[head[a]] == 0;
    };
    std::vector<int> in_degree(n, 0);
    for (int i = 0; i < n; ++i)
        for (std::size_t a = first[i]; a < first[i + 1]; ++a)
            if (tight(i, a))
                ++in_degree[head[a]];
    std::vector<int> ready;
    for (int i = 0; i < n; ++i)
        if (in_degree[i] == 0)
            ready.push_back(i);
    int popped = 0;
    while (!ready.empty()) {
        const int i = ready.back();
        ready.pop_back();
        ++popped;
        for (std::size_t a = first[i]; a < first[i + 1]; ++a)
            if (tight(i, a) && --in_degree[head[a]] == 0)
                ready.push_back(head[a]);
    }
    return popped == n;
}

/**
 * Min-cost assignment of items to sites over the arcs in
 * @p candidates (item i may take site s iff s is in candidates[i]).
 * Arcs are added, and the assignment read back, in candidate order.
 *
 * @return site index per item, or an empty vector if the candidate
 *         arcs admit no perfect matching.
 */
std::vector<int>
solveAssignment(const std::vector<Vec2> &desired,
                const std::vector<Vec2> &sites,
                const Candidates &candidates)
{
    const int n = static_cast<int>(desired.size());

    // Nodes: source, items, sites, sink.
    const int source = 0;
    const int sink = 2 * n + 1;
    MinCostFlow flow(2 * n + 2);

    std::vector<std::size_t> site_degree(n, 1);
    for (const auto &cand : candidates)
        for (const std::int32_t s : cand)
            ++site_degree[s];
    for (int i = 0; i < n; ++i) {
        flow.reserveNode(1 + i, candidates[i].size() + 1);
        flow.reserveNode(1 + n + i, site_degree[i]);
    }

    for (int i = 0; i < n; ++i)
        flow.addEdge(source, 1 + i, 1, 0);
    std::vector<std::vector<int>> edge_id(n);
    for (int i = 0; i < n; ++i) {
        edge_id[i].reserve(candidates[i].size());
        for (const std::int32_t s : candidates[i])
            edge_id[i].push_back(flow.addEdge(
                1 + i, 1 + n + s, 1, arcCost(desired[i], sites[s])));
    }
    for (int s = 0; s < n; ++s)
        flow.addEdge(1 + n + s, sink, 1, 0);

    if (flow.solve(source, sink).flow != n)
        return {};

    std::vector<int> assignment(n, -1);
    for (int i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < candidates[i].size(); ++c) {
            if (flow.flowOn(edge_id[i][c]) > 0) {
                assignment[i] = candidates[i][c];
                break;
            }
        }
        if (assignment[i] < 0)
            panic("refineAssignment: unassigned item");
    }
    return assignment;
}

/** Dense candidates: every item may take every site, in index order. */
Candidates
everySite(int n)
{
    std::vector<std::int32_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return Candidates(n, all);
}

/**
 * Sparse candidates: item i may take its k nearest sites plus its own
 * site. The own-site arc keeps the identity assignment feasible, so
 * the flow always saturates.
 */
Candidates
nearestSites(const std::vector<Vec2> &desired,
             const std::vector<Vec2> &sites, int neighbors)
{
    const int n = static_cast<int>(desired.size());

    // ~1 site per cell; the region covers the query centers too, so
    // few of them clamp into border cells.
    Rect bbox(sites[0], sites[0]);
    for (int i = 0; i < n; ++i)
        bbox = bbox.unionWith(Rect(sites[i], sites[i]))
                   .unionWith(Rect(desired[i], desired[i]));
    bbox = bbox.inflated(1.0);
    CellList cells;
    cells.build(bbox,
                std::max(1.0, std::max(bbox.width(), bbox.height()) /
                                  std::sqrt(static_cast<double>(n))),
                sites);

    Candidates candidates(n);
    for (int i = 0; i < n; ++i) {
        candidates[i] = cells.kNearest(desired[i], neighbors);
        if (std::find(candidates[i].begin(), candidates[i].end(), i) ==
            candidates[i].end())
            candidates[i].push_back(i);
    }
    return candidates;
}

} // namespace

std::vector<int>
refineAssignment(const std::vector<Vec2> &desired,
                 const std::vector<Vec2> &sites,
                 const FlowRefineOptions &options)
{
    const int n = static_cast<int>(desired.size());
    if (static_cast<int>(sites.size()) != n)
        panic("refineAssignment: item/site count mismatch");
    if (n == 0)
        return {};
    if (options.neighbors < 1)
        panic("refineAssignment: neighbors must be at least 1");

    const bool sparse =
        n > options.sparseThreshold && options.neighbors < n;
    const Candidates candidates =
        sparse ? nearestSites(desired, sites, options.neighbors)
               : everySite(n);
    if (certifyIdentity(desired, sites, candidates)) {
        std::vector<int> identity(n);
        std::iota(identity.begin(), identity.end(), 0);
        return identity;
    }
    std::vector<int> assignment = solveAssignment(desired, sites, candidates);
    if (assignment.empty())
        panic("refineAssignment: flow did not saturate");
    return assignment;
}

} // namespace qplacer
