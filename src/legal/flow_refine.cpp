#include "legal/flow_refine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geometry/cell_list.hpp"
#include "math/min_cost_flow.hpp"
#include "util/logging.hpp"

namespace qplacer {

namespace {

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
                const std::vector<std::vector<std::int32_t>> &candidates)
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
        for (const std::int32_t s : candidates[i]) {
            const double cost_um = desired[i].manhattan(sites[s]);
            edge_id[i].push_back(flow.addEdge(
                1 + i, 1 + n + s, 1,
                static_cast<std::int64_t>(std::llround(cost_um))));
        }
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
std::vector<std::vector<std::int32_t>>
everySite(int n)
{
    std::vector<std::int32_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return std::vector<std::vector<std::int32_t>>(n, all);
}

/**
 * Sparse candidates: item i may take its k nearest sites plus its own
 * site. The own-site arc keeps the identity assignment feasible, so
 * the flow always saturates.
 */
std::vector<std::vector<std::int32_t>>
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

    std::vector<std::vector<std::int32_t>> candidates(n);
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
    std::vector<int> assignment = solveAssignment(
        desired, sites,
        sparse ? nearestSites(desired, sites, options.neighbors)
               : everySite(n));
    if (assignment.empty() && sparse) {
        // Cannot happen (identity is feasible); exact fallback anyway
        // so a refinement bug degrades to slow, never to wrong.
        warn("refineAssignment: sparse flow did not saturate; "
             "falling back to the dense exact path");
        assignment = solveAssignment(desired, sites, everySite(n));
    }
    if (assignment.empty())
        panic("refineAssignment: flow did not saturate");
    return assignment;
}

} // namespace qplacer
