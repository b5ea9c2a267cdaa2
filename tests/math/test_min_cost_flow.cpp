#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "math/min_cost_flow.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

using CostMatrix = std::vector<std::vector<std::int64_t>>;

/** Items 0..n-1, sites n..2n-1, source 2n, sink 2n+1. */
struct AssignmentNetwork
{
    explicit AssignmentNetwork(const CostMatrix &cost)
        : n(static_cast<int>(cost.size())), flow(2 * n + 2),
          arc(n, std::vector<int>(n))
    {
        for (int i = 0; i < n; ++i) {
            flow.addEdge(2 * n, i, 1, 0);
            flow.addEdge(n + i, 2 * n + 1, 1, 0);
            for (int j = 0; j < n; ++j)
                arc[i][j] = flow.addEdge(i, n + j, 1, cost[i][j]);
        }
    }

    MinCostFlow::Result solve(std::int64_t max_flow)
    {
        return flow.solve(2 * n, 2 * n + 1, max_flow);
    }

    int n;
    MinCostFlow flow;
    std::vector<std::vector<int>> arc;
};

CostMatrix
randomCosts(int n, Rng &rng)
{
    // A narrow range, so equal-cost optima are common.
    CostMatrix cost(n, std::vector<std::int64_t>(n));
    for (auto &row : cost)
        for (auto &c : row)
            c = rng.range(0, 12);
    return cost;
}

/**
 * Least total cost of matching @p k items to distinct sites, by
 * enumerating every permutation and every k-subset of its items.
 */
std::int64_t
bruteForceMin(const CostMatrix &cost, int k)
{
    const int n = static_cast<int>(cost.size());
    std::vector<int> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::int64_t best = MinCostFlow::kInfinite;
    do {
        for (unsigned mask = 0; mask < (1u << n); ++mask) {
            if (__builtin_popcount(mask) != k)
                continue;
            std::int64_t total = 0;
            for (int i = 0; i < n; ++i)
                if (mask & (1u << i))
                    total += cost[i][perm[i]];
            best = std::min(best, total);
        }
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

TEST(MinCostFlow, SimplePath)
{
    MinCostFlow flow(3);
    flow.addEdge(0, 1, 5, 2);
    flow.addEdge(1, 2, 3, 1);
    const auto r = flow.solve(0, 2);
    EXPECT_EQ(r.flow, 3);
    EXPECT_EQ(r.cost, 3 * 3);
}

TEST(MinCostFlow, PrefersCheaperParallelEdge)
{
    MinCostFlow flow(2);
    const int cheap = flow.addEdge(0, 1, 2, 1);
    const int costly = flow.addEdge(0, 1, 2, 10);
    const auto r = flow.solve(0, 1, 3);
    EXPECT_EQ(r.flow, 3);
    EXPECT_EQ(r.cost, 2 * 1 + 1 * 10);
    EXPECT_EQ(flow.flowOn(cheap), 2);
    EXPECT_EQ(flow.flowOn(costly), 1);
}

TEST(MinCostFlow, AssignmentProblem)
{
    // 2 workers, 2 jobs: optimal assignment picks the off-diagonal.
    // cost(w0,j0)=9, cost(w0,j1)=1, cost(w1,j0)=2, cost(w1,j1)=8.
    MinCostFlow flow(6);
    const int s = 4;
    const int t = 5;
    flow.addEdge(s, 0, 1, 0);
    flow.addEdge(s, 1, 1, 0);
    flow.addEdge(2, t, 1, 0);
    flow.addEdge(3, t, 1, 0);
    const int e00 = flow.addEdge(0, 2, 1, 9);
    const int e01 = flow.addEdge(0, 3, 1, 1);
    const int e10 = flow.addEdge(1, 2, 1, 2);
    const int e11 = flow.addEdge(1, 3, 1, 8);
    const auto r = flow.solve(s, t);
    EXPECT_EQ(r.flow, 2);
    EXPECT_EQ(r.cost, 3);
    EXPECT_EQ(flow.flowOn(e01), 1);
    EXPECT_EQ(flow.flowOn(e10), 1);
    EXPECT_EQ(flow.flowOn(e00), 0);
    EXPECT_EQ(flow.flowOn(e11), 0);
}

TEST(MinCostFlow, RespectsMaxFlow)
{
    MinCostFlow flow(2);
    flow.addEdge(0, 1, 100, 1);
    const auto r = flow.solve(0, 1, 7);
    EXPECT_EQ(r.flow, 7);
    EXPECT_EQ(r.cost, 7);
}

TEST(MinCostFlow, DisconnectedGivesZeroFlow)
{
    MinCostFlow flow(4);
    flow.addEdge(0, 1, 1, 1);
    flow.addEdge(2, 3, 1, 1);
    const auto r = flow.solve(0, 3);
    EXPECT_EQ(r.flow, 0);
    EXPECT_EQ(r.cost, 0);
}

TEST(MinCostFlow, AssignmentMatchesBruteForce)
{
    // Every permutation of random integer cost matrices, n <= 7: the
    // early-exit search must still reach the optimum, and the arcs it
    // reports must carry exactly that cost.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        const int n = 1 + static_cast<int>(seed % 7);
        const CostMatrix cost = randomCosts(n, rng);
        AssignmentNetwork net(cost);
        const auto r = net.solve(MinCostFlow::kInfinite);
        ASSERT_EQ(r.flow, n) << "seed " << seed;
        EXPECT_EQ(r.cost, bruteForceMin(cost, n)) << "seed " << seed;

        std::int64_t arc_cost = 0;
        std::vector<int> site_use(n, 0);
        for (int i = 0; i < n; ++i) {
            int taken = 0;
            for (int j = 0; j < n; ++j) {
                if (net.flow.flowOn(net.arc[i][j]) > 0) {
                    ++taken;
                    ++site_use[j];
                    arc_cost += cost[i][j];
                }
            }
            EXPECT_EQ(taken, 1) << "seed " << seed << " item " << i;
        }
        EXPECT_EQ(site_use, std::vector<int>(n, 1)) << "seed " << seed;
        EXPECT_EQ(arc_cost, r.cost) << "seed " << seed;
    }
}

TEST(MinCostFlow, PartialFlowMatchesBruteForce)
{
    // Successive shortest paths are min-cost at every flow value, so a
    // max_flow cap of k returns the cheapest k-item matching.
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        const int n = 2 + static_cast<int>(seed % 4);
        const CostMatrix cost = randomCosts(n, rng);
        for (int k = 1; k < n; ++k) {
            AssignmentNetwork net(cost);
            const auto r = net.solve(k);
            EXPECT_EQ(r.flow, k) << "seed " << seed << " k " << k;
            EXPECT_EQ(r.cost, bruteForceMin(cost, k))
                << "seed " << seed << " k " << k;
        }
    }
}

TEST(MinCostFlow, MultiCapacityTransport)
{
    // Supplies A = 3, B = 2; demands X = 2, Y = 3. Unit costs A->X 1,
    // A->Y 4, B->X 2, B->Y 3. With x units on A->X the cost is
    // 16 - 2x, so the optimum ships A->X 2, A->Y 1, B->Y 2 for 12.
    // Capped at 3 units: A->X 2 (cost 2) then B->Y 1 (3) = 5; at 4
    // units one more B->Y = 8.
    const auto build = [](MinCostFlow &flow, std::vector<int> &arcs) {
        const int s = 0, a = 1, b = 2, x = 3, y = 4, t = 5;
        flow.addEdge(s, a, 3, 0);
        flow.addEdge(s, b, 2, 0);
        arcs = {flow.addEdge(a, x, 3, 1), flow.addEdge(a, y, 3, 4),
                flow.addEdge(b, x, 2, 2), flow.addEdge(b, y, 2, 3)};
        flow.addEdge(x, t, 2, 0);
        flow.addEdge(y, t, 3, 0);
    };
    const std::pair<std::int64_t, std::int64_t> expected[] = {
        {3, 5}, {4, 8}, {5, 12}, {MinCostFlow::kInfinite, 12}};
    for (const auto &[cap, cost] : expected) {
        MinCostFlow flow(6);
        std::vector<int> arcs;
        build(flow, arcs);
        const auto r = flow.solve(0, 5, cap);
        EXPECT_EQ(r.flow, std::min<std::int64_t>(cap, 5)) << "cap " << cap;
        EXPECT_EQ(r.cost, cost) << "cap " << cap;
        if (r.flow == 5) {
            EXPECT_EQ(flow.flowOn(arcs[0]), 2);
            EXPECT_EQ(flow.flowOn(arcs[1]), 1);
            EXPECT_EQ(flow.flowOn(arcs[2]), 0);
            EXPECT_EQ(flow.flowOn(arcs[3]), 2);
        }
    }
}

TEST(MinCostFlow, NegativeCostPanics)
{
    MinCostFlow flow(2);
    EXPECT_THROW(flow.addEdge(0, 1, 1, -5), std::logic_error);
}

TEST(MinCostFlow, BadNodePanics)
{
    MinCostFlow flow(2);
    EXPECT_THROW(flow.addEdge(0, 7, 1, 1), std::logic_error);
}

} // namespace
} // namespace qplacer
