#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "legal/flow_refine.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

/** Never fewer neighbours than items: always the exact dense solve. */
constexpr int kExact = std::numeric_limits<int>::max();

double
totalCost(const std::vector<Vec2> &desired, const std::vector<Vec2> &sites,
          const std::vector<int> &assign)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < desired.size(); ++i)
        acc += desired[i].manhattan(sites[assign[i]]);
    return acc;
}

TEST(FlowRefine, IdentityWhenAlreadyOptimal)
{
    const std::vector<Vec2> desired{{0, 0}, {100, 0}, {200, 0}};
    const auto assign = refineAssignment(desired, desired, kExact);
    for (std::size_t i = 0; i < desired.size(); ++i)
        EXPECT_EQ(assign[i], static_cast<int>(i));
}

TEST(FlowRefine, FixesSwappedAssignment)
{
    const std::vector<Vec2> desired{{0, 0}, {1000, 0}};
    const std::vector<Vec2> sites{{1000, 0}, {0, 0}};
    const auto assign = refineAssignment(desired, sites, kExact);
    EXPECT_EQ(assign[0], 1);
    EXPECT_EQ(assign[1], 0);
}

TEST(FlowRefine, ResultIsAPermutation)
{
    Rng rng(21);
    std::vector<Vec2> desired;
    std::vector<Vec2> sites;
    for (int i = 0; i < 20; ++i) {
        desired.emplace_back(rng.uniform(0, 5000), rng.uniform(0, 5000));
        sites.emplace_back(rng.uniform(0, 5000), rng.uniform(0, 5000));
    }
    const auto assign = refineAssignment(desired, sites, kExact);
    std::set<int> unique(assign.begin(), assign.end());
    EXPECT_EQ(unique.size(), 20u);
}

TEST(FlowRefine, BeatsRandomAssignments)
{
    Rng rng(22);
    std::vector<Vec2> desired;
    std::vector<Vec2> sites;
    for (int i = 0; i < 12; ++i) {
        desired.emplace_back(rng.uniform(0, 3000), rng.uniform(0, 3000));
        sites.emplace_back(rng.uniform(0, 3000), rng.uniform(0, 3000));
    }
    const auto optimal = refineAssignment(desired, sites, kExact);
    const double best = totalCost(desired, sites, optimal);
    std::vector<int> perm(12);
    for (int i = 0; i < 12; ++i)
        perm[i] = i;
    for (int trial = 0; trial < 50; ++trial) {
        rng.shuffle(perm);
        EXPECT_LE(best, totalCost(desired, sites, perm) + 1e-9);
    }
}

TEST(FlowRefine, SparsePathIsAValidNearOptimalPermutation)
{
    Rng rng(23);
    std::vector<Vec2> desired;
    std::vector<Vec2> sites;
    for (int i = 0; i < 40; ++i) {
        desired.emplace_back(rng.uniform(0, 8000), rng.uniform(0, 8000));
        sites.emplace_back(rng.uniform(0, 8000), rng.uniform(0, 8000));
    }

    const auto sparse = refineAssignment(desired, sites, 8);
    const std::set<int> unique(sparse.begin(), sparse.end());
    EXPECT_EQ(unique.size(), 40u);

    // Restricted candidates can never beat the exact dense optimum.
    const auto dense = refineAssignment(desired, sites, kExact);
    EXPECT_GE(totalCost(desired, sites, sparse) + 1e-9,
              totalCost(desired, sites, dense));

    // ...and the sparse path is deterministic.
    EXPECT_EQ(sparse, refineAssignment(desired, sites, 8));

    // Asking for >= n neighbors collapses to the exact dense solve.
    EXPECT_EQ(refineAssignment(desired, sites, 64), dense);
}

TEST(FlowRefine, SparseIdentityStaysZeroCost)
{
    // Items sitting exactly on their own site: the own-site candidate
    // arc keeps the sparse solve at zero displacement.
    std::vector<Vec2> pts;
    for (int i = 0; i < 24; ++i)
        pts.emplace_back(100.0 * i, 700.0 * (i % 5));
    const auto assign = refineAssignment(pts, pts, 4);
    EXPECT_EQ(totalCost(pts, pts, assign), 0.0);
}

TEST(FlowRefine, EmptyInput)
{
    EXPECT_TRUE(refineAssignment({}, {}, kExact).empty());
}

TEST(FlowRefine, SizeMismatchPanics)
{
    EXPECT_THROW(refineAssignment({{0, 0}}, {}, kExact),
                 std::logic_error);
}

} // namespace
} // namespace qplacer
