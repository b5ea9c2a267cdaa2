#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "geometry/cell_list.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

using Pair = std::pair<std::size_t, std::size_t>;

std::vector<Pair>
nearPairs(const CellList &cells)
{
    std::vector<Pair> pairs;
    cells.forEachNearPair(
        [&](std::size_t i, std::size_t j) { pairs.emplace_back(i, j); });
    return pairs;
}

/** Brute-force k nearest by (distSq, index). */
std::vector<std::int32_t>
bruteKNearest(const std::vector<Vec2> &points, Vec2 c, int k)
{
    std::vector<std::int32_t> want(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        want[i] = static_cast<std::int32_t>(i);
    std::sort(want.begin(), want.end(), [&](std::int32_t a, std::int32_t b) {
        const double da = (points[a] - c).normSq();
        const double db = (points[b] - c).normSq();
        if (da != db)
            return da < db;
        return a < b;
    });
    want.resize(std::min(want.size(), static_cast<std::size_t>(k)));
    return want;
}

/**
 * The order() a stable sort by cell gives, for cells of width @p w
 * from the origin, clamped to [0, cols) x [0, rows).
 */
std::vector<std::int32_t>
expectedOrder(const std::vector<Vec2> &points, double w, int cols, int rows)
{
    auto cell = [&](Vec2 p) {
        const int col = std::clamp(static_cast<int>(std::floor(p.x / w)), 0,
                                   cols - 1);
        const int row = std::clamp(static_cast<int>(std::floor(p.y / w)), 0,
                                   rows - 1);
        return row * cols + col;
    };
    std::vector<std::int32_t> order(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        order[i] = static_cast<std::int32_t>(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int32_t a, std::int32_t b) {
                         return cell(points[a]) < cell(points[b]);
                     });
    return order;
}

TEST(CellList, BuildSortsStablyByCell)
{
    // 25 points on a 100 x 100 region with 20-wide cells: 4 x 4 grid.
    std::vector<Vec2> points;
    for (int i = 0; i < 25; ++i)
        points.emplace_back((i * 37) % 100, (i * 61) % 100);
    CellList cells;
    cells.build(Rect(0, 0, 100, 100), 20, points);
    ASSERT_EQ(cells.cols(), 4);
    ASSERT_EQ(cells.rows(), 4);
    EXPECT_EQ(cells.order(), expectedOrder(points, 25, 4, 4));
}

TEST(CellList, NearPairsMatchBruteForce)
{
    Rng rng(17);
    std::vector<Vec2> points;
    for (int i = 0; i < 300; ++i)
        points.emplace_back(rng.uniform(0, 1000), rng.uniform(0, 1000));
    const double reach = 50.0;
    CellList cells;
    cells.build(Rect(0, 0, 1000, 1000), reach, points);

    const std::vector<Pair> got = nearPairs(cells);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
    std::vector<Pair> in_reach;
    for (const Pair &p : got) {
        ASSERT_LT(p.first, p.second);
        const Vec2 d = points[p.first] - points[p.second];
        if (std::abs(d.x) <= reach && std::abs(d.y) <= reach)
            in_reach.push_back(p);
    }
    std::vector<Pair> want;
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            const Vec2 d = points[i] - points[j];
            if (std::abs(d.x) <= reach && std::abs(d.y) <= reach)
                want.emplace_back(i, j);
        }
    }
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(in_reach, want);
}

TEST(CellList, OutOfRegionPointsAreClamped)
{
    const std::vector<Vec2> points{
        {150, 150}, {-40, 50}, {50, -1e9}, {145, 155}, {50, 50}};
    CellList cells;
    cells.build(Rect(0, 0, 100, 100), 10, points);
    ASSERT_EQ(cells.cols(), 5); // capped at 1 + 2 sqrt(5)
    ASSERT_EQ(cells.rows(), 5);
    // (row, column): 2 -> (0, 2), 1 -> (2, 0), 4 -> (2, 2), 0 and 3 -> (4, 4).
    EXPECT_EQ(cells.order(), (std::vector<std::int32_t>{2, 1, 4, 0, 3}));
    EXPECT_EQ(cells.order(), expectedOrder(points, 20, 5, 5));
    // The two points clamped into the corner still pair up.
    const std::vector<Pair> pairs = nearPairs(cells);
    EXPECT_NE(std::find(pairs.begin(), pairs.end(), Pair{0, 3}),
              pairs.end());
    // A query centre outside the region clamps too.
    EXPECT_EQ(cells.kNearest({160, 160}, 2),
              (std::vector<std::int32_t>{0, 3}));
    EXPECT_EQ(cells.kNearest({-1e6, 50}, 5),
              bruteKNearest(points, {-1e6, 50}, 5));
}

TEST(CellList, KNearestMatchesBruteForce)
{
    Rng rng(29);
    std::vector<Vec2> points;
    for (int i = 0; i < 250; ++i)
        points.emplace_back(rng.uniform(0, 1000), rng.uniform(0, 1000));
    // A lattice of duplicates and equidistant points exercises the
    // ascending-index tie-break.
    for (int i = 0; i < 50; ++i)
        points.emplace_back(100.0 * (i % 5), 100.0 * (i % 7));
    CellList cells;
    cells.build(Rect(0, 0, 1000, 1000), 50, points);
    for (int trial = 0; trial < 40; ++trial) {
        const Vec2 c = trial % 4 == 0
                           ? Vec2(100.0 * (trial % 5), 100.0 * (trial % 7))
                           : Vec2(rng.uniform(-100, 1100),
                                  rng.uniform(-100, 1100));
        const int k = static_cast<int>(rng.range(1, 24));
        EXPECT_EQ(cells.kNearest(c, k), bruteKNearest(points, c, k))
            << "trial " << trial;
    }
}

TEST(CellList, KNearestHandlesSmallSetsAndZeroK)
{
    CellList cells;
    cells.build(Rect(0, 0, 100, 100), 10, {});
    EXPECT_TRUE(cells.kNearest({50, 50}, 3).empty());

    const std::vector<Vec2> points{{80, 80}, {20, 20}};
    cells.build(Rect(0, 0, 100, 100), 10, points);
    EXPECT_TRUE(cells.kNearest({50, 50}, 0).empty());
    EXPECT_EQ(cells.kNearest({25, 25}, 5),
              (std::vector<std::int32_t>{1, 0})); // k > n: all, nearest first

    // One cell: min_edge covers the whole region.
    cells.build(Rect(0, 0, 100, 100), 500, points);
    ASSERT_EQ(cells.cols(), 1);
    ASSERT_EQ(cells.rows(), 1);
    EXPECT_EQ(cells.kNearest({75, 75}, 1), (std::vector<std::int32_t>{0}));
    EXPECT_EQ(cells.kNearest({50, 50}, 2),
              (std::vector<std::int32_t>{0, 1})); // tie: lower index first
}

TEST(CellList, CellsPerAxisAreCapped)
{
    // 9 points: at most 1 + 2 sqrt(9) = 7 cells per axis, however small
    // min_edge is; the cells grow instead.
    std::vector<Vec2> points;
    for (int i = 0; i < 9; ++i)
        points.emplace_back(100.0 * i, 50.0 * i);
    CellList cells;
    cells.build(Rect(0, 0, 1000, 500), 1.0, points);
    EXPECT_EQ(cells.cols(), 7);
    EXPECT_EQ(cells.rows(), 7);
    cells.build(Rect(0, 0, 1000, 500), 0.0, points);
    EXPECT_EQ(cells.cols(), 7);
    // Below the cap, cells are at least min_edge wide.
    cells.build(Rect(0, 0, 1000, 500), 200.0, points);
    EXPECT_EQ(cells.cols(), 4);
    EXPECT_EQ(cells.rows(), 2);
    cells.build(Rect(0, 0, 1000, 500), 250.0, points);
    EXPECT_EQ(cells.cols(), 3); // 1000 / 250 cells would be just too narrow
    EXPECT_EQ(cells.rows(), 1);
}

TEST(CellList, RebuildReplacesThePreviousBinning)
{
    Rng rng(5);
    std::vector<Vec2> big;
    for (int i = 0; i < 100; ++i)
        big.emplace_back(rng.uniform(0, 1000), rng.uniform(0, 1000));
    const std::vector<Vec2> small{{900, 900}, {10, 10}, {905, 905}};
    CellList cells;
    cells.build(Rect(0, 0, 1000, 1000), 20, big);
    cells.build(Rect(0, 0, 1000, 1000), 20, small);
    EXPECT_EQ(cells.order().size(), 3u);
    EXPECT_EQ(nearPairs(cells), (std::vector<Pair>{{0, 2}}));
    EXPECT_EQ(cells.kNearest({0, 0}, 3), bruteKNearest(small, {0, 0}, 3));
}

TEST(CellList, NonFinitePositionPanicsNamingTheIndex)
{
    CellList cells;
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        const std::vector<Vec2> points{{10, 10}, {20, 20}, {bad, 30}};
        EXPECT_THROW(cells.build(Rect(0, 0, 100, 100), 10, points),
                     std::logic_error);
        try {
            cells.build(Rect(0, 0, 100, 100), 10, points);
        } catch (const std::logic_error &e) {
            EXPECT_NE(std::string(e.what()).find("instance 2"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace qplacer
