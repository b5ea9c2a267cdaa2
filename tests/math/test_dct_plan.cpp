/**
 * @file
 * Plan-equivalence suite: the precomputed DctPlan/FftPlan execution
 * path must be *bitwise*-identical (memcmp, not just EXPECT_DOUBLE_EQ)
 * to the plan-free kernels of tests/oracles/spectral, over random
 * inputs at every power-of-two length from 2 to 1024 and across thread
 * counts. The plans transform eight lines per kernel call, so every
 * lane is checked on its own: distinct data per lane, a non-finite
 * value confined to its lane, maps with fewer lines than lanes, and
 * rectangular maps both ways. This is the contract that lets the
 * Poisson solver run on plans without perturbing a single placement.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/poisson.hpp"
#include "math/dct_plan.hpp"
#include "math/fft_plan.hpp"
#include "math/plan_cache.hpp"
#include "oracles/spectral.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

using oracle::Complex;
using oracle::Dct;
using oracle::Fft;

std::vector<double>
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform(-2.0, 2.0);
    return v;
}

/** memcmp equality: same bits, not merely same values. */
::testing::AssertionResult
bitwiseEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (!a.empty() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
                return ::testing::AssertionFailure()
                       << "first bit difference at index " << i << ": "
                       << a[i] << " vs " << b[i];
        }
    }
    return ::testing::AssertionSuccess();
}

constexpr Dct::Kind kKinds[] = {Dct::Kind::Dct2, Dct::Kind::Idct2,
                                Dct::Kind::CosSeries,
                                Dct::Kind::SinSeries};

constexpr std::size_t kLanes = DctPlan::kLanes;

/**
 * One line through the batch kernel: a 1-row map, so the other seven
 * lanes of its block are zero padding.
 */
std::vector<double>
applyOneLine(const DctPlan &plan, Dct::Kind kind, std::vector<double> x,
             DctScratch &scratch)
{
    plan.transformRows(x, static_cast<int>(x.size()), 1, kind, nullptr,
                       scratch);
    return x;
}

/** kLanes distinct random lines of length @p n. */
std::vector<std::vector<double>>
randomLines(std::size_t n, std::uint64_t seed)
{
    std::vector<std::vector<double>> lines;
    for (std::size_t l = 0; l < kLanes; ++l)
        lines.push_back(randomVector(n, seed + 17 * l));
    return lines;
}

/** The lines as the rows of a row-major kLanes x n map. */
std::vector<double>
asRows(const std::vector<std::vector<double>> &lines)
{
    std::vector<double> map;
    for (const auto &line : lines)
        map.insert(map.end(), line.begin(), line.end());
    return map;
}

/** Row @p l of a row-major map with rows of length @p n. */
std::vector<double>
row(const std::vector<double> &map, std::size_t n, std::size_t l)
{
    return {map.begin() + static_cast<std::ptrdiff_t>(l * n),
            map.begin() + static_cast<std::ptrdiff_t>((l + 1) * n)};
}

/** The lines as the columns of a row-major n x kLanes map. */
std::vector<double>
asCols(const std::vector<std::vector<double>> &lines)
{
    const std::size_t n = lines.front().size();
    std::vector<double> map(n * kLanes);
    for (std::size_t e = 0; e < n; ++e)
        for (std::size_t l = 0; l < kLanes; ++l)
            map[e * kLanes + l] = lines[l][e];
    return map;
}

/** Column @p l of a row-major n x kLanes map. */
std::vector<double>
col(const std::vector<double> &map, std::size_t l)
{
    std::vector<double> out;
    for (std::size_t e = 0; e * kLanes < map.size(); ++e)
        out.push_back(map[e * kLanes + l]);
    return out;
}

class PlanSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PlanSizes, FftPlanMatchesFftBitwise)
{
    // Eight distinct sequences in split format, each lane checked
    // against its own plan-free transform.
    const std::size_t n = GetParam();
    std::vector<std::vector<Complex>> reference(kLanes);
    std::vector<double> re(n * kLanes);
    std::vector<double> im(n * kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
        const auto lr = randomVector(n, 100 + n + 31 * l);
        const auto li = randomVector(n, 200 + n + 31 * l);
        for (std::size_t e = 0; e < n; ++e) {
            reference[l].emplace_back(lr[e], li[e]);
            re[e * kLanes + l] = lr[e];
            im[e * kLanes + l] = li[e];
        }
    }
    const auto lanesMatch = [&] {
        for (std::size_t l = 0; l < kLanes; ++l) {
            for (std::size_t e = 0; e < n; ++e) {
                const double want[2] = {reference[l][e].real(),
                                        reference[l][e].imag()};
                const double got[2] = {re[e * kLanes + l],
                                       im[e * kLanes + l]};
                if (std::memcmp(want, got, sizeof want) != 0)
                    return ::testing::AssertionFailure()
                           << "lane " << l << " element " << e;
            }
        }
        return ::testing::AssertionSuccess();
    };

    const FftPlan plan(n);
    for (auto &lane : reference)
        Fft::forward(lane);
    plan.forward(re.data(), im.data());
    ASSERT_TRUE(lanesMatch());

    for (auto &lane : reference)
        Fft::inverse(lane);
    plan.inverse(re.data(), im.data());
    ASSERT_TRUE(lanesMatch());
}

TEST_P(PlanSizes, ApplyMatchesDctKernelsBitwise)
{
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    for (const Dct::Kind kind : kKinds) {
        const auto x =
            randomVector(n, 300 + n + static_cast<std::size_t>(kind));
        EXPECT_TRUE(bitwiseEqual(Dct::apply(kind, x),
                                 applyOneLine(plan, kind, x, scratch)))
            << "kind " << static_cast<int>(kind) << " length " << n;
    }
}

TEST_P(PlanSizes, ScratchLaneReuseIsStateless)
{
    // Back-to-back transforms through one scratch (as the passes do)
    // must not see stale state from the previous block.
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    for (int round = 0; round < 3; ++round) {
        for (const Dct::Kind kind : kKinds) {
            const auto x = randomVector(n, 400 + n + round);
            EXPECT_TRUE(bitwiseEqual(Dct::apply(kind, x),
                                     applyOneLine(plan, kind, x, scratch)));
        }
    }
}

TEST_P(PlanSizes, EveryLaneMatchesDctKernelsBitwise)
{
    // Eight distinct lines fill one block exactly, as rows (transposed
    // in) and as columns (transformed in place in the map).
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    const int len = static_cast<int>(n);
    const int lanes = static_cast<int>(kLanes);
    for (const Dct::Kind kind : kKinds) {
        const auto lines =
            randomLines(n, 1000 + n + 100 * static_cast<std::size_t>(kind));
        std::vector<double> rows = asRows(lines);
        std::vector<double> cols = asCols(lines);
        plan.transformRows(rows, len, lanes, kind, nullptr, scratch);
        plan.transformCols(cols, lanes, len, kind, nullptr, scratch);
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::vector<double> reference = Dct::apply(kind, lines[l]);
            EXPECT_TRUE(bitwiseEqual(reference, row(rows, n, l)))
                << "rows: kind " << static_cast<int>(kind) << " lane " << l;
            EXPECT_TRUE(bitwiseEqual(reference, col(cols, l)))
                << "cols: kind " << static_cast<int>(kind) << " lane " << l;
        }
    }
}

TEST_P(PlanSizes, NonFiniteLaneLeavesOtherLanesBitwise)
{
    // No operation mixes lanes: a NaN or Inf in one line leaves the
    // other seven exactly as the plan-free kernel computes them.
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    const int len = static_cast<int>(n);
    const int lanes = static_cast<int>(kLanes);
    const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()};
    for (const Dct::Kind kind : kKinds) {
        for (const double poison : poisons) {
            const std::size_t bad = 3;
            auto lines = randomLines(n, 2000 + n);
            std::vector<std::vector<double>> reference;
            for (const auto &line : lines)
                reference.push_back(Dct::apply(kind, line));
            lines[bad][n / 2] = poison;
            std::vector<double> rows = asRows(lines);
            std::vector<double> cols = asCols(lines);
            plan.transformRows(rows, len, lanes, kind, nullptr, scratch);
            plan.transformCols(cols, lanes, len, kind, nullptr, scratch);
            for (std::size_t l = 0; l < kLanes; ++l) {
                if (l == bad)
                    continue;
                EXPECT_TRUE(bitwiseEqual(reference[l], row(rows, n, l)))
                    << "rows: kind " << static_cast<int>(kind)
                    << " poison " << poison << " lane " << l;
                EXPECT_TRUE(bitwiseEqual(reference[l], col(cols, l)))
                    << "cols: kind " << static_cast<int>(kind)
                    << " poison " << poison << " lane " << l;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024));

TEST(PlanFewLines, RowsColsAndSolveBelowOneBlock)
{
    // Maps with fewer lines than lanes (1, 2 or 4) pad the unused
    // lanes with zeros; the real lines match the per-line kernels.
    for (const int lines : {1, 2, 4}) {
        for (const int len : {1, 2, 4, 32}) {
            for (const Dct::Kind kind : kKinds) {
                const auto map = randomVector(
                    static_cast<std::size_t>(lines) * len,
                    3000 + 10 * lines + len);
                std::vector<double> reference = map;
                std::vector<double> planned = map;
                Dct::transformRowsUnplanned(reference, len, lines, kind,
                                            nullptr);
                Dct::transformRows(planned, len, lines, kind, nullptr);
                EXPECT_TRUE(bitwiseEqual(reference, planned))
                    << "rows: " << lines << " x " << len << " kind "
                    << static_cast<int>(kind);
                reference = map;
                planned = map;
                Dct::transformColsUnplanned(reference, lines, len, kind,
                                            nullptr);
                Dct::transformCols(planned, lines, len, kind, nullptr);
                EXPECT_TRUE(bitwiseEqual(reference, planned))
                    << "cols: " << len << " x " << lines << " kind "
                    << static_cast<int>(kind);
            }
        }
    }
    for (const int nx : {1, 2, 4, 64}) {
        for (const int ny : {1, 2, 4, 64}) {
            const auto density = randomVector(
                static_cast<std::size_t>(nx) * ny, 3100 + 10 * nx + ny);
            const PoissonSolver planned(nx, ny, 300.0, 500.0);
            const oracle::Poisson unplanned(nx, ny, 300.0, 500.0, nullptr);
            const PoissonSolver::Solution &a = planned.solve(density);
            const oracle::Poisson::Solution b = unplanned.solve(density);
            EXPECT_TRUE(bitwiseEqual(a.fieldX, b.fieldX))
                << nx << " x " << ny;
            EXPECT_TRUE(bitwiseEqual(a.fieldY, b.fieldY))
                << nx << " x " << ny;
        }
    }
}

class PlanThreads : public ::testing::TestWithParam<int>
{
  protected:
    ThreadPool *
    pool()
    {
        if (GetParam() <= 1)
            return nullptr;
        if (!pool_)
            pool_ = std::make_unique<ThreadPool>(GetParam());
        return pool_.get();
    }

  private:
    std::unique_ptr<ThreadPool> pool_;
};

TEST_P(PlanThreads, TransformRowsMatchesUnplannedBitwise)
{
    const int nx = 64;
    const int ny = 128; // Above kGrainCoarse so the pool engages.
    for (const Dct::Kind kind : kKinds) {
        const auto map = randomVector(
            static_cast<std::size_t>(nx) * ny,
            500 + static_cast<std::size_t>(kind));
        std::vector<double> reference = map;
        std::vector<double> planned = map;
        Dct::transformRowsUnplanned(reference, nx, ny, kind, pool());
        Dct::transformRows(planned, nx, ny, kind, pool());
        EXPECT_TRUE(bitwiseEqual(reference, planned))
            << "kind " << static_cast<int>(kind) << " threads "
            << GetParam();
    }
}

TEST_P(PlanThreads, TransformColsMatchesUnplannedBitwise)
{
    const int nx = 128;
    const int ny = 64;
    for (const Dct::Kind kind : kKinds) {
        const auto map = randomVector(
            static_cast<std::size_t>(nx) * ny,
            600 + static_cast<std::size_t>(kind));
        std::vector<double> reference = map;
        std::vector<double> planned = map;
        Dct::transformColsUnplanned(reference, nx, ny, kind, pool());
        Dct::transformCols(planned, nx, ny, kind, pool());
        EXPECT_TRUE(bitwiseEqual(reference, planned))
            << "kind " << static_cast<int>(kind) << " threads "
            << GetParam();
    }
}

TEST_P(PlanThreads, PoissonSolveMatchesUnplannedBitwise)
{
    const int n = 128; // Above kGrainCoarse so the pool engages.
    const auto density =
        randomVector(static_cast<std::size_t>(n) * n, 700);
    const PoissonSolver planned(n, n, 4000.0, 4000.0, pool());
    const oracle::Poisson unplanned(n, n, 4000.0, 4000.0, pool());
    const PoissonSolver::Solution &a = planned.solve(density);
    const oracle::Poisson::Solution b = unplanned.solve(density);
    EXPECT_TRUE(bitwiseEqual(a.fieldX, b.fieldX));
    EXPECT_TRUE(bitwiseEqual(a.fieldY, b.fieldY));
}

TEST_P(PlanThreads, RepeatedSolvesReuseScratchBitwise)
{
    // The solver's internal scratch must carry no state between
    // solves: identical inputs give identical outputs, and a solve on
    // different data in between must not perturb that.
    const int n = 64;
    const auto density =
        randomVector(static_cast<std::size_t>(n) * n, 800);
    const auto other =
        randomVector(static_cast<std::size_t>(n) * n, 801);
    const PoissonSolver solver(n, n, 2000.0, 2000.0, pool());
    const PoissonSolver::Solution first = solver.solve(density);
    solver.solve(other);
    const PoissonSolver::Solution again = solver.solve(density);
    EXPECT_TRUE(bitwiseEqual(first.fieldX, again.fieldX));
    EXPECT_TRUE(bitwiseEqual(first.fieldY, again.fieldY));
}

// Three threads split 16 blocks unevenly across chunks.
INSTANTIATE_TEST_SUITE_P(Threads, PlanThreads,
                         ::testing::Values(1, 2, 3, 8));

TEST(PlanCache, SharesOnePlanPerLength)
{
    const auto a = PlanCache::dct(64);
    const auto b = PlanCache::dct(64);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), PlanCache::dct(128).get());
    EXPECT_GE(PlanCache::size(), 2u);
}

TEST(PlanCache, RectangularMapsUseBothLengths)
{
    // A non-square map exercises distinct row/column plans through one
    // shared scratch, mirroring a rectangular Poisson grid; both
    // orientations, every kind, and the solve itself.
    for (const auto &[nx, ny] : {std::pair{32, 256}, std::pair{256, 32}}) {
        DctScratch scratch;
        for (const Dct::Kind kind : kKinds) {
            const auto map = randomVector(
                static_cast<std::size_t>(nx) * ny,
                900 + static_cast<std::size_t>(kind));
            std::vector<double> reference = map;
            std::vector<double> planned = map;
            Dct::transformRowsUnplanned(reference, nx, ny, kind, nullptr);
            Dct::transformColsUnplanned(reference, nx, ny, kind, nullptr);
            PlanCache::dct(nx)->transformRows(planned, nx, ny, kind,
                                              nullptr, scratch);
            PlanCache::dct(ny)->transformCols(planned, nx, ny, kind,
                                              nullptr, scratch);
            EXPECT_TRUE(bitwiseEqual(reference, planned))
                << nx << " x " << ny << " kind " << static_cast<int>(kind);
        }
        const auto density =
            randomVector(static_cast<std::size_t>(nx) * ny, 950);
        const PoissonSolver solver(nx, ny, 1000.0, 3000.0);
        const oracle::Poisson unplanned(nx, ny, 1000.0, 3000.0, nullptr);
        const PoissonSolver::Solution &a = solver.solve(density);
        const oracle::Poisson::Solution b = unplanned.solve(density);
        EXPECT_TRUE(bitwiseEqual(a.fieldX, b.fieldX)) << nx << " x " << ny;
        EXPECT_TRUE(bitwiseEqual(a.fieldY, b.fieldY)) << nx << " x " << ny;
    }
}

TEST(Plan, NonPowerOfTwoLengthPanics)
{
    EXPECT_THROW(FftPlan(12), std::logic_error);
    EXPECT_THROW(DctPlan(10), std::logic_error);
    EXPECT_THROW(PlanCache::dct(48), std::logic_error);
}

} // namespace
} // namespace qplacer
