/**
 * @file
 * Plan-equivalence suite: the precomputed DctPlan/FftPlan execution
 * path must be *bitwise*-identical (memcmp, not just EXPECT_DOUBLE_EQ)
 * to the plan-free kernels of tests/oracles/spectral, over random
 * inputs at every power-of-two length from 2 to 1024 and across thread
 * counts. This is the contract that lets the Poisson solver run on
 * plans without perturbing a single placement.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
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

class PlanSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PlanSizes, FftPlanMatchesFftBitwise)
{
    const std::size_t n = GetParam();
    const auto re = randomVector(n, 100 + n);
    const auto im = randomVector(n, 200 + n);
    std::vector<Complex> reference(n);
    for (std::size_t i = 0; i < n; ++i)
        reference[i] = Complex(re[i], im[i]);
    std::vector<Complex> planned = reference;

    const FftPlan plan(n);
    Fft::forward(reference);
    plan.forward(planned.data());
    ASSERT_EQ(0, std::memcmp(reference.data(), planned.data(),
                             n * sizeof(Complex)));

    Fft::inverse(reference);
    plan.inverse(planned.data());
    ASSERT_EQ(0, std::memcmp(reference.data(), planned.data(),
                             n * sizeof(Complex)));
}

TEST_P(PlanSizes, ApplyMatchesDctKernelsBitwise)
{
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    scratch.ensure(1);
    for (const Dct::Kind kind : kKinds) {
        const auto x =
            randomVector(n, 300 + n + static_cast<std::size_t>(kind));
        const std::vector<double> reference = Dct::apply(kind, x);
        std::vector<double> planned = x;
        plan.apply(kind, planned.data(), scratch.lane(0));
        EXPECT_TRUE(bitwiseEqual(reference, planned))
            << "kind " << static_cast<int>(kind) << " length " << n;
    }
}

TEST_P(PlanSizes, ScratchLaneReuseIsStateless)
{
    // Back-to-back transforms through one lane (as the batched passes
    // do) must not see stale state from the previous line.
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    scratch.ensure(1);
    for (int round = 0; round < 3; ++round) {
        for (const Dct::Kind kind : kKinds) {
            const auto x = randomVector(n, 400 + n + round);
            std::vector<double> planned = x;
            plan.apply(kind, planned.data(), scratch.lane(0));
            EXPECT_TRUE(bitwiseEqual(Dct::apply(kind, x), planned));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024));

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

INSTANTIATE_TEST_SUITE_P(Threads, PlanThreads,
                         ::testing::Values(1, 2, 8));

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
    // shared scratch, mirroring a rectangular Poisson grid.
    const int nx = 32;
    const int ny = 256;
    const auto map =
        randomVector(static_cast<std::size_t>(nx) * ny, 900);
    std::vector<double> reference = map;
    std::vector<double> planned = map;
    Dct::transformRowsUnplanned(reference, nx, ny, Dct::Kind::Dct2,
                                nullptr);
    Dct::transformColsUnplanned(reference, nx, ny, Dct::Kind::CosSeries,
                                nullptr);
    DctScratch scratch;
    PlanCache::dct(nx)->transformRows(planned, nx, ny, Dct::Kind::Dct2,
                                      nullptr, scratch);
    PlanCache::dct(ny)->transformCols(planned, nx, ny,
                                      Dct::Kind::CosSeries, nullptr,
                                      scratch);
    EXPECT_TRUE(bitwiseEqual(reference, planned));
}

TEST(Plan, NonPowerOfTwoLengthPanics)
{
    EXPECT_THROW(FftPlan(12), std::logic_error);
    EXPECT_THROW(DctPlan(10), std::logic_error);
    EXPECT_THROW(PlanCache::dct(48), std::logic_error);
}

} // namespace
} // namespace qplacer
