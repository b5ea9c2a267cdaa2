/**
 * @file
 * Field-only density engine vs. the full electrostatics reference.
 *
 * oracle::Poisson (tests/oracles/spectral) and OracleDensity are the
 * solver and density model as they were before the potential was
 * dropped: the solve synthesizes psi as well as the field, the density
 * model samples psi, xi_x and xi_y in three walks and returns the
 * energy sum_i q_i psi(x_i). They run on the plan-free row/column
 * passes. The production PoissonSolver and DensityModel must reproduce
 * the oracle's field maps, gradient and overflow bit for bit, at every
 * thread count against the serial oracle, on placed devices and on
 * degenerate layouts. The
 * potential and energy checks (Laplacian, field = -grad psi, energy
 * ordering, thread invariance) live here too, on the oracle, since
 * production no longer computes either quantity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <string>

#include "core/density.hpp"
#include "core/freq_force.hpp"
#include "core/objective.hpp"
#include "core/placer.hpp"
#include "core/poisson.hpp"
#include "core/wirelength.hpp"
#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "oracles/spectral.hpp"
#include "pipeline/context.hpp"
#include "pipeline/stage.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

/** @p r shifted into @p g's region, clipped if larger than it. */
Rect
clampIntoRegion(const BinGrid &g, const Rect &r)
{
    const Rect &region = g.region();
    Rect out = r;
    if (out.lo.x < region.lo.x)
        out = out.translated({region.lo.x - out.lo.x, 0.0});
    if (out.hi.x > region.hi.x)
        out = out.translated({region.hi.x - out.hi.x, 0.0});
    if (out.lo.y < region.lo.y)
        out = out.translated({0.0, region.lo.y - out.lo.y});
    if (out.hi.y > region.hi.y)
        out = out.translated({0.0, region.hi.y - out.hi.y});
    return out.intersect(region);
}

/** Area-weighted average of one map (laid out like @p g) over @p rect. */
double
sampleOne(const BinGrid &g, const std::vector<double> &map,
          const Rect &rect)
{
    const Rect r = clampIntoRegion(g, rect);
    if (r.empty())
        return 0.0;
    const int ix0 = g.clampX(r.lo.x);
    const int ix1 = g.clampX(r.hi.x - 1e-12);
    const int iy0 = g.clampY(r.lo.y);
    const int iy1 = g.clampY(r.hi.y - 1e-12);
    double acc = 0.0;
    double wsum = 0.0;
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const double w = g.binRect(ix, iy).overlapArea(r);
            acc += w * map[static_cast<std::size_t>(iy) * g.nx() + ix];
            wsum += w;
        }
    }
    return wsum > 0.0 ? acc / wsum : 0.0;
}

/**
 * Density model that samples psi, xi_x, xi_y and returns the energy.
 * Its splat and sums run serially; @p pool only runs the Poisson
 * solve's row and column transforms, which are thread-count invariant.
 */
class OracleDensity
{
  public:
    OracleDensity(const Netlist &netlist, int bins, double target_density,
                  ThreadPool *pool)
        : netlist_(netlist),
          grid_(netlist.region(), bins, bins),
          solver_(bins, bins, netlist.region().width(),
                  netlist.region().height(), pool),
          targetDensity_(target_density)
    {}

    double evaluate(const std::vector<Vec2> &positions,
                    std::vector<Vec2> &gradient)
    {
        const auto &instances = netlist_.instances();
        gradient.assign(positions.size(), Vec2());

        grid_.clear();
        for (std::size_t i = 0; i < instances.size(); ++i) {
            const Instance &inst = instances[i];
            const Rect fp = Rect::fromCenter(
                positions[i], inst.paddedWidth(), inst.paddedHeight());
            grid_.splat(fp, inst.paddedArea());
        }

        const double capacity = targetDensity_ * grid_.binArea();
        double over = 0.0;
        double total_charge = 0.0;
        for (const double q : grid_.data()) {
            over += std::max(0.0, q - capacity);
            total_charge += q;
        }
        overflow_ = total_charge > 0.0 ? over / total_charge : 0.0;

        std::vector<double> density = grid_.data();
        const double inv_bin_area = 1.0 / grid_.binArea();
        for (double &rho : density)
            rho *= inv_bin_area;

        const oracle::Poisson::Solution sol = solver_.solve(density);

        double energy = 0.0;
        for (std::size_t i = 0; i < instances.size(); ++i) {
            const Instance &inst = instances[i];
            const double q = inst.paddedArea();
            const Rect fp = Rect::fromCenter(
                positions[i], inst.paddedWidth(), inst.paddedHeight());
            energy += q * sampleOne(grid_, sol.potential, fp);
            gradient[i].x = -q * sampleOne(grid_, sol.fieldX, fp);
            gradient[i].y = -q * sampleOne(grid_, sol.fieldY, fp);
        }
        return energy;
    }

    double overflow() const { return overflow_; }

  private:
    const Netlist &netlist_;
    BinGrid grid_;
    oracle::Poisson solver_;
    double targetDensity_;
    double overflow_ = 1.0;
};

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

bool
sameBits(const std::vector<Vec2> &a, const std::vector<Vec2> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec2)) == 0);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Pool of @p threads workers, or none for one thread. */
std::unique_ptr<ThreadPool>
poolFor(int threads)
{
    return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

/** Reproducible pseudo-random map without <random> overhead. */
std::vector<double>
syntheticMap(std::size_t n, double scale)
{
    std::vector<double> map(n);
    for (std::size_t i = 0; i < n; ++i)
        map[i] = scale * std::sin(0.37 * static_cast<double>(i) + 1.1) +
                 0.5 * std::cos(1.93 * static_cast<double>(i));
    return map;
}

/**
 * Memcmp DensityModel at threads 1..4 against the serial oracle, twice
 * per thread count (the second call reuses every buffer): every thread
 * count must reproduce the serial bits.
 */
void
expectBitwise(const Netlist &nl, const std::vector<Vec2> &pos, int bins)
{
    OracleDensity oracle(nl, bins, 0.9, nullptr);
    std::vector<Vec2> want;
    oracle.evaluate(pos, want);
    for (int threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " bins=" + std::to_string(bins));
        const auto pool = poolFor(threads);
        DensityModel model(nl, bins, 0.9, pool.get());
        for (int call = 0; call < 2; ++call) {
            std::vector<Vec2> got;
            model.evaluate(pos, got);
            EXPECT_TRUE(sameBits(got, want)) << "call " << call;
            EXPECT_TRUE(sameBits(model.overflow(), oracle.overflow()))
                << model.overflow() << " vs " << oracle.overflow();
        }
    }
}

std::vector<Vec2>
positionsOf(const Netlist &nl)
{
    std::vector<Vec2> pos;
    for (const Instance &inst : nl.instances())
        pos.push_back(inst.pos);
    return pos;
}

/** @p spec assigned, built, and globally placed for @p iters iterations. */
Netlist
placedDevice(const std::string &spec, PlacerMode mode, int iters)
{
    Topology topo;
    std::string error;
    EXPECT_TRUE(resolveTopologySpec(spec, topo, &error)) << error;
    FlowParams params;
    params.mode = mode;
    params.placer.seed = 1;
    params.placer.threads = 1;
    FlowContext ctx;
    ctx.topo = &topo;
    ctx.params = params.normalized();
    ctx.logging = false;
    std::vector<std::unique_ptr<FlowStage>> stages;
    stages.push_back(makeAssignStage());
    stages.push_back(makeBuildStage());
    runStages(ctx, stages);
    EXPECT_TRUE(ctx.result.status.ok()) << ctx.result.status.message;
    Netlist nl = std::move(ctx.result.netlist);
    if (iters > 0) {
        PlacerParams budget = ctx.params.placer;
        budget.maxIters = iters;
        budget.minIters = std::min(budget.minIters, iters);
        GlobalPlacer(budget).place(nl, nullptr);
    }
    return nl;
}

Netlist
blockNetlist(int n, double size, double region_side)
{
    Netlist nl;
    for (int i = 0; i < n; ++i) {
        Instance q;
        q.kind = InstanceKind::Qubit;
        q.width = q.height = size;
        q.pad = 0.0;
        nl.addInstance(q);
    }
    nl.setRegion(Rect(0, 0, region_side, region_side));
    return nl;
}

Netlist
gridNetlist(int rows, int cols)
{
    const Topology topo = makeGrid(rows, cols);
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs);
}

TEST(DensityOracle, SolveMatchesOracleBitwise)
{
    struct Shape
    {
        int nx;
        int ny;
    };
    const Shape shapes[] = {{16, 32}, {32, 16}, {64, 64}, {128, 128},
                            {256, 256}};
    for (const Shape &shape : shapes) {
        const std::size_t cells =
            static_cast<std::size_t>(shape.nx) * shape.ny;
        const std::vector<double> density = syntheticMap(cells, 4.0);
        const std::vector<double> other = syntheticMap(cells, -2.5);
        std::vector<double> serial_potential;
        for (int threads = 1; threads <= 4; ++threads) {
            SCOPED_TRACE(std::to_string(shape.nx) + "x" +
                         std::to_string(shape.ny) +
                         " threads=" + std::to_string(threads));
            const auto pool = poolFor(threads);
            const oracle::Poisson reference(shape.nx, shape.ny, 1000.0,
                                            800.0, pool.get());
            const oracle::Poisson::Solution want =
                reference.solve(density);
            PoissonSolver solver(shape.nx, shape.ny, 1000.0, 800.0,
                                 pool.get());
            // A solve on other data first: the solver-owned buffers
            // must carry nothing over.
            solver.solve(other);
            const PoissonSolver::Solution &got = solver.solve(density);
            EXPECT_TRUE(sameBits(got.fieldX, want.fieldX));
            EXPECT_TRUE(sameBits(got.fieldY, want.fieldY));

            // The in-place entry point sees the same input.
            solver.input() = density;
            const PoissonSolver::Solution &again = solver.solve();
            EXPECT_TRUE(sameBits(again.fieldX, want.fieldX));
            EXPECT_TRUE(sameBits(again.fieldY, want.fieldY));
            // The reference kernels are thread-count invariant, so the
            // potential is too.
            if (threads == 1)
                serial_potential = want.potential;
            EXPECT_TRUE(sameBits(want.potential, serial_potential));
        }
    }
}

// std::string, not const char *: GoogleTest prints a pointer inside a
// tuple by its address, which would put the address in the test names.
class OracleDevices
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(OracleDevices, EvaluateBitwiseEqualAtEveryThreadCount)
{
    const auto [spec, iters] = GetParam();
    // grid32x32 runs in Classic mode (the classic-1k benchmark), the
    // paper-size devices in Qplacer mode.
    const PlacerMode mode = spec == "grid32x32"
                                ? PlacerMode::Classic
                                : PlacerMode::Qplacer;
    const Netlist nl = placedDevice(spec, mode, iters);
    ASSERT_GT(nl.numInstances(), 256); // several chunks at threads > 1
    const std::vector<Vec2> pos = positionsOf(nl);
    const int bins = DensityModel::autoBinCount(nl.numInstances());
    expectBitwise(nl, pos, bins);
    if (bins < 256)
        expectBitwise(nl, pos, 2 * bins);
}

INSTANTIATE_TEST_SUITE_P(
    DensityOracle, OracleDevices,
    ::testing::Combine(::testing::Values("Falcon", "grid8x8", "grid32x32"),
                       ::testing::Values(0, 20, 60)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_iter" +
               std::to_string(std::get<1>(info.param));
    });

TEST(DensityOracle, CoincidentInstances)
{
    // Enough instances that the splat and sampling loops chunk.
    const Netlist nl = blockNetlist(600, 300, 20000);
    const std::vector<Vec2> stacked(600, Vec2(7000, 9000));
    expectBitwise(nl, stacked, 64);
    // Two stacks, one of them on a bin corner.
    std::vector<Vec2> two(600, Vec2(10000, 10000));
    for (std::size_t i = 0; i < two.size(); i += 2)
        two[i] = Vec2(3125, 3125);
    expectBitwise(nl, two, 64);
}

TEST(DensityOracle, OutOfRegionInstances)
{
    const Netlist nl = blockNetlist(600, 300, 20000);
    std::vector<Vec2> pos;
    for (int i = 0; i < 600; ++i) {
        const double t = 0.37 * i;
        // A ring straddling the region border, with some instances far
        // outside it and some footprints larger than a bin.
        const double r = 9000.0 + 4000.0 * std::sin(1.3 * t) +
                         (i % 50 == 0 ? 1e6 : 0.0);
        pos.emplace_back(10000.0 + r * std::cos(t),
                         10000.0 + r * std::sin(t));
    }
    expectBitwise(nl, pos, 32);
    expectBitwise(nl, pos, 128);
    // Footprints larger than the whole region are clipped.
    const Netlist huge = blockNetlist(300, 30000, 20000);
    expectBitwise(huge, std::vector<Vec2>(300, Vec2(-500, 25000)), 32);
}

// Potential and energy properties, checked on the oracle.

TEST(Poisson, UniformDensityGivesZeroField)
{
    PoissonSolver solver(32, 32, 1000, 1000);
    const std::vector<double> rho(32 * 32, 2.5);
    const auto &sol = solver.solve(rho);
    for (double v : sol.fieldX)
        EXPECT_NEAR(v, 0.0, 1e-9);
    for (double v : sol.fieldY)
        EXPECT_NEAR(v, 0.0, 1e-9);
    const auto ref =
        oracle::Poisson(32, 32, 1000, 1000, nullptr).solve(rho);
    for (double v : ref.potential)
        EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Poisson, SolutionSatisfiesDiscreteLaplacian)
{
    // Verify -laplacian(psi) ~ rho - mean(rho) for a smooth density.
    const int n = 64;
    const double size = 1000.0;
    const oracle::Poisson solver(n, n, size, size, nullptr);
    std::vector<double> rho(n * n);
    const double h = size / n;
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            // A smooth cosine bump (satisfies Neumann BCs).
            rho[y * n + x] =
                std::cos(std::numbers::pi * (x + 0.5) / n) *
                std::cos(2 * std::numbers::pi * (y + 0.5) / n);
        }
    }
    const auto sol = solver.solve(rho);

    double max_err = 0.0;
    for (int y = 1; y + 1 < n; ++y) {
        for (int x = 1; x + 1 < n; ++x) {
            const double lap =
                (sol.potential[y * n + x + 1] +
                 sol.potential[y * n + x - 1] +
                 sol.potential[(y + 1) * n + x] +
                 sol.potential[(y - 1) * n + x] -
                 4 * sol.potential[y * n + x]) /
                (h * h);
            max_err = std::max(max_err,
                               std::abs(-lap - rho[y * n + x]));
        }
    }
    // Second-order finite-difference agreement with the spectral answer.
    EXPECT_LT(max_err, 5e-3);
}

TEST(Poisson, FieldIsNegativeGradientOfPotential)
{
    // The production field against the oracle's potential.
    const int n = 64;
    const double size = 2000.0;
    PoissonSolver solver(n, n, size, size);
    std::vector<double> rho(n * n, 0.0);
    // Central blob.
    for (int y = 28; y < 36; ++y)
        for (int x = 28; x < 36; ++x)
            rho[y * n + x] = 1.0;
    const auto &sol = solver.solve(rho);
    const auto ref = oracle::Poisson(n, n, size, size, nullptr).solve(rho);

    const double h = size / n;
    double max_err = 0.0;
    double max_field = 0.0;
    for (int y = 1; y + 1 < n; ++y) {
        for (int x = 1; x + 1 < n; ++x) {
            const double gx = (ref.potential[y * n + x + 1] -
                               ref.potential[y * n + x - 1]) /
                              (2 * h);
            max_err =
                std::max(max_err, std::abs(sol.fieldX[y * n + x] + gx));
            max_field =
                std::max(max_field, std::abs(sol.fieldX[y * n + x]));
        }
    }
    EXPECT_LT(max_err, 0.05 * max_field);
}

TEST(Poisson, PotentialHighestAtCharge)
{
    const int n = 32;
    const oracle::Poisson solver(n, n, 1000, 1000, nullptr);
    std::vector<double> rho(n * n, 0.0);
    rho[(n / 2) * n + n / 2] = 1.0;
    const auto sol = solver.solve(rho);
    const double center = sol.potential[(n / 2) * n + n / 2];
    for (double v : sol.potential)
        EXPECT_LE(v, center + 1e-12);
}

TEST(Density, EnergyDropsWhenSpreading)
{
    Netlist nl = blockNetlist(4, 400, 4000);
    OracleDensity model(nl, 32, 0.9, nullptr);
    std::vector<Vec2> grad;
    const std::vector<Vec2> stacked(4, Vec2(2000, 2000));
    const double e_stacked = model.evaluate(stacked, grad);
    const std::vector<Vec2> spread{
        {800, 800}, {3200, 800}, {800, 3200}, {3200, 3200}};
    const double e_spread = model.evaluate(spread, grad);
    EXPECT_LT(e_spread, e_stacked);
}

TEST(ParallelDensity, EnergyAndGradientMatchSerial)
{
    const Netlist netlist = gridNetlist(5, 5);
    // Large enough that the instance loops take the threaded path
    // instead of the serial-grain fallback.
    ASSERT_GE(netlist.instances().size(), ThreadPool::kGrainMedium);
    std::vector<Vec2> positions(netlist.instances().size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        positions[i] = netlist.instances()[i].pos;

    DensityModel serial(netlist, 32, 0.9);
    std::vector<Vec2> ref_grad;
    serial.evaluate(positions, ref_grad);
    const double ref_overflow = serial.overflow();
    std::vector<Vec2> oracle_grad;
    const double ref_energy =
        OracleDensity(netlist, 32, 0.9, nullptr)
            .evaluate(positions, oracle_grad);

    // Compare relative to the gradient scale: 1e-9 of the largest
    // component.
    double scale = std::abs(ref_energy);
    for (const Vec2 &g : ref_grad)
        scale = std::max({scale, std::abs(g.x), std::abs(g.y)});
    const double tol = 1e-9 * std::max(1.0, scale);

    for (const int threads : {2, 8}) {
        ThreadPool pool(threads);
        DensityModel threaded(netlist, 32, 0.9, &pool);
        std::vector<Vec2> grad;
        threaded.evaluate(positions, grad);
        const double energy = OracleDensity(netlist, 32, 0.9, &pool)
                                  .evaluate(positions, oracle_grad);
        EXPECT_NEAR(energy, ref_energy, tol) << threads << " threads";
        EXPECT_NEAR(threaded.overflow(), ref_overflow, 1e-12);
        ASSERT_EQ(grad.size(), ref_grad.size());
        for (std::size_t i = 0; i < grad.size(); ++i) {
            EXPECT_NEAR(grad[i].x, ref_grad[i].x, tol)
                << threads << " threads, instance " << i;
            EXPECT_NEAR(grad[i].y, ref_grad[i].y, tol)
                << threads << " threads, instance " << i;
        }
    }
}

/**
 * The penalized objective WL + lambda * D + lambda_f * F that
 * PlacementObjective no longer forms, rebuilt from the component models
 * with the oracle's density energy and @p obj's current multipliers.
 */
double
oracleTotal(const Netlist &netlist, const PlacerParams &params,
            const PlacementObjective &obj, ThreadPool *pool,
            const std::vector<Vec2> &positions)
{
    std::vector<Vec2> grad;
    const WirelengthModel wl(
        netlist, std::max(1e-3, params.gammaFrac * netlist.region().width()),
        pool);
    const int bins = params.bins > 0
                         ? params.bins
                         : DensityModel::autoBinCount(netlist.numInstances());
    OracleDensity density(netlist, bins, params.targetDensity, pool);
    const FreqForceModel freq(netlist, params.detuningThresholdHz,
                              params.freqCutoffFactor, pool);
    return wl.evaluate(positions, grad) +
           obj.lambda() * density.evaluate(positions, grad) +
           obj.freqLambda() * freq.evaluate(positions, grad);
}

TEST(ParallelObjective, FullGradientMatchesSerial)
{
    // Exercises every threaded model at once: wirelength, density,
    // frequency force, and the preconditioned combine. The netlist must
    // exceed the serial grain or the chunked paths are never taken.
    const Netlist netlist = gridNetlist(5, 5);
    ASSERT_GE(netlist.instances().size(), ThreadPool::kGrainMedium);
    ASSERT_GE(netlist.nets().size(), ThreadPool::kGrainMedium);
    std::vector<Vec2> positions(netlist.instances().size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        positions[i] = netlist.instances()[i].pos;

    PlacerParams params;
    ASSERT_TRUE(params.freqForce);
    PlacementObjective serial(netlist, params);
    serial.initPenalties(positions);
    std::vector<Vec2> ref_grad;
    serial.evaluate(positions, ref_grad);
    const double ref_total =
        oracleTotal(netlist, params, serial, nullptr, positions);

    double scale = std::abs(ref_total);
    for (const Vec2 &g : ref_grad)
        scale = std::max({scale, std::abs(g.x), std::abs(g.y)});
    const double tol = 1e-9 * std::max(1.0, scale);

    for (const int threads : {2, 8}) {
        ThreadPool pool(threads);
        PlacementObjective threaded(netlist, params, &pool);
        threaded.initPenalties(positions);
        std::vector<Vec2> grad;
        threaded.evaluate(positions, grad);
        const double total =
            oracleTotal(netlist, params, threaded, &pool, positions);
        EXPECT_NEAR(total, ref_total, tol) << threads << " threads";
        ASSERT_EQ(grad.size(), ref_grad.size());
        for (std::size_t i = 0; i < grad.size(); ++i) {
            EXPECT_NEAR(grad[i].x, ref_grad[i].x, tol)
                << threads << " threads, instance " << i;
            EXPECT_NEAR(grad[i].y, ref_grad[i].y, tol)
                << threads << " threads, instance " << i;
        }
    }
}

} // namespace
} // namespace qplacer
