/**
 * @file
 * Cell-list frequency force vs. the all-pairs reference.
 *
 * OracleFreqForce walks every near-resonant pair of a CollisionMap and
 * skips the ones out of range -- the force's original formulation,
 * run serially. FreqForceModel finds the same pairs through a cell
 * list; at every thread count it must reproduce the serial oracle's
 * gradient and potential bit for bit, on placed devices and on the
 * geometric edge cases of the grid (clamping, one cell,
 * boundary-straddling pairs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>

#include "core/freq_force.hpp"
#include "core/placer.hpp"
#include "freq/collision_map.hpp"
#include "pipeline/context.hpp"
#include "pipeline/stage.hpp"
#include "topology/factory.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

/**
 * The all-pairs frequency force over CollisionMap partner lists, run
 * serially: pairs (i, j > i) by ascending i, then j.
 */
class OracleFreqForce
{
  public:
    OracleFreqForce(const Netlist &netlist, const CollisionMap &map,
                    double cutoff_factor)
        : map_(map), cutoffFactor_(cutoff_factor)
    {
        charge_.resize(netlist.instances().size());
        for (std::size_t i = 0; i < charge_.size(); ++i)
            charge_[i] = std::sqrt(netlist.instances()[i].paddedArea());
    }

    double evaluate(const std::vector<Vec2> &positions,
                    std::vector<Vec2> &gradient) const
    {
        gradient.assign(positions.size(), Vec2());
        double potential = 0.0;
        for (std::size_t i = 0; i < positions.size(); ++i) {
            for (std::int32_t j : map_.partners(i)) {
                if (static_cast<std::size_t>(j) <= i)
                    continue; // handle each unordered pair once
                const double s = charge_[i] * charge_[j];
                const double radius =
                    cutoffFactor_ * (charge_[i] + charge_[j]);
                Vec2 delta = positions[i] - positions[j];
                double d = delta.norm();
                if (d >= radius)
                    continue; // already spatially isolated
                const double d_min = 0.25 * (charge_[i] + charge_[j]);
                if (d < 1e-9) {
                    const double ang =
                        0.7548776662 * static_cast<double>(i * 31 + j);
                    delta = Vec2(std::cos(ang), std::sin(ang)) * d_min;
                    d = d_min;
                } else if (d < d_min) {
                    delta = delta * (d_min / d);
                    d = d_min;
                }
                potential += s * (1.0 / d - 1.0 / radius);
                const double coef = -s / (d * d * d);
                gradient[i] += delta * coef;
                gradient[j] -= delta * coef;
            }
        }
        return potential;
    }

  private:
    const CollisionMap &map_;
    std::vector<double> charge_;
    double cutoffFactor_;
};

constexpr double kThresholdHz = 0.1e9;
constexpr double kCutoff = 0.75;
/** Cutoff radius of two qubits below: 0.75 * (800 + 800). */
constexpr double kQubitRadius = 1200.0;

bool
sameBits(const std::vector<Vec2> &a, const std::vector<Vec2> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec2)) == 0);
}

/**
 * Memcmp the cell-list force at threads 1..4 against the serial
 * oracle: every thread count must reproduce the serial bits. Returns
 * the oracle's potential.
 */
double
expectBitwise(const Netlist &nl, const std::vector<Vec2> &pos,
              double threshold_hz = kThresholdHz, double cutoff = kCutoff)
{
    const CollisionMap map(nl.frequencies(), nl.resonatorGroups(),
                           threshold_hz);
    std::vector<Vec2> want;
    const double u_want = OracleFreqForce(nl, map, cutoff).evaluate(pos, want);
    for (int threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<ThreadPool>(threads);
        const FreqForceModel model(nl, threshold_hz, cutoff, pool.get());

        std::vector<Vec2> got;
        const double u_got = model.evaluate(pos, got);
        EXPECT_EQ(std::memcmp(&u_got, &u_want, sizeof(double)), 0)
            << u_got << " vs " << u_want;
        EXPECT_TRUE(sameBits(got, want));
        // A second call reuses the model's cell-list buffers.
        std::vector<Vec2> again;
        const double u_again = model.evaluate(pos, again);
        EXPECT_EQ(std::memcmp(&u_again, &u_got, sizeof(double)), 0);
        EXPECT_TRUE(sameBits(again, got));
    }
    return u_want;
}

Instance
qubit(double freq_hz)
{
    Instance inst;
    inst.kind = InstanceKind::Qubit;
    inst.width = inst.height = 400;
    inst.pad = 400; // charge 800
    inst.freqHz = freq_hz;
    return inst;
}

Instance
segment(int resonator, int index, double freq_hz)
{
    Instance inst;
    inst.kind = InstanceKind::ResonatorSegment;
    inst.resonator = resonator;
    inst.segment = index;
    inst.width = inst.height = 300;
    inst.pad = 100; // charge 400
    inst.freqHz = freq_hz;
    return inst;
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
placedDevice(const std::string &spec, int iters, PlacerParams &placer)
{
    Topology topo;
    std::string error;
    EXPECT_TRUE(resolveTopologySpec(spec, topo, &error)) << error;
    FlowParams params;
    params.mode = PlacerMode::Qplacer;
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
    placer = ctx.params.placer;
    if (iters > 0) {
        PlacerParams budget = placer;
        budget.maxIters = iters;
        budget.minIters = std::min(budget.minIters, iters);
        GlobalPlacer(budget).place(nl, nullptr);
    }
    return nl;
}

// std::string, not const char *: GoogleTest prints a pointer inside a
// tuple by its address, which would put the address in the test names.
class OracleDevices
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(OracleDevices, BitwiseEqualAtEveryThreadCount)
{
    const auto [spec, iters] = GetParam();
    PlacerParams placer;
    const Netlist nl = placedDevice(spec, iters, placer);
    ASSERT_GT(nl.numInstances(), 256); // several chunks at threads > 1
    const std::vector<Vec2> pos = positionsOf(nl);
    expectBitwise(nl, pos, placer.detuningThresholdHz,
                  placer.freqCutoffFactor);

    // Early layouts keep most resonant pairs out of range; the same
    // layout shrunk about the region centre packs many into range.
    const Vec2 centre = nl.region().center();
    std::vector<Vec2> packed;
    for (const Vec2 &p : pos)
        packed.push_back(centre + (p - centre) * 0.2);
    EXPECT_GT(expectBitwise(nl, packed, placer.detuningThresholdHz,
                            placer.freqCutoffFactor),
              0.0);
}

INSTANTIATE_TEST_SUITE_P(
    FreqForceOracle, OracleDevices,
    ::testing::Combine(::testing::Values("Falcon", "grid8x8", "grid16x16"),
                       ::testing::Values(0, 20, 60)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_iter" +
               std::to_string(std::get<1>(info.param));
    });

TEST(FreqForceOracle, EmptyAndSingleInstance)
{
    Netlist empty;
    empty.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_EQ(expectBitwise(empty, {}), 0.0);

    Netlist one;
    one.addInstance(qubit(5.0e9));
    one.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_EQ(expectBitwise(one, {{5000, 5000}}), 0.0);
}

TEST(FreqForceOracle, CoincidentInstancesTieBreak)
{
    Netlist nl;
    std::vector<Vec2> pos;
    for (int i = 0; i < 8; ++i) {
        nl.addInstance(qubit(5.0e9));
        pos.push_back(i < 6 ? Vec2(3000, 3000) : Vec2(7000, 2000));
    }
    nl.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_GT(expectBitwise(nl, pos), 0.0);
}

TEST(FreqForceOracle, PositionsOutsideTheRegion)
{
    // Instances scattered over 3x the region in each axis, so most are
    // clamped into the border cells.
    Netlist nl;
    std::vector<Vec2> pos;
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> coord(-10000.0, 20000.0);
    for (int i = 0; i < 600; ++i) {
        nl.addInstance(qubit(5.0e9 + 0.2e9 * (i % 3)));
        const double x = coord(rng);
        pos.emplace_back(x, coord(rng));
    }
    nl.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_GT(expectBitwise(nl, pos), 0.0);
}

TEST(FreqForceOracle, EverythingInOneCell)
{
    // The region is narrower than one cutoff radius: a 1x1 grid.
    Netlist nl;
    std::vector<Vec2> pos;
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> coord(0.0, 1000.0);
    for (int i = 0; i < 600; ++i) {
        nl.addInstance(qubit(5.0e9 + 0.2e9 * (i % 4)));
        const double x = coord(rng);
        pos.emplace_back(x, coord(rng));
    }
    nl.setRegion(Rect(0, 0, 1000, 1000));
    EXPECT_GT(expectBitwise(nl, pos), 0.0);
}

TEST(FreqForceOracle, PairsJustInsideRangeStraddleCellBoundaries)
{
    // Pairs at d = R (1 - 1e-12), swept in steps finer than the cell
    // edge so every cell boundary is straddled horizontally,
    // vertically and diagonally. Each pair has its own frequency slot,
    // so only the two partners interact.
    const double d = kQubitRadius * (1.0 - 1e-12);
    const double extent = 20000.0;
    const double step = 97.3;
    Netlist nl;
    std::vector<Vec2> pos;
    int pair = 0;
    auto addPair = [&](Vec2 a, Vec2 offset) {
        const double f = 5.0e9 + 0.25e9 * pair++;
        nl.addInstance(qubit(f));
        nl.addInstance(qubit(f));
        pos.push_back(a);
        pos.push_back(a + offset);
    };
    for (double t = 0.3; t + d < extent; t += step) {
        const double across = std::fmod(t * 7.1, extent - d);
        addPair(Vec2(t, across), Vec2(d, 0));
        addPair(Vec2(across, t), Vec2(0, d));
        addPair(Vec2(t, t), Vec2(d / std::sqrt(2.0), d / std::sqrt(2.0)));
    }
    nl.setRegion(Rect(0, 0, extent, extent));
    EXPECT_GT(expectBitwise(nl, pos), 0.0);

    // Every instance is in range of its partner.
    const FreqForceModel model(nl, kThresholdHz, kCutoff);
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    for (std::size_t i = 0; i < grad.size(); ++i)
        EXPECT_GT(grad[i].norm(), 0.0) << "instance " << i;
}

TEST(FreqForceOracle, SameResonatorSegmentsExcluded)
{
    // Two resonators on one frequency, segments interleaved in space:
    // only cross-resonator segment pairs repel.
    Netlist nl;
    std::vector<Vec2> pos;
    nl.addInstance(qubit(5.0e9));
    pos.emplace_back(1000, 1000);
    for (int s = 0; s < 6; ++s) {
        nl.addInstance(segment(s % 2, s / 2, 6.5e9));
        pos.emplace_back(2000 + 150.0 * s, 2000 + 40.0 * s);
    }
    nl.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_GT(expectBitwise(nl, pos), 0.0);

    // One resonator alone feels nothing.
    Netlist alone;
    for (int s = 0; s < 3; ++s)
        alone.addInstance(segment(0, s, 6.5e9));
    alone.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_EQ(expectBitwise(alone, {{2000, 2000}, {2100, 2000}, {2200, 2000}}),
              0.0);
}

TEST(FreqForceOracle, DetuningExactlyAtThresholdIsDetuned)
{
    // 5.1 GHz - 5.0 GHz is exactly the 0.1 GHz threshold: not resonant.
    Netlist at;
    at.addInstance(qubit(5.0e9));
    at.addInstance(qubit(5.1e9));
    at.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_EQ(expectBitwise(at, {{3000, 3000}, {3500, 3000}}), 0.0);

    // One hertz inside the threshold resonates with both.
    Netlist inside;
    inside.addInstance(qubit(5.0e9));
    inside.addInstance(qubit(5.1e9));
    inside.addInstance(qubit(5.0e9 + 0.1e9 - 1.0));
    inside.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_GT(expectBitwise(inside,
                            {{3000, 3000}, {3500, 3000}, {3250, 3400}}),
              0.0);
}

} // namespace
} // namespace qplacer
