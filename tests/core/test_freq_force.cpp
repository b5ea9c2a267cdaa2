#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/freq_force.hpp"

namespace qplacer {
namespace {

Netlist
freqNetlist(const std::vector<double> &freqs,
            const std::vector<int> &groups)
{
    Netlist nl;
    int qubits = 0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        Instance inst;
        if (groups[i] < 0) {
            inst.kind = InstanceKind::Qubit;
            inst.width = inst.height = 400;
            inst.pad = 400;
            ++qubits;
        } else {
            inst.kind = InstanceKind::ResonatorSegment;
            inst.resonator = groups[i];
            inst.segment = 0;
            inst.width = inst.height = 300;
            inst.pad = 100;
        }
        inst.freqHz = freqs[i];
        if (groups[i] >= 0 && qubits == 0) {
            // netlist requires qubits first; tests below always pass
            // qubit groups first, so this branch is unused.
        }
        nl.addInstance(inst);
    }
    nl.setRegion(Rect(0, 0, 20000, 20000));
    return nl;
}

TEST(FreqForce, ResonantPairsRepel)
{
    const Netlist nl =
        freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9);
    std::vector<Vec2> pos{{1000, 1000}, {1500, 1000}};
    std::vector<Vec2> grad;
    const double u = model.evaluate(pos, grad);
    EXPECT_GT(u, 0.0);
    // Descending the gradient pushes them apart along x.
    EXPECT_GT(grad[0].x, 0.0);
    EXPECT_LT(grad[1].x, 0.0);
    EXPECT_NEAR(grad[0].y, 0.0, 1e-12);
}

TEST(FreqForce, DetunedPairsIgnoreEachOther)
{
    const Netlist nl = freqNetlist({5.0e9, 5.2e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9);
    std::vector<Vec2> pos{{1000, 1000}, {1200, 1000}};
    std::vector<Vec2> grad;
    EXPECT_DOUBLE_EQ(model.evaluate(pos, grad), 0.0);
    EXPECT_EQ(grad[0].x, 0.0);
}

TEST(FreqForce, TruncatedBeyondCutoff)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.8);
    // charge = 800 each -> cutoff radius 0.8 * 1600 = 1280 um.
    std::vector<Vec2> far{{1000, 1000}, {3000, 1000}};
    std::vector<Vec2> grad;
    EXPECT_DOUBLE_EQ(model.evaluate(far, grad), 0.0);

    std::vector<Vec2> near{{1000, 1000}, {2000, 1000}};
    EXPECT_GT(model.evaluate(near, grad), 0.0);
}

TEST(FreqForce, PotentialContinuousAtCutoff)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.8);
    std::vector<Vec2> grad;
    std::vector<Vec2> pos{{0, 0}, {1279.9, 0}};
    const double just_inside = model.evaluate(pos, grad);
    EXPECT_NEAR(just_inside, 0.0, 1.0); // ~0 at the boundary
}

TEST(FreqForce, GradientMatchesFiniteDifference)
{
    const Netlist nl =
        freqNetlist({5.0e9, 5.05e9, 5.02e9}, {-1, -1, -1});
    const FreqForceModel model(nl, 0.1e9);
    std::vector<Vec2> pos{{900, 1000}, {1500, 1100}, {1100, 1600}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);

    const double h = 1e-3;
    std::vector<Vec2> dummy;
    for (std::size_t i = 0; i < pos.size(); ++i) {
        auto plus = pos;
        auto minus = pos;
        plus[i].x += h;
        minus[i].x -= h;
        const double fd =
            (model.evaluate(plus, dummy) - model.evaluate(minus, dummy)) /
            (2 * h);
        EXPECT_NEAR(grad[i].x, fd, 1e-4 * (1.0 + std::abs(fd)));
    }
}

TEST(FreqForce, CoincidentInstancesGetFinitePush)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9);
    std::vector<Vec2> pos{{1000, 1000}, {1000, 1000}};
    std::vector<Vec2> grad;
    const double u = model.evaluate(pos, grad);
    EXPECT_TRUE(std::isfinite(u));
    EXPECT_GT(grad[0].norm(), 0.0);
    EXPECT_TRUE(std::isfinite(grad[0].x));
}

TEST(FreqForce, SameResonatorSegmentsExcluded)
{
    Netlist nl;
    for (int i = 0; i < 2; ++i) {
        Instance seg;
        seg.kind = InstanceKind::ResonatorSegment;
        seg.resonator = 0;
        seg.segment = i;
        seg.width = seg.height = 300;
        seg.pad = 100;
        seg.freqHz = 6.5e9;
        nl.addInstance(seg);
    }
    nl.setRegion(Rect(0, 0, 10000, 10000));
    const FreqForceModel model(nl, 0.1e9);
    std::vector<Vec2> pos{{1000, 1000}, {1100, 1000}};
    std::vector<Vec2> grad;
    EXPECT_DOUBLE_EQ(model.evaluate(pos, grad), 0.0);
    EXPECT_EQ(grad[0].x, 0.0);
    EXPECT_EQ(grad[0].y, 0.0);
    EXPECT_EQ(grad[1].x, 0.0);
    EXPECT_EQ(grad[1].y, 0.0);
}

TEST(FreqForce, NonFinitePositionPanics)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9);
    std::vector<Vec2> grad;
    std::vector<Vec2> nan_pos{{1000, 1000}, {std::nan(""), 1000}};
    EXPECT_THROW(model.evaluate(nan_pos, grad), std::logic_error);
    std::vector<Vec2> inf_pos{{1000, HUGE_VAL}, {1000, 1000}};
    EXPECT_THROW(model.evaluate(inf_pos, grad), std::logic_error);
    try {
        model.evaluate(nan_pos, grad);
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("instance 1"),
                  std::string::npos);
    }
}

} // namespace
} // namespace qplacer
