#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "freq/assigner.hpp"
#include "legal/tetris.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

Netlist
smallNetlist()
{
    const Topology topo = makeGrid(3, 3);
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs, 0.6);
}

std::vector<int>
allResonators(const Netlist &nl)
{
    std::vector<int> ids(nl.resonators().size());
    std::iota(ids.begin(), ids.end(), 0);
    return ids;
}

TEST(Tetris, PlacesAllSegmentsWithoutOverlap)
{
    Netlist nl = smallNetlist();
    OccupancyGrid grid(nl.region(), 100);
    // Fix qubits on the grid first.
    for (int q = 0; q < nl.numQubits(); ++q) {
        Instance &inst = nl.instance(q);
        inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                   inst.paddedHeight());
        // Nudge until free (qubits may snap onto each other).
        while (!grid.canPlace(Rect::fromCenter(inst.pos,
                                               inst.paddedWidth(),
                                               inst.paddedHeight()))) {
            inst.pos.x += 800;
            inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                       inst.paddedHeight());
        }
        grid.occupy(Rect::fromCenter(inst.pos, inst.paddedWidth(),
                                     inst.paddedHeight()),
                    q);
    }

    double displacement = 0.0;
    ASSERT_TRUE(tetrisLegalizeSegments(nl, grid, HotspotParams(), true,
                                       displacement, allResonators(nl)));
    EXPECT_GE(displacement, 0.0);

    // No padded overlaps among all instances.
    for (int i = 0; i < nl.numInstances(); ++i) {
        for (int j = i + 1; j < nl.numInstances(); ++j) {
            const Rect a = nl.instance(i).paddedRect();
            const Rect b = nl.instance(j).paddedRect();
            const Rect inter = a.intersect(b);
            EXPECT_FALSE(!inter.empty() && inter.width() > 1.0 &&
                         inter.height() > 1.0)
                << "instances " << i << " and " << j << " overlap";
        }
    }
}

TEST(Tetris, ChainsStayContiguous)
{
    Netlist nl = smallNetlist();
    OccupancyGrid grid(nl.region(), 100);
    for (int q = 0; q < nl.numQubits(); ++q) {
        Instance &inst = nl.instance(q);
        inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                   inst.paddedHeight());
        while (!grid.canPlace(Rect::fromCenter(inst.pos,
                                               inst.paddedWidth(),
                                               inst.paddedHeight()))) {
            inst.pos.x += 800;
            inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                       inst.paddedHeight());
        }
        grid.occupy(Rect::fromCenter(inst.pos, inst.paddedWidth(),
                                     inst.paddedHeight()),
                    q);
    }
    double displacement = 0.0;
    ASSERT_TRUE(tetrisLegalizeSegments(nl, grid, HotspotParams(), true,
                                       displacement, allResonators(nl)));

    // Consecutive chain segments end up near each other (the anchor
    // policy): median consecutive distance is a small number of blocks.
    for (const Resonator &res : nl.resonators()) {
        int close = 0;
        int total = 0;
        for (std::size_t s = 0; s + 1 < res.segments.size(); ++s) {
            const Vec2 a = nl.instance(res.segments[s]).pos;
            const Vec2 b = nl.instance(res.segments[s + 1]).pos;
            close += a.dist(b) <= 900.0;
            ++total;
        }
        if (total > 0) {
            EXPECT_GT(close * 2, total) << "resonator " << res.id;
        }
    }
}

TEST(Tetris, FailsGracefullyWhenRegionTooSmall)
{
    Netlist nl = smallNetlist();
    nl.setRegion(Rect(0, 0, 3000, 3000)); // far too small
    nl.clampIntoRegion();
    OccupancyGrid grid(nl.region(), 100);
    double displacement = 0.0;
    EXPECT_FALSE(tetrisLegalizeSegments(nl, grid, HotspotParams(), true,
                                        displacement, allResonators(nl)));
}

/**
 * Legalize resonator A, whose three global spots sit 100 um (padded
 * gap) above a fixed chain of resonator B at the same frequency, with
 * the tau probe under @p rule. Returns the smallest padded gap between
 * an A segment and a B segment afterwards. Plenty of clean slots
 * exist: the rest of the 12 x 12 mm region is empty.
 */
double
gapToResonantChainAfterTetris(const HotspotParams &rule)
{
    Netlist nl;
    for (int q = 0; q < 2; ++q) {
        Instance inst;
        inst.kind = InstanceKind::Qubit;
        inst.width = inst.height = 400;
        inst.pad = 400;
        inst.freqHz = 4.8e9 + q * 0.2e9;
        inst.pos = Vec2(9000 + 1000 * q, 10000);
        nl.addInstance(inst);
    }
    const auto add_chain = [&](double y) {
        Resonator res;
        res.qubitA = 0;
        res.qubitB = 1;
        res.freqHz = 6.5e9;
        res.lengthUm = 3000;
        const int id = static_cast<int>(nl.resonators().size());
        for (int s = 0; s < 3; ++s) {
            Instance seg;
            seg.kind = InstanceKind::ResonatorSegment;
            seg.resonator = id;
            seg.segment = s;
            seg.width = seg.height = 300;
            seg.pad = 100;
            seg.freqHz = res.freqHz;
            seg.pos = Vec2(2000 + 400 * s, y);
            res.segments.push_back(nl.addInstance(seg));
        }
        nl.addResonator(res);
        return id;
    };
    const int res_a = add_chain(2500);
    const int res_b = add_chain(2000);
    nl.setRegion(Rect(0, 0, 12000, 12000));

    OccupancyGrid grid(nl.region(), 100);
    for (const Instance &inst : nl.instances())
        if (inst.kind == InstanceKind::Qubit || inst.resonator == res_b)
            grid.occupy(inst.paddedRect(), inst.id);
    double displacement = 0.0;
    EXPECT_TRUE(tetrisLegalizeSegments(nl, grid, rule, true, displacement,
                                       {res_a}));

    double gap = std::numeric_limits<double>::infinity();
    for (int a : nl.resonator(res_a).segments)
        for (int b : nl.resonator(res_b).segments)
            gap = std::min(gap, nl.instance(a).paddedRect().gap(
                                    nl.instance(b).paddedRect()));
    return gap;
}

TEST(Tetris, TauProbeUsesTheRuleTolerance)
{
    // The legalizer guards the hotspot metric's adjacency tolerance:
    // with a 250 um rule no segment ends within 250 um of the
    // resonant foreign chain.
    HotspotParams wide;
    wide.adjacencyTolUm = 250.0;
    EXPECT_GT(gapToResonantChainAfterTetris(wide), wide.adjacencyTolUm);

    // The default 50 um rule accepts the 100 um spots, so the case
    // above is decided by the rule's tolerance.
    EXPECT_LE(gapToResonantChainAfterTetris(HotspotParams()),
              wide.adjacencyTolUm);
}

} // namespace
} // namespace qplacer
