#include <gtest/gtest.h>

#include "eval/hotspot.hpp"

namespace qplacer {
namespace {

/** Two qubits plus two single-segment resonators, hand-positioned. */
struct Layout
{
    Netlist nl;

    Layout(double fq0, double fq1, double fr0, double fr1)
    {
        for (int q = 0; q < 2; ++q) {
            Instance inst;
            inst.kind = InstanceKind::Qubit;
            inst.width = inst.height = 400;
            inst.pad = 400;
            inst.freqHz = q == 0 ? fq0 : fq1;
            nl.addInstance(inst);
        }
        for (int r = 0; r < 2; ++r) {
            Resonator res;
            res.qubitA = 0;
            res.qubitB = 1;
            res.freqHz = r == 0 ? fr0 : fr1;
            res.edge = r;
            Instance seg;
            seg.kind = InstanceKind::ResonatorSegment;
            seg.resonator = r;
            seg.segment = 0;
            seg.width = seg.height = 300;
            seg.pad = 100;
            seg.freqHz = res.freqHz;
            res.segments.push_back(nl.addInstance(seg));
            nl.addResonator(res);
        }
        nl.setRegion(Rect(0, 0, 20000, 20000));
        // Defaults: everything far apart.
        nl.instance(0).pos = {2000, 2000};
        nl.instance(1).pos = {8000, 2000};
        nl.instance(2).pos = {2000, 8000};
        nl.instance(3).pos = {8000, 8000};
    }
};

TEST(Hotspot, CleanLayoutHasNoPairs)
{
    Layout l(5.0e9, 5.0e9, 6.5e9, 6.5e9);
    const HotspotReport report = analyzeHotspots(l.nl);
    EXPECT_TRUE(report.pairs.empty());
    EXPECT_DOUBLE_EQ(report.phPercent, 0.0);
    EXPECT_TRUE(report.impactedQubits.empty());
}

TEST(Hotspot, AdjacentResonantQubitsViolate)
{
    Layout l(5.0e9, 5.0e9, 6.3e9, 6.7e9);
    // Padded 800-footprints abutting: centers 800 apart.
    l.nl.instance(1).pos = {2800, 2000};
    const HotspotReport report = analyzeHotspots(l.nl);
    ASSERT_EQ(report.pairs.size(), 1u);
    EXPECT_EQ(report.pairs[0].a, 0);
    EXPECT_EQ(report.pairs[0].b, 1);
    EXPECT_GT(report.phPercent, 0.0);
    EXPECT_EQ(report.impactedQubits.size(), 2u);
}

TEST(Hotspot, CornerTouchingResonantQubitsViolate)
{
    Layout l(5.0e9, 5.0e9, 6.3e9, 6.7e9);
    // Padded 800-footprints meeting at one corner: centres (800, 800)
    // apart, further than one padded width plus the tolerance.
    l.nl.instance(1).pos = {2800, 2800};
    const HotspotReport report = analyzeHotspots(l.nl);
    ASSERT_EQ(report.pairs.size(), 1u);
    EXPECT_EQ(report.pairs[0].a, 0);
    EXPECT_EQ(report.pairs[0].b, 1);
    EXPECT_DOUBLE_EQ(report.pairs[0].gapUm, 0.0);
}

TEST(Hotspot, AdjacentDetunedQubitsDoNot)
{
    Layout l(4.8e9, 5.2e9, 6.3e9, 6.7e9);
    l.nl.instance(1).pos = {2800, 2000};
    EXPECT_TRUE(analyzeHotspots(l.nl).pairs.empty());
}

TEST(Hotspot, GapBeyondToleranceIsClean)
{
    Layout l(5.0e9, 5.0e9, 6.3e9, 6.7e9);
    l.nl.instance(1).pos = {2900, 2000}; // 100 um gap > 50 um tol
    EXPECT_TRUE(analyzeHotspots(l.nl).pairs.empty());
}

TEST(Hotspot, ResonantSegmentsImpactTheirQubits)
{
    Layout l(4.8e9, 5.2e9, 6.5e9, 6.5e9);
    // The two resonant segments abut (padded 400-footprints).
    l.nl.instance(2).pos = {5000, 8000};
    l.nl.instance(3).pos = {5400, 8000};
    const HotspotReport report = analyzeHotspots(l.nl);
    ASSERT_EQ(report.pairs.size(), 1u);
    // Crosstalk propagates through the couplers to both endpoint qubits.
    EXPECT_EQ(report.impactedQubits.size(), 2u);
}

TEST(Hotspot, SameResonatorSegmentsExcluded)
{
    Netlist nl;
    Instance q;
    q.kind = InstanceKind::Qubit;
    q.width = q.height = 400;
    q.pad = 400;
    q.freqHz = 5.0e9;
    nl.addInstance(q);
    Resonator res;
    res.qubitA = res.qubitB = 0;
    res.freqHz = 6.5e9;
    for (int s = 0; s < 2; ++s) {
        Instance seg;
        seg.kind = InstanceKind::ResonatorSegment;
        seg.resonator = 0;
        seg.segment = s;
        seg.width = seg.height = 300;
        seg.pad = 100;
        seg.freqHz = 6.5e9;
        res.segments.push_back(nl.addInstance(seg));
    }
    nl.addResonator(res);
    nl.instance(0).pos = {5000, 1000};
    nl.instance(1).pos = {1000, 1000};
    nl.instance(2).pos = {1400, 1000}; // abutting same-resonator blocks
    nl.setRegion(Rect(0, 0, 10000, 10000));
    EXPECT_TRUE(analyzeHotspots(nl).pairs.empty());
}

TEST(Hotspot, PhScalesWithViolationCount)
{
    Layout one(5.0e9, 5.0e9, 6.3e9, 6.7e9);
    one.nl.instance(1).pos = {2800, 2000};
    Layout two(5.0e9, 5.0e9, 6.5e9, 6.5e9);
    two.nl.instance(1).pos = {2800, 2000};
    two.nl.instance(3).pos = {2400, 8000};
    two.nl.instance(2).pos = {2000, 8000};
    EXPECT_GT(analyzeHotspots(two.nl).phPercent,
              analyzeHotspots(one.nl).phPercent);
}

TEST(Hotspot, CustomThreshold)
{
    Layout l(5.0e9, 5.15e9, 6.3e9, 6.7e9);
    l.nl.instance(1).pos = {2800, 2000};
    HotspotParams params;
    EXPECT_TRUE(analyzeHotspots(l.nl, params).pairs.empty());
    params.detuningThresholdHz = 0.2e9;
    EXPECT_EQ(analyzeHotspots(l.nl, params).pairs.size(), 1u);
}

} // namespace
} // namespace qplacer
