/**
 * @file
 * Staged-flow API contract: observer event ordering, cooperative
 * cancellation mid-placement, FlowParams::normalized() propagation and
 * validation, and the structured FlowStatus error paths.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "pipeline/context.hpp"
#include "pipeline/session.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

FlowParams
quickParams(int max_iters = 120)
{
    FlowParams params;
    params.placer.maxIters = max_iters;
    params.placer.threads = 1;
    return params;
}

/** Records every event; optionally cancels at a given iteration. */
class RecordingObserver : public FlowObserver
{
  public:
    void onStageBegin(const FlowContext &, const std::string &stage) override
    {
        events.push_back("begin:" + stage);
    }

    void onStageEnd(const FlowContext &, const StageTiming &timing) override
    {
        events.push_back("end:" + timing.stage);
        EXPECT_GE(timing.seconds, 0.0);
    }

    void onIteration(const FlowContext &ctx,
                     const PlaceProgress &progress) override
    {
        iterations.push_back(progress.iteration);
        lastOverflow = progress.overflow;
        if (cancelAtIteration >= 0 &&
            progress.iteration >= cancelAtIteration && cancelTarget)
            cancelTarget->cancel();
        (void)ctx;
    }

    std::vector<std::string> events;
    std::vector<int> iterations;
    double lastOverflow = -1.0;
    int cancelAtIteration = -1;
    CancelToken *cancelTarget = nullptr;
};

TEST(FlowApi, ObserverSeesStagesInOrderWithIterationsInsidePlace)
{
    PlacementSession session;
    RecordingObserver observer;
    session.setObserver(&observer);

    const FlowResult r = session.run(makeGrid(3, 3), quickParams());
    ASSERT_TRUE(r.status.ok()) << r.status.message;

    const std::vector<std::string> expected = {
        "begin:assign",   "end:assign",   "begin:build",
        "end:build",      "begin:place",  "end:place",
        "begin:legalize", "end:legalize", "begin:metrics",
        "end:metrics",
    };
    EXPECT_EQ(observer.events, expected);

    // One progress event per evaluated iterate, 0-based and strictly
    // increasing. A converged (or plateau) exit evaluates iterate
    // `iterations` and stops before stepping, so it reports one event
    // more than the Nesterov steps counted in place.iterations.
    ASSERT_EQ(r.place.stopReason, PlaceStopReason::Converged);
    ASSERT_EQ(observer.iterations.size(),
              static_cast<std::size_t>(r.place.iterations) + 1);
    for (std::size_t i = 0; i < observer.iterations.size(); ++i)
        EXPECT_EQ(observer.iterations[i], static_cast<int>(i));
    EXPECT_EQ(observer.lastOverflow, r.place.finalOverflow);

    // The result's stage timings mirror the event stream.
    ASSERT_EQ(r.stageTimings.size(), 5u);
    EXPECT_EQ(r.stageTimings[0].stage, "assign");
    EXPECT_EQ(r.stageTimings[2].stage, "place");
    EXPECT_EQ(r.stageTimings[4].stage, "metrics");
    double staged = 0.0;
    for (const StageTiming &t : r.stageTimings)
        staged += t.seconds;
    EXPECT_LE(staged, r.seconds + 0.05);
}

TEST(FlowApi, ObserverSeesOneEventPerStepOnBudgetExit)
{
    PlacementSession session;
    RecordingObserver observer;
    session.setObserver(&observer);

    // A budget below minIters can only end on max_iters, where every
    // evaluated iterate was also stepped.
    FlowParams params = quickParams(30);
    ASSERT_LT(params.placer.maxIters, params.placer.minIters);
    const FlowResult r = session.run(makeGrid(3, 3), params);
    ASSERT_TRUE(r.status.ok()) << r.status.message;

    EXPECT_EQ(r.place.stopReason, PlaceStopReason::MaxIters);
    EXPECT_EQ(r.place.iterations, 30);
    ASSERT_EQ(observer.iterations.size(),
              static_cast<std::size_t>(r.place.iterations));
    for (std::size_t i = 0; i < observer.iterations.size(); ++i)
        EXPECT_EQ(observer.iterations[i], static_cast<int>(i));
}

TEST(FlowApi, HumanModeRunsManualLayoutStage)
{
    PlacementSession session;
    RecordingObserver observer;
    session.setObserver(&observer);

    FlowParams params = quickParams();
    params.mode = PlacerMode::Human;
    const FlowResult r = session.run(makeGrid(3, 3), params);
    ASSERT_TRUE(r.status.ok());

    const std::vector<std::string> expected = {
        "begin:assign",      "end:assign",      "begin:human_place",
        "end:human_place",   "begin:metrics",   "end:metrics",
    };
    EXPECT_EQ(observer.events, expected);
    EXPECT_TRUE(observer.iterations.empty());
}

TEST(FlowApi, CancellationMidPlacementStopsTheFlow)
{
    PlacementSession session;
    RecordingObserver observer;
    observer.cancelAtIteration = 5;
    observer.cancelTarget = &session.cancelToken();
    session.setObserver(&observer);

    const FlowResult r = session.run(makeGrid(4, 4), quickParams(400));

    EXPECT_EQ(r.status.code, FlowCode::Cancelled);
    EXPECT_EQ(r.status.stage, "place");
    EXPECT_TRUE(r.place.cancelled);
    // The placer polls at the top of each iteration: one more evaluate
    // after the cancelling callback, then it stops.
    EXPECT_LE(r.place.iterations, 7);
    EXPECT_GE(observer.iterations.size(), 5u);

    // Legalization and metrics never ran.
    for (const std::string &event : observer.events) {
        EXPECT_NE(event, "begin:legalize");
        EXPECT_NE(event, "begin:metrics");
    }
    // The aborted stage still reports a timing (and fired its end
    // event) so dashboards account for the spent time.
    ASSERT_FALSE(r.stageTimings.empty());
    EXPECT_EQ(r.stageTimings.back().stage, "place");

    // A cancelled session stays cancelled until reset, then works.
    const FlowResult still = session.run(makeGrid(3, 3), quickParams());
    EXPECT_EQ(still.status.code, FlowCode::Cancelled);
    session.cancelToken().reset();
    observer.cancelAtIteration = -1;
    const FlowResult again = session.run(makeGrid(3, 3), quickParams());
    EXPECT_TRUE(again.status.ok());
}

TEST(FlowApi, CancelBeforeRunReportsCancelledWithoutRunning)
{
    PlacementSession session;
    session.cancelToken().cancel();
    const FlowResult r = session.run(makeGrid(3, 3), quickParams());
    EXPECT_EQ(r.status.code, FlowCode::Cancelled);
    EXPECT_EQ(r.status.stage, "assign");
    EXPECT_TRUE(r.stageTimings.empty());
    EXPECT_EQ(r.netlist.numInstances(), 0);
}

TEST(FlowApi, InvalidParamsAreStructuredErrorsInSessions)
{
    FlowParams params = quickParams();
    params.targetUtil = 1.5;

    PlacementSession session;
    const FlowResult r = session.run(makeGrid(3, 3), params);
    EXPECT_EQ(r.status.code, FlowCode::InvalidParams);
    EXPECT_NE(r.status.message.find("targetUtil"), std::string::npos);
    EXPECT_EQ(r.netlist.numInstances(), 0);
    EXPECT_TRUE(r.stageTimings.empty());

    // The one-shot wrapper keeps its throwing contract.
    EXPECT_THROW(QplacerFlow(params).run(makeGrid(3, 3)),
                 std::runtime_error);
}

TEST(FlowApi, InvalidJobDoesNotPoisonTheBatch)
{
    const Topology topo = makeGrid(3, 3);
    SessionParams sparams;
    sparams.workers = 2;
    PlacementSession session(sparams);

    std::vector<PlacementJob> jobs(3);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].topo = topo;
        jobs[j].params = quickParams();
        jobs[j].params.placer.seed = j + 1;
    }
    jobs[1].params.placer.targetDensity = -1.0; // Invalid.

    const std::vector<FlowResult> results = session.runBatch(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].status.ok());
    EXPECT_EQ(results[1].status.code, FlowCode::InvalidParams);
    EXPECT_NE(results[1].status.message.find("targetDensity"),
              std::string::npos);
    EXPECT_TRUE(results[2].status.ok());
    EXPECT_TRUE(results[0].legal.legal);
    EXPECT_TRUE(results[2].legal.legal);
}

TEST(FlowApi, NormalizedPropagatesDetuningEverywhere)
{
    FlowParams params;
    params.assigner.detuningThresholdHz = 0.123e9;
    // Stale hand-copies that normalized() must overwrite.
    params.placer.detuningThresholdHz = 1.0;
    params.hotspot.detuningThresholdHz = 3.0;
    params.targetUtil = 0.6;

    const FlowParams n = params.normalized();
    EXPECT_EQ(n.placer.detuningThresholdHz, 0.123e9);
    EXPECT_EQ(n.hotspot.detuningThresholdHz, 0.123e9);
    EXPECT_EQ(n.placer.targetUtil, 0.6);
    EXPECT_TRUE(n.placer.freqForce);
    EXPECT_TRUE(n.legalizer.resonanceCheck);
}

TEST(FlowApi, NormalizedClassicDisablesFrequencyAwareness)
{
    FlowParams params;
    params.mode = PlacerMode::Classic;
    const FlowParams n = params.normalized();
    EXPECT_FALSE(n.placer.freqForce);
    EXPECT_FALSE(n.legalizer.resonanceCheck);
}

TEST(FlowApi, LegalizerReadsTheHotspotTolerance)
{
    // hotspot.adjacencyTolUm is the one adjacency tolerance of a
    // collision: the legalize stage hands it to the tau probe, so
    // widening it leaves fewer pairs within the wider tolerance.
    const Topology topo = makeFalcon();
    FlowParams params;
    const FlowResult narrow = QplacerFlow(params).run(topo);
    params.hotspot.adjacencyTolUm = 250.0;
    const FlowResult wide = QplacerFlow(params).run(topo);

    const auto pairs_within = [&](const Netlist &nl) {
        const auto &inst = nl.instances();
        int count = 0;
        double gap = 0.0;
        for (std::size_t a = 0; a < inst.size(); ++a)
            for (std::size_t b = a + 1; b < inst.size(); ++b)
                count += isHotspotPair(inst[a], inst[b], params.hotspot, gap);
        return count;
    };
    EXPECT_LT(pairs_within(wide.netlist), pairs_within(narrow.netlist));
}

TEST(FlowApi, NormalizedValidatesRanges)
{
    const auto firstError = [](FlowParams params) {
        std::string error;
        params.normalized(&error);
        return error;
    };

    FlowParams p;
    EXPECT_EQ(firstError(p), "");

    p = FlowParams{};
    p.targetUtil = 0.0;
    EXPECT_NE(firstError(p).find("targetUtil"), std::string::npos);

    p = FlowParams{};
    p.partition.segmentUm = -300.0;
    EXPECT_NE(firstError(p).find("segmentUm"), std::string::npos);

    // A budget below the minIters floor is a clamp, not an error:
    // quick runs lower only maxIters.
    p = FlowParams{};
    p.placer.maxIters = 10;
    EXPECT_EQ(firstError(p), "");
    EXPECT_EQ(p.normalized().placer.minIters, 10);

    p = FlowParams{};
    p.placer.minIters = -1;
    EXPECT_NE(firstError(p).find("minIters"), std::string::npos);

    p = FlowParams{};
    p.assigner.detuningThresholdHz = 0.0;
    EXPECT_NE(firstError(p).find("detuningThresholdHz"),
              std::string::npos);

    p = FlowParams{};
    p.legalizer.cellUm = 0.0;
    EXPECT_NE(firstError(p).find("cellUm"), std::string::npos);

    // Without the out-param the first violation throws (fatal()).
    p = FlowParams{};
    p.targetUtil = -1.0;
    EXPECT_THROW(p.normalized(), std::runtime_error);
}

TEST(FlowApi, FlowCodeNamesAreStable)
{
    EXPECT_STREQ(flowCodeName(FlowCode::Ok), "ok");
    EXPECT_STREQ(flowCodeName(FlowCode::InvalidParams), "invalid_params");
    EXPECT_STREQ(flowCodeName(FlowCode::Cancelled), "cancelled");
    EXPECT_STREQ(flowCodeName(FlowCode::StageError), "stage_error");
}

} // namespace
} // namespace qplacer
