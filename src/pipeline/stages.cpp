/**
 * @file
 * The default Fig. 7 stage implementations and the stage runner.
 */

#include <exception>

#include "pipeline/context.hpp"
#include "pipeline/stage.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qplacer {

const char *
flowCodeName(FlowCode code)
{
    switch (code) {
      case FlowCode::Ok:
        return "ok";
      case FlowCode::InvalidParams:
        return "invalid_params";
      case FlowCode::Cancelled:
        return "cancelled";
      case FlowCode::StageError:
        return "stage_error";
      case FlowCode::DeadlineExceeded:
        return "deadline_exceeded";
    }
    return "?";
}

namespace {

/** Fig. 7a: graph-colouring frequency assignment. */
class AssignStage final : public FlowStage
{
  public:
    const char *name() const override { return "assign"; }

    void run(FlowContext &ctx) const override
    {
        const FrequencyAssigner assigner(ctx.params.assigner);
        ctx.result.freqs =
            assigner.assign(*ctx.topo, &ctx.result.assignStats);
    }
};

/** Fig. 7b: padding + partitioning into the placement netlist. */
class BuildStage final : public FlowStage
{
  public:
    const char *name() const override { return "build"; }

    void run(FlowContext &ctx) const override
    {
        const NetlistBuilder builder(ctx.params.partition);
        ctx.result.netlist =
            builder.build(*ctx.topo, ctx.result.freqs,
                          ctx.params.targetUtil, ctx.pool,
                          &ctx.result.buildStats);
        // Multi-die only: widen the region by the cut gaps (so per-die
        // usable area matches the single-die total) and record the
        // partition on the netlist. Inactive specs leave the netlist
        // bitwise-identical to the pre-multidie build.
        const DieSpec &dies = ctx.topo->dies;
        if (dies.active()) {
            Rect region = ctx.result.netlist.region();
            region.hi.x += (dies.cols - 1) * dies.cutGapUm;
            region.hi.y += (dies.rows - 1) * dies.cutGapUm;
            ctx.result.netlist.setRegion(region);
            ctx.result.netlist.setDieSpec(dies);
        }
    }
};

/** Human baseline: manual grid-style layout replaces build/place/legal. */
class HumanPlaceStage final : public FlowStage
{
  public:
    const char *name() const override { return "human_place"; }

    void run(FlowContext &ctx) const override
    {
        const HumanPlacer human(ctx.params.partition);
        ctx.result.netlist = human.place(*ctx.topo, ctx.result.freqs);
    }
};

/** Fig. 7c: frequency-aware electrostatic global placement. */
class GlobalPlaceStage final : public FlowStage
{
  public:
    const char *name() const override { return "place"; }

    void run(FlowContext &ctx) const override
    {
        if (ctx.logging && ctx.pool && ctx.pool->threads() > 1) {
            inform(str("global placement running on ",
                       ctx.pool->threads(), " threads"));
        }

        PlaceMonitor monitor;
        monitor.cancel = ctx.cancel;
        if (ctx.observer) {
            monitor.onIteration = [&ctx](const PlaceProgress &progress) {
                ctx.observer->onIteration(ctx, progress);
            };
        }

        const GlobalPlacer placer(ctx.params.placer);
        ctx.result.place =
            placer.place(ctx.result.netlist, ctx.pool, monitor);
        if (ctx.result.place.cancelled) {
            ctx.result.status = {FlowCode::Cancelled, name(),
                                 "cancelled during global placement"};
        }
    }
};

/** Fig. 7d: spiral + min-cost-flow + Tetris + integration repair. */
class LegalizeStage final : public FlowStage
{
  public:
    const char *name() const override { return "legalize"; }

    void run(FlowContext &ctx) const override
    {
        const Legalizer legalizer(ctx.params.legalizer, ctx.params.hotspot);
        ctx.result.legal =
            legalizer.legalize(ctx.result.netlist, ctx.cancel);
        if (ctx.result.legal.cancelled) {
            ctx.result.status = {FlowCode::Cancelled, name(),
                                 "cancelled during legalization"};
        }
    }
};

/** Post-legalization annealing refinement (anneal.hpp), opt-in. */
class DetailedPlaceStage final : public FlowStage
{
  public:
    const char *name() const override { return "detailed"; }

    void run(FlowContext &ctx) const override
    {
        const DetailedPlacer placer(ctx.params.detailed,
                                    ctx.params.legalizer,
                                    ctx.params.hotspot);
        ctx.result.detailed = placer.refine(
            ctx.result.netlist, ctx.params.placer.seed, ctx.cancel);
        if (ctx.result.detailed.cancelled) {
            ctx.result.status = {FlowCode::Cancelled, name(),
                                 "cancelled during detailed placement"};
        }
    }
};

/** Fig. 7e: area + hotspot metrics and the end-of-flow summary line. */
class MetricsStage final : public FlowStage
{
  public:
    const char *name() const override { return "metrics"; }

    void run(FlowContext &ctx) const override
    {
        ctx.result.area = computeArea(ctx.result.netlist);
        ctx.result.hotspots =
            analyzeHotspots(ctx.result.netlist, ctx.params.hotspot);
        if (ctx.result.netlist.dieSpec().active()) {
            ctx.result.multidie = computeCrossCut(
                ctx.result.netlist,
                DiePlan::resolve(ctx.result.netlist.dieSpec(),
                                 ctx.result.netlist.region()));
        }
        if (ctx.logging) {
            inform(str(placerModeName(ctx.params.mode), " flow on ",
                       ctx.topo->name,
                       ": #cells=", ctx.result.netlist.numInstances(),
                       " Ph=", ctx.result.hotspots.phPercent,
                       "% util=", ctx.result.area.utilization));
        }
    }
};

} // namespace

std::unique_ptr<FlowStage>
makeAssignStage()
{
    return std::make_unique<AssignStage>();
}

std::unique_ptr<FlowStage>
makeBuildStage()
{
    return std::make_unique<BuildStage>();
}

std::unique_ptr<FlowStage>
makeGlobalPlaceStage()
{
    return std::make_unique<GlobalPlaceStage>();
}

std::unique_ptr<FlowStage>
makeMetricsStage()
{
    return std::make_unique<MetricsStage>();
}

std::vector<std::unique_ptr<FlowStage>>
makeDefaultStages(const FlowParams &params)
{
    std::vector<std::unique_ptr<FlowStage>> stages;
    stages.push_back(std::make_unique<AssignStage>());
    if (params.mode == PlacerMode::Human) {
        stages.push_back(std::make_unique<HumanPlaceStage>());
    } else {
        stages.push_back(std::make_unique<BuildStage>());
        stages.push_back(std::make_unique<GlobalPlaceStage>());
        stages.push_back(std::make_unique<LegalizeStage>());
        // detailed.iters == 0 is a contractual no-op: the stage is not
        // even inserted, so the stage list (and with it every timing
        // and observer event) is bitwise-identical to the pre-detailed
        // flow.
        if (params.detailed.enabled && params.detailed.iters > 0)
            stages.push_back(std::make_unique<DetailedPlaceStage>());
    }
    stages.push_back(std::make_unique<MetricsStage>());
    return stages;
}

void
runStages(FlowContext &ctx,
          const std::vector<std::unique_ptr<FlowStage>> &stages)
{
    Timer total;
    for (const auto &stage : stages) {
        if (ctx.cancelled()) {
            ctx.result.status = {FlowCode::Cancelled, stage->name(),
                                 "cancelled before stage"};
            break;
        }
        if (ctx.observer)
            ctx.observer->onStageBegin(ctx, stage->name());

        Timer timer;
        bool failed = false;
        try {
            stage->run(ctx);
        } catch (const std::exception &e) {
            ctx.result.status = {FlowCode::StageError, stage->name(),
                                 e.what()};
            failed = true;
        }

        const StageTiming timing{stage->name(), timer.seconds()};
        ctx.result.stageTimings.push_back(timing);
        if (ctx.observer)
            ctx.observer->onStageEnd(ctx, timing);

        // A stage either failed or flagged cancellation from within
        // (placer/legalizer polls); later stages must not run on the
        // partial result.
        if (failed || !ctx.result.status.ok())
            break;
    }
    ctx.result.seconds = total.seconds();
}

} // namespace qplacer
