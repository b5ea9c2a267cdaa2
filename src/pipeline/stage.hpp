/**
 * @file
 * The staged flow API: the Fig. 7 pipeline decomposed into explicit,
 * individually timed stages running over a shared FlowContext.
 *
 * A flow is a sequence of FlowStage objects (frequency assignment ->
 * netlist build -> global placement -> legalization -> metrics; see
 * makeDefaultStages). runStages() drives them with structured error
 * reporting (FlowStatus instead of silent success), per-stage wall
 * clocks, FlowObserver callbacks (stage begin/end and optimizer
 * iteration progress), and cooperative cancellation.
 *
 * PlacementSession (session.hpp) drives this path, with pool reuse
 * across runs and concurrent batch execution; QplacerFlow::run() is a
 * one-shot session run that throws on error.
 */

#ifndef QPLACER_PIPELINE_STAGE_HPP
#define QPLACER_PIPELINE_STAGE_HPP

#include <memory>
#include <string>
#include <vector>

namespace qplacer {

struct FlowContext;
struct FlowParams;
struct PlaceProgress;

/** How a flow run ended. */
enum class FlowCode
{
    Ok,            ///< All stages completed.
    InvalidParams, ///< FlowParams failed validation; nothing ran.
    Cancelled,     ///< A CancelToken stopped the run mid-flow.
    StageError,    ///< A stage failed (e.g. legalization ran out of room).

    /**
     * The job's deadline expired and the serving layer stopped it via
     * its CancelToken. Mechanically identical to Cancelled inside the
     * flow; reported distinctly so a client can tell an operator-
     * enforced timeout from its own cancel request.
     */
    DeadlineExceeded,
};

/** Human-readable FlowCode name. */
const char *flowCodeName(FlowCode code);

/** Structured outcome of a flow run (FlowResult::status). */
struct FlowStatus
{
    FlowCode code = FlowCode::Ok;
    std::string stage;   ///< Stage that ended the run ("" if none).
    std::string message; ///< Error / cancellation detail ("" when Ok).

    bool ok() const { return code == FlowCode::Ok; }
};

/** Wall-clock of one completed (or aborted) stage. */
struct StageTiming
{
    std::string stage;
    double seconds = 0.0;
};

/**
 * Callback surface over a flow run. Default implementations do
 * nothing; override what you need. In a concurrent batch
 * (PlacementSession::runBatch with workers > 1) callbacks fire on pool
 * worker threads, possibly concurrently for different jobs -- an
 * observer shared across jobs must be thread-safe. Use
 * FlowContext::jobIndex to tell jobs apart.
 */
class FlowObserver
{
  public:
    virtual ~FlowObserver() = default;

    /** A stage is about to run. */
    virtual void onStageBegin(const FlowContext &ctx,
                              const std::string &stage)
    {
        (void)ctx;
        (void)stage;
    }

    /** A stage finished (also fires for the stage that errored). */
    virtual void onStageEnd(const FlowContext &ctx,
                            const StageTiming &timing)
    {
        (void)ctx;
        (void)timing;
    }

    /**
     * Global-placement iteration progress (fires once per Nesterov
     * iteration, after the objective evaluation). Cancel mid-placement
     * by flipping the run's CancelToken from here.
     */
    virtual void onIteration(const FlowContext &ctx,
                             const PlaceProgress &progress)
    {
        (void)ctx;
        (void)progress;
    }
};

/**
 * One step of the flow. Stages communicate exclusively through the
 * FlowContext (read params/topology, fill in FlowContext::result), so
 * they compose: a custom pipeline is just a different stage vector.
 * Errors are reported by throwing (fatal()/panic() style); runStages
 * converts escaping exceptions into FlowStatus::StageError.
 */
class FlowStage
{
  public:
    virtual ~FlowStage() = default;

    /** Stable stage name (used in timings, status, and observer events). */
    virtual const char *name() const = 0;

    /** Execute the stage against @p ctx. */
    virtual void run(FlowContext &ctx) const = 0;
};

/**
 * The Fig. 7 stage sequence for @p params (which must already be
 * normalized): assign -> build -> place -> legalize -> metrics, with
 * build/place/legalize replaced by the manual layout stage in Human
 * mode. When params.detailed.enabled with a positive iteration budget
 * (and not in Human mode), the annealing detailed-placement stage is
 * inserted between legalize and metrics.
 */
std::vector<std::unique_ptr<FlowStage>>
makeDefaultStages(const FlowParams &params);

/**
 * Individual default stages, for composing custom pipelines (the
 * incremental re-place sequence in incremental.hpp reuses assign/build
 * and metrics around its own warm-start stages; the portfolio's probe
 * pipeline truncates after the global-place stage).
 */
std::unique_ptr<FlowStage> makeAssignStage();
std::unique_ptr<FlowStage> makeBuildStage();
std::unique_ptr<FlowStage> makeGlobalPlaceStage();
std::unique_ptr<FlowStage> makeMetricsStage();

/**
 * Drive @p stages over @p ctx in order: per-stage timing, observer
 * events, cancellation polling between stages, and exception ->
 * FlowStatus conversion. On return ctx.result holds everything the
 * run produced (status, stage timings, end-to-end seconds included).
 */
void runStages(FlowContext &ctx,
               const std::vector<std::unique_ptr<FlowStage>> &stages);

} // namespace qplacer

#endif // QPLACER_PIPELINE_STAGE_HPP
