/**
 * @file
 * PlacementSession: the reusable, batch-capable front end of the
 * staged flow (the production entry point the ROADMAP's north star
 * asks for).
 *
 * A session amortizes the expensive per-run machinery across many
 * placements: the worker pool survives between run() calls (no thread
 * spawn/join per placement) and the process-wide spectral-plan cache
 * stays warm. On top of that it adds what a service needs and the
 * one-shot QplacerFlow cannot give: non-throwing structured errors
 * (FlowResult::status), FlowObserver progress streaming, cooperative
 * cancellation, and concurrent execution of independent jobs.
 *
 *   PlacementSession session({.flow = params, .workers = 8});
 *   std::vector<PlacementJob> jobs = ...;   // one topology+params each
 *   auto results = session.runBatch(jobs);  // all jobs, concurrently
 *
 * Determinism contract: a layout depends only on (topology, params,
 * seed), not on the thread count, so runBatch(jobs) is
 * **bitwise-identical** to running each job through QplacerFlow::run
 * with the same parameters. With workers > 1 the jobs run
 * concurrently, each without an inner pool (parallelism across jobs
 * instead of inside one); with workers <= 1 they run in order with
 * their requested intra-job thread count.
 */

#ifndef QPLACER_PIPELINE_SESSION_HPP
#define QPLACER_PIPELINE_SESSION_HPP

#include <memory>
#include <vector>

#include "pipeline/flow.hpp"
#include "pipeline/incremental.hpp"
#include "topology/topology.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

/** One independent placement: a device plus its full configuration. */
struct PlacementJob
{
    Topology topo;
    FlowParams params; ///< Seed lives in params.placer.seed.
};

/** Session-level configuration. */
struct SessionParams
{
    /** Default flow parameters, used by run(topo) without overrides. */
    FlowParams flow;

    /**
     * Concurrent jobs in runBatch (not intra-placement threads).
     * 0 = hardware concurrency, capped like ThreadPool's auto choice;
     * 1 = serial batches.
     */
    int workers = 0;
};

/** Reusable staged-flow engine; see the file header for the contract. */
class PlacementSession
{
  public:
    explicit PlacementSession(SessionParams params = {});

    /** Place @p topo with the session's default parameters. */
    FlowResult run(const Topology &topo);

    /**
     * Place @p topo with explicit parameters. Unlike QplacerFlow::run
     * this never throws for flow-level failures: invalid parameters,
     * stage errors, and cancellation all come back in
     * FlowResult::status.
     */
    FlowResult run(const Topology &topo, const FlowParams &params);

    /**
     * Execute independent placement jobs, `workers` at a time, on one
     * shared pool. Results arrive indexed like @p jobs; each job's
     * outcome (including per-job errors) is in its FlowResult::status.
     * Cancellation applies to the whole batch: jobs already running
     * stop at their next poll, jobs not yet started report Cancelled
     * without running.
     */
    std::vector<FlowResult> runBatch(const std::vector<PlacementJob> &jobs);

    /**
     * Homogeneous batch: one device under many parameter sets (a seed
     * sweep, a knob study). Same contract as the PlacementJob
     * overload, but every job borrows @p topo instead of carrying a
     * copy -- prefer this for large same-device batches.
     */
    std::vector<FlowResult> runBatch(const Topology &topo,
                                     const std::vector<FlowParams> &jobs);

    /**
     * Multi-start portfolio: place @p topo under seeds
     * placer.seed .. placer.seed + seeds - 1 (wrapping mod 2^64),
     * candidates running concurrently on the batch pool, each
     * single-threaded. Candidates first run truncated probe placements
     * (assign -> build -> place, budget params.portfolio.pruneAt
     * iterations, doubling per rung); at each checkpoint the ranking
     * on the recorded PlaceProgress trajectory tails (overflow, then
     * HPWL) drops the bottom 1 - keepFrac. Survivors then run the
     * complete flow -- including the detailed stage when enabled --
     * and the best final layout (legal first, then lowest HPWL, then
     * lowest seed offset) is returned with PortfolioStats attached.
     *
     * Determinism contract: a layout does not depend on the thread
     * count, so the winner is bitwise-identical to a QplacerFlow::run
     * of its seed with the same knobs, at any placer.threads. The base
     * seed is exempt from pruning, so the portfolio result is never
     * worse than the single-seed flow. With seeds <= 1 (or Human mode) this
     * forwards to run() -- the exact single-seed path, bitwise.
     *
     * @p n_seeds > 0 overrides params.portfolio.seeds. The external
     * observer is detached while candidates run (per-candidate events
     * would interleave meaninglessly); it is restored on return.
     */
    FlowResult runPortfolio(const Topology &topo, const FlowParams &params,
                            int n_seeds = 0);

    /**
     * Incremental re-place (incremental.hpp): place @p topo warm-
     * started from @p prior, re-placing only the @p delta closure. An
     * empty delta on an unchanged topology reproduces the prior layout
     * exactly (bitwiseSameLayout); a small delta re-solves briefly
     * (params.incremental.maxIters) and re-legalizes just the movers.
     * Non-throwing like run(); Human mode is rejected via status.
     */
    FlowResult runIncremental(const Topology &topo, const FlowParams &params,
                              const PriorLayout &prior,
                              const NetlistDelta &delta = {});

    /**
     * Observe stage and iteration progress (borrowed; null to detach).
     * With workers > 1 callbacks fire concurrently from pool threads;
     * the observer must be thread-safe (FlowContext::jobIndex tells
     * jobs apart).
     */
    void setObserver(FlowObserver *observer) { observer_ = observer; }

    /**
     * The session's cancellation token. cancel() stops the current
     * run/batch at the next poll point; reset() re-arms the session
     * for further work.
     */
    CancelToken &cancelToken() { return cancel_; }

    const SessionParams &params() const { return params_; }

  private:
    /** One batch entry by reference (both borrowed for the call). */
    struct JobRef
    {
        const Topology *topo;
        const FlowParams *params;
    };

    /** Shared implementation of both runBatch overloads. */
    std::vector<FlowResult> runBatchRefs(const std::vector<JobRef> &jobs);

    /**
     * Execute one job on the calling thread. @p pool is the inner
     * (intra-placement) pool, null for serial; @p logging gates
     * inform() chatter.
     */
    FlowResult runJob(const Topology &topo, const FlowParams &params,
                      int job_index, ThreadPool *pool, bool logging);

    /**
     * The shared intra-placement pool for single runs and serial
     * batches, lazily (re)built to match the resolved
     * params.placer.threads; null when that resolves to serial or in
     * Human mode.
     */
    ThreadPool *innerPool(const FlowParams &params);

    SessionParams params_;
    FlowObserver *observer_ = nullptr;
    CancelToken cancel_;
    std::unique_ptr<ThreadPool> inner_; ///< Intra-placement pool.
    std::unique_ptr<ThreadPool> batch_; ///< Job-level pool (runBatch).
};

} // namespace qplacer

#endif // QPLACER_PIPELINE_SESSION_HPP
