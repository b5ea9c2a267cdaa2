#include "pipeline/session.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "legal/anneal.hpp"
#include "pipeline/context.hpp"

namespace qplacer {
namespace {

/**
 * Records per-job PlaceProgress trajectories (portfolio probe runs).
 * Thread-safe for the batch pattern: each job index is driven by
 * exactly one worker at a time and the outer vector is preallocated.
 */
class TrajectoryRecorder final : public FlowObserver
{
  public:
    explicit TrajectoryRecorder(std::size_t jobs) : traj_(jobs) {}

    void
    onIteration(const FlowContext &ctx,
                const PlaceProgress &progress) override
    {
        traj_[static_cast<std::size_t>(ctx.jobIndex)].push_back(progress);
    }

    const std::vector<PlaceProgress> &
    of(std::size_t job) const
    {
        return traj_[job];
    }

    void
    clear()
    {
        for (auto &t : traj_)
            t.clear();
    }

  private:
    std::vector<std::vector<PlaceProgress>> traj_;
};

/**
 * One truncated portfolio probe: assign -> build -> place only (no
 * legalization or metrics -- the ranking needs the optimizer
 * trajectory, nothing downstream), serial, quiet.
 */
FlowResult
runTruncatedProbe(const Topology &topo, const FlowParams &params,
                  int job_index, FlowObserver *observer,
                  const CancelToken *cancel)
{
    FlowContext ctx;
    ctx.topo = &topo;

    std::string error;
    ctx.params = params.normalized(&error);
    if (!error.empty()) {
        ctx.result.status = {FlowCode::InvalidParams, "", error};
        return std::move(ctx.result);
    }

    ctx.jobIndex = job_index;
    ctx.pool = nullptr;
    ctx.observer = observer;
    ctx.cancel = cancel;
    ctx.logging = false;

    std::vector<std::unique_ptr<FlowStage>> stages;
    stages.push_back(makeAssignStage());
    stages.push_back(makeBuildStage());
    stages.push_back(makeGlobalPlaceStage());
    runStages(ctx, stages);
    return std::move(ctx.result);
}

} // namespace

PlacementSession::PlacementSession(SessionParams params)
    : params_(params)
{
}

ThreadPool *
PlacementSession::innerPool(int threads)
{
    const int resolved = ThreadPool::resolveThreadCount(threads);
    if (resolved <= 1)
        return nullptr;
    // Reuse the live pool whenever the size matches -- this is the
    // amortization a session exists for. A changed request rebuilds it
    // (chunk boundaries depend on the pool size, so reusing a
    // wrong-sized pool would silently change results).
    if (!inner_ || inner_->threads() != resolved)
        inner_ = std::make_unique<ThreadPool>(resolved);
    return inner_.get();
}

FlowResult
PlacementSession::runJob(const Topology &topo, const FlowParams &params,
                         int job_index, ThreadPool *pool, bool logging)
{
    FlowContext ctx;
    ctx.topo = &topo;

    std::string error;
    ctx.params = params.normalized(&error);
    if (!error.empty()) {
        ctx.result.status = {FlowCode::InvalidParams, "", error};
        return std::move(ctx.result);
    }

    ctx.jobIndex = job_index;
    ctx.pool = pool;
    ctx.observer = observer_;
    ctx.cancel = &cancel_;
    ctx.logging = logging;
    runStages(ctx, makeDefaultStages(ctx.params));
    return std::move(ctx.result);
}

FlowResult
PlacementSession::run(const Topology &topo)
{
    return run(topo, params_.flow);
}

FlowResult
PlacementSession::runIncremental(const Topology &topo,
                                 const FlowParams &params,
                                 const PriorLayout &prior,
                                 const NetlistDelta &delta)
{
    FlowContext ctx;
    ctx.topo = &topo;

    std::string error;
    ctx.params = params.normalized(&error);
    if (error.empty() && params.mode == PlacerMode::Human)
        error = "incremental re-place supports Qplacer/Classic modes only";
    if (!error.empty()) {
        ctx.result.status = {FlowCode::InvalidParams, "", error};
        return std::move(ctx.result);
    }

    IncrementalState state;
    state.prior = &prior;
    state.delta = delta;

    ctx.pool = innerPool(params.placer.threads);
    ctx.observer = observer_;
    ctx.cancel = &cancel_;
    ctx.incremental = &state;
    runStages(ctx, makeIncrementalStages(ctx.params));
    return std::move(ctx.result);
}

FlowResult
PlacementSession::run(const Topology &topo, const FlowParams &params)
{
    // Human mode has no parallel stage; don't build (or keep alive) a
    // pool for it.
    ThreadPool *pool = params.mode == PlacerMode::Human
                           ? nullptr
                           : innerPool(params.placer.threads);
    return runJob(topo, params, /*job_index=*/0, pool, /*logging=*/true);
}

std::vector<FlowResult>
PlacementSession::runBatch(const std::vector<PlacementJob> &jobs)
{
    std::vector<JobRef> refs;
    refs.reserve(jobs.size());
    for (const PlacementJob &job : jobs)
        refs.push_back({&job.topo, &job.params});
    return runBatchRefs(refs);
}

std::vector<FlowResult>
PlacementSession::runBatch(const Topology &topo,
                           const std::vector<FlowParams> &jobs)
{
    std::vector<JobRef> refs;
    refs.reserve(jobs.size());
    for (const FlowParams &params : jobs)
        refs.push_back({&topo, &params});
    return runBatchRefs(refs);
}

std::vector<FlowResult>
PlacementSession::runBatchRefs(const std::vector<JobRef> &jobs)
{
    std::vector<FlowResult> results(jobs.size());
    if (jobs.empty())
        return results;

    const int workers =
        std::min<int>(ThreadPool::resolveThreadCount(params_.workers),
                      static_cast<int>(jobs.size()));

    if (workers <= 1) {
        // Serial batch: jobs run in order on this thread and keep
        // their requested intra-placement thread count.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ThreadPool *pool =
                jobs[i].params->mode == PlacerMode::Human
                    ? nullptr
                    : innerPool(jobs[i].params->placer.threads);
            results[i] = runJob(*jobs[i].topo, *jobs[i].params,
                                static_cast<int>(i), pool,
                                /*logging=*/true);
        }
        return results;
    }

    if (!batch_ || batch_->threads() != workers)
        batch_ = std::make_unique<ThreadPool>(workers);

    // Concurrent batch: every worker pulls the next unclaimed job
    // (dynamic scheduling -- placements vary wildly in cost, so a
    // static split would idle half the pool on the tail). Each job is
    // placed without an inner pool: nesting regions on one pool is
    // illegal. A layout does not depend on the thread count, so the
    // results equal serial runs bit for bit. runJob never throws
    // (stage errors land in the per-job status), so one failing job
    // cannot take down the batch.
    std::atomic<std::size_t> next{0};
    batch_->forChunks(
        static_cast<std::size_t>(workers),
        [&](int, std::size_t, std::size_t) {
            for (std::size_t i = next.fetch_add(1); i < jobs.size();
                 i = next.fetch_add(1)) {
                results[i] = runJob(*jobs[i].topo, *jobs[i].params,
                                    static_cast<int>(i), nullptr,
                                    /*logging=*/false);
            }
        });
    return results;
}

FlowResult
PlacementSession::runPortfolio(const Topology &topo,
                               const FlowParams &params, int n_seeds)
{
    FlowParams base = params;
    if (n_seeds > 0)
        base.portfolio.seeds = n_seeds;

    std::string error;
    const FlowParams normalized = base.normalized(&error);
    if (!error.empty()) {
        FlowResult failed;
        failed.status = {FlowCode::InvalidParams, "", error};
        return failed;
    }

    // One seed is the exact single-seed path (bitwise); Human mode has
    // no seed sensitivity worth exploring.
    if (normalized.portfolio.seeds <= 1 || base.mode == PlacerMode::Human)
        return run(topo, base);

    const int n = normalized.portfolio.seeds;
    PortfolioStats stats;
    stats.portfolio = true;
    stats.seeds = n;
    stats.candidates.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        // Seed offsets wrap mod 2^64 (unsigned arithmetic is defined);
        // n consecutive values are always distinct.
        stats.candidates[static_cast<std::size_t>(i)].seed =
            base.placer.seed + static_cast<std::uint64_t>(i);
    }

    std::vector<int> alive(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        alive[static_cast<std::size_t>(i)] = i;
    std::vector<char> probe_ok(static_cast<std::size_t>(n), 1);
    TrajectoryRecorder recorder(static_cast<std::size_t>(n));

    // Successive-halving probe rungs: truncated placements at a
    // doubling iteration budget, ranked on the trajectory tails.
    long long checkpoint = normalized.portfolio.pruneAt;
    while (static_cast<int>(alive.size()) > 1 &&
           checkpoint < normalized.placer.maxIters &&
           !cancel_.cancelled()) {
        const int keep = std::max(
            1, static_cast<int>(std::ceil(
                   static_cast<double>(alive.size()) *
                   normalized.portfolio.keepFrac)));
        if (keep >= static_cast<int>(alive.size()))
            break; // keepFrac pins every candidate; probing buys nothing.

        recorder.clear();
        std::vector<FlowResult> probes(alive.size());
        const auto probe_job = [&](std::size_t k) {
            const int ci = alive[k];
            FlowParams probe = base;
            probe.placer.seed =
                stats.candidates[static_cast<std::size_t>(ci)].seed;
            probe.placer.maxIters = static_cast<int>(checkpoint);
            probes[k] = runTruncatedProbe(topo, probe, ci, &recorder,
                                          &cancel_);
        };
        const int workers = std::min<int>(
            ThreadPool::resolveThreadCount(params_.workers),
            static_cast<int>(alive.size()));
        if (workers <= 1) {
            for (std::size_t k = 0; k < alive.size(); ++k)
                probe_job(k);
        } else {
            if (!batch_ || batch_->threads() != workers)
                batch_ = std::make_unique<ThreadPool>(workers);
            std::atomic<std::size_t> next{0};
            batch_->forChunks(
                static_cast<std::size_t>(workers),
                [&](int, std::size_t, std::size_t) {
                    for (std::size_t k = next.fetch_add(1);
                         k < alive.size(); k = next.fetch_add(1))
                        probe_job(k);
                });
        }
        ++stats.rungs;

        for (std::size_t k = 0; k < alive.size(); ++k) {
            const std::size_t ci = static_cast<std::size_t>(alive[k]);
            probe_ok[ci] = probes[k].status.ok() ? 1 : 0;
            const auto &traj = recorder.of(ci);
            if (!traj.empty()) {
                stats.candidates[ci].probeOverflow = traj.back().overflow;
                stats.candidates[ci].probeHpwl = traj.back().hpwl;
            }
        }

        std::vector<int> order = alive;
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            const auto &ca = stats.candidates[static_cast<std::size_t>(a)];
            const auto &cb = stats.candidates[static_cast<std::size_t>(b)];
            const std::size_t ia = static_cast<std::size_t>(a);
            const std::size_t ib = static_cast<std::size_t>(b);
            if (probe_ok[ia] != probe_ok[ib])
                return probe_ok[ia] > probe_ok[ib];
            if (ca.probeOverflow != cb.probeOverflow)
                return ca.probeOverflow < cb.probeOverflow;
            if (ca.probeHpwl != cb.probeHpwl)
                return ca.probeHpwl < cb.probeHpwl;
            return a < b;
        });
        std::vector<int> survivors(order.begin(), order.begin() + keep);
        // The base seed never gets pruned: its full run is exactly the
        // single-seed flow, so keeping it makes the portfolio's final
        // pick dominate single-seed quality by construction.
        if (std::find(survivors.begin(), survivors.end(), 0) ==
            survivors.end())
            survivors.push_back(0);
        std::sort(survivors.begin(), survivors.end());
        for (const int ci : alive) {
            if (std::find(survivors.begin(), survivors.end(), ci) ==
                survivors.end()) {
                stats.candidates[static_cast<std::size_t>(ci)]
                    .prunedAtIters = static_cast<int>(checkpoint);
            }
        }
        alive = std::move(survivors);
        checkpoint *= 2;
    }

    if (cancel_.cancelled()) {
        FlowResult cancelled;
        cancelled.status = {FlowCode::Cancelled, "portfolio",
                            "cancelled during portfolio probes"};
        cancelled.portfolioStats = std::move(stats);
        return cancelled;
    }

    // Survivors run the complete flow (detailed stage included when
    // enabled) through runBatch; the winner is bitwise-identical to a
    // replay of its seed at any thread count. The external observer
    // stays detached: per-candidate events would interleave
    // meaninglessly.
    std::vector<FlowParams> fulls;
    fulls.reserve(alive.size());
    for (const int ci : alive) {
        FlowParams full = base;
        full.placer.seed =
            stats.candidates[static_cast<std::size_t>(ci)].seed;
        fulls.push_back(full);
    }
    FlowObserver *const saved = observer_;
    observer_ = nullptr;
    std::vector<FlowResult> finals = runBatch(topo, fulls);
    observer_ = saved;

    std::size_t winner_k = 0;
    bool have_winner = false;
    for (std::size_t k = 0; k < alive.size(); ++k) {
        const std::size_t ci = static_cast<std::size_t>(alive[k]);
        stats.candidates[ci].ranFull = true;
        if (!finals[k].status.ok())
            continue;
        stats.candidates[ci].finalHpwl = layoutHpwl(finals[k].netlist);
        const auto better = [&](std::size_t a, std::size_t b) {
            // Prefer legal layouts, then lower HPWL, then lower offset.
            const FlowResult &ra = finals[a];
            const FlowResult &rb = finals[b];
            if (ra.legal.legal != rb.legal.legal)
                return ra.legal.legal;
            const double ha = stats.candidates[static_cast<std::size_t>(
                                                   alive[a])]
                                  .finalHpwl;
            const double hb = stats.candidates[static_cast<std::size_t>(
                                                   alive[b])]
                                  .finalHpwl;
            if (ha != hb)
                return ha < hb;
            return alive[a] < alive[b];
        };
        if (!have_winner || better(k, winner_k)) {
            winner_k = k;
            have_winner = true;
        }
    }
    // With no ok candidate the base seed's result (alive is sorted, so
    // k = 0 is the base) carries its own error status back.

    const std::size_t winner_ci =
        static_cast<std::size_t>(alive[winner_k]);
    stats.winnerSeed = stats.candidates[winner_ci].seed;
    stats.candidates[winner_ci].winner = true;
    FlowResult result = std::move(finals[winner_k]);
    result.portfolioStats = std::move(stats);
    return result;
}

} // namespace qplacer
