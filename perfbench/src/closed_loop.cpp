/**
 * @file
 * The closed-loop workloads: one client places a fixed cycle of jobs
 * through a warm PlacementSession, each job starting when the previous
 * one returns, whole cycles until the run's seconds have passed.
 *
 * The placer seeds are fixed per workload, not drawn from the run
 * seed: layout quality swings by orders of magnitude between placer
 * seeds (BV fidelity spans 1e-22..1e-16 on grid32x32 Classic over
 * seeds 1-5), so a per-run placer seed would bury every regression in
 * seed noise. The run seed orders the cycle.
 *
 * Every job of a cycle is deterministic, so its repeats differ only by
 * host noise; the timing metrics use each slot's median over its
 * repeats. From three repeats on, that keeps a burst of host load on
 * one repeat out of them; with two (a paper-qplacer cycle takes about
 * 13 s, so a 20 s window holds two) it is their mean.
 */

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "pipeline/context.hpp"
#include "pipeline/session.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace qplacer;

namespace {

struct ClosedLoopWorkload
{
    std::vector<std::string> devices;
    PlacerMode mode = PlacerMode::Qplacer;
    std::vector<std::uint64_t> placerSeeds;
    int threads = 1;
    double sloSeconds = 0.0; ///< Latency limit per job.
    std::string replayDevice; ///< Device the kernel replay runs on.
};

ClosedLoopWorkload
workloadFor(const std::string &name)
{
    if (name == "paper-qplacer")
        return {{"Grid", "Xtree", "Aspen-11", "Falcon", "Aspen-M", "Eagle"},
                PlacerMode::Qplacer, {1}, 1, 30.0, "Eagle"};
    // One placement thread: on a shared 4-vCPU host a 2-thread
    // grid32x32 job ranged from 3.6 to 6.6 s between runs (a stalled
    // vCPU holds up every parallel loop), a 1-thread job from 5.3 to
    // 5.8 s. The pool is still timed at 1 and 2 threads by the replay.
    if (name == "classic-1k")
        return {{"grid32x32"}, PlacerMode::Classic, {1, 2}, 1, 15.0,
                "grid32x32"};
    throw std::invalid_argument("unknown closed-loop workload " + name);
}

struct JobSpec
{
    const Topology *topo = nullptr;
    FlowParams params;
};

/** Stops a warm-up run after a few placer iterations. */
class WarmupStopper final : public FlowObserver
{
  public:
    explicit WarmupStopper(CancelToken &token) : token_(token) {}

    void
    onIteration(const FlowContext &, const PlaceProgress &progress) override
    {
        if (progress.iteration >= 3)
            token_.cancel();
    }

  private:
    CancelToken &token_;
};

/** Records stage spans and iteration gaps with the benchmark's clock. */
class SpanRecorder final : public FlowObserver
{
  public:
    void startJob() { job_ = JobTrace(); lastIter_.reset(); }
    JobTrace &job() { return job_; }

    void
    onStageBegin(const FlowContext &, const std::string &) override
    {
        stageBegin_ = Clock::now();
    }

    void
    onStageEnd(const FlowContext &, const StageTiming &timing) override
    {
        job_.stageS[timing.stage] +=
            secondsBetween(stageBegin_, Clock::now());
    }

    void
    onIteration(const FlowContext &, const PlaceProgress &) override
    {
        const auto now = Clock::now();
        if (lastIter_)
            job_.iterMs.push_back(secondsBetween(*lastIter_, now) * 1e3);
        lastIter_ = now;
    }

  private:
    JobTrace job_;
    Clock::time_point stageBegin_;
    std::optional<Clock::time_point> lastIter_;
};

/** A warm session plus the parsed devices it places. */
struct SetUp
{
    std::vector<std::unique_ptr<Topology>> topologies;
    std::unique_ptr<PlacementSession> session;
    std::vector<JobSpec> cycle;
};

FlowParams
paramsFor(const ClosedLoopWorkload &w, std::uint64_t placer_seed)
{
    FlowParams p;
    p.mode = w.mode;
    p.placer.seed = placer_seed;
    p.placer.threads = w.threads;
    return p;
}

/**
 * Parse the devices, start a session and warm it (worker pool and
 * spectral plans) with a run per device that stops after a few
 * iterations. The cycle order comes from @p seed.
 */
SetUp
setUp(const ClosedLoopWorkload &w, std::uint64_t seed)
{
    SetUp s;
    s.session = std::make_unique<PlacementSession>();
    WarmupStopper stopper(s.session->cancelToken());
    s.session->setObserver(&stopper);
    for (const std::string &name : w.devices) {
        s.topologies.push_back(std::make_unique<Topology>(deviceNamed(name)));
        s.session->run(*s.topologies.back(), paramsFor(w, 1));
        s.session->cancelToken().reset();
    }
    s.session->setObserver(nullptr);

    for (const auto &topo : s.topologies)
        for (std::uint64_t placer_seed : w.placerSeeds)
            s.cycle.push_back({topo.get(), paramsFor(w, placer_seed)});
    Rng(seed).shuffle(s.cycle);
    return s;
}

void
reportNoServer(RunReport &report)
{
    static const std::pair<const char *, const char *> kServiceMetrics[] = {
        {"service.admit_us.p50", "us"},      {"service.queue_wait_ms.p50", "ms"},
        {"service.queue_wait_ms.p90", "ms"}, {"service.exec_ms.p50", "ms"},
        {"service.serialize_ms", "ms"},      {"service.result_bytes", "B"},
        {"service.prior_reused", "count"},   {"service.rejected", "count"},
        {"service.gen_late_ms.max", "ms"}};
    for (const auto &[name, unit] : kServiceMetrics)
        report.set(name, 0.0, unit, 0, "no server in this workload");
}

} // namespace

void
runClosedLoop(const RunOptions &options, RunReport &report)
{
    const ClosedLoopWorkload w = workloadFor(options.workload);
    report.placerThreads = w.threads;

    // Set-up is measured several times; the last session is used.
    constexpr int kSetUps = 9;
    std::vector<double> setup_s;
    SetUp s;
    for (int i = 0; i < (options.trace ? 1 : kSetUps); ++i) {
        const auto t0 = Clock::now();
        s = setUp(w, options.seed);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    PlacementSession &session = *s.session;
    const std::size_t cycle_len = s.cycle.size();

    // The first successful result of each cycle slot is kept for the
    // checks and the quality metrics; later repeats must match it.
    std::vector<FlowResult> first(cycle_len);
    std::vector<bool> have_first(cycle_len, false);
    SpanRecorder recorder;
    std::vector<JobTrace> traces;
    std::vector<std::vector<double>> slot_latencies(cycle_len);
    long ok_in_slo = 0;

    auto runJob = [&](std::size_t k, bool traced) {
        const JobSpec &job = s.cycle[k];
        recorder.startJob();
        const auto t0 = Clock::now();
        FlowResult r = session.run(*job.topo, job.params);
        const double latency = secondsBetween(t0, Clock::now());
        ++report.attempted;

        const std::string what = job.topo->name + " seed " +
                                 std::to_string(job.params.placer.seed);
        if (!r.status.ok()) {
            report.fail(what + ": status " + flowCodeName(r.status.code) +
                        " " + r.status.message);
        } else if (have_first[k] && !samePositions(r.netlist,
                                                   first[k].netlist)) {
            report.fail(what + ": repeat differs from its first run");
        } else if (latency <= w.sloSeconds) {
            ++ok_in_slo;
        }
        if (traced) {
            JobTrace t = recorder.job();
            t.latencyS = latency;
            t.iterations = r.place.iterations;
            t.converged = r.place.converged;
            t.spiralS = r.legal.spiralSeconds;
            t.flowRefineS = r.legal.flowRefineSeconds;
            t.tetrisS = r.legal.tetrisSeconds;
            t.integrationS = r.legal.integrationSeconds;
            t.cells = r.netlist.numInstances();
            t.movable = r.netlist.numInstances(); // cold runs move all
            traces.push_back(std::move(t));
        }
        if (r.status.ok() && !have_first[k]) {
            first[k] = std::move(r);
            have_first[k] = true;
        }
        return latency;
    };

    session.setObserver(options.trace ? &recorder : nullptr);
    const auto window_start = Clock::now();
    int cycles = 0;
    double last_cycle_s = 0.0;
    do {
        const auto cycle_start = Clock::now();
        for (std::size_t k = 0; k < cycle_len; ++k)
            slot_latencies[k].push_back(runJob(k, options.trace));
        last_cycle_s = secondsBetween(cycle_start, Clock::now());
        ++cycles;
    } while (secondsBetween(window_start, Clock::now()) < options.seconds);
    session.setObserver(nullptr);
    const long window_jobs = report.attempted;
    const long window_ok_in_slo = ok_in_slo;

    // The traced run then times one untraced cycle: its cost against
    // the last traced cycle is the tracing overhead. Its layouts must
    // also match the traced ones bit for bit.
    double untraced_cycle_s = 0.0;
    if (options.trace) {
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < cycle_len; ++k)
            runJob(k, false);
        untraced_cycle_s = secondsBetween(t0, Clock::now());
    }

    // Checks and quality, outside the timed window.
    std::vector<Quality> quality;
    for (std::size_t k = 0; k < cycle_len; ++k) {
        if (!have_first[k])
            continue;
        const JobSpec &job = s.cycle[k];
        const FlowResult &r = first[k];
        const std::string what = job.topo->name + " seed " +
                                 std::to_string(job.params.placer.seed);
        const Netlist unplaced = buildUnplaced(*job.topo, job.params);
        const std::string bad = checkQubitFootprints(
            r.netlist, legalRegionBound(unplaced.region()));
        if (!bad.empty())
            report.fail(what + ": " + bad);
        quality.push_back(measureQuality(*job.topo, r.netlist, job.params));
        if (quality.back().phPercent != r.hotspots.phPercent)
            report.fail(what + ": recomputed P_h differs from the result");
    }

    report.set("setup_s", median(setup_s), "s", setup_s.size(),
               "session start + warm-up run per device, median");
    std::vector<double> slot_s;
    for (const std::vector<double> &repeats : slot_latencies)
        slot_s.push_back(median(repeats));
    const std::string per_slot =
        "per-job medians over " + std::to_string(cycles) +
        " cycle(s) of " + std::to_string(cycle_len) + " jobs";
    const auto n = static_cast<std::size_t>(window_jobs);
    report.set("jobs_per_s",
               static_cast<double>(cycle_len) /
                   std::accumulate(slot_s.begin(), slot_s.end(), 0.0),
               "1/s", n, per_slot);
    report.set("job_s.p50", median(slot_s), "s", n, per_slot);
    report.set("job_s.p90", percentile(slot_s, 90.0), "s", n, per_slot);
    report.set("slo_frac",
               static_cast<double>(window_ok_in_slo) /
                   static_cast<double>(window_jobs),
               "frac", n,
               "ok within " + std::to_string(w.sloSeconds) + " s");
    reportQuality(report, quality);
    report.set("peak_rss_mb", peakRssMb(), "MB", 1);

    if (options.trace) {
        reportJobTraces(report, traces);
        report.set("bench.trace_overhead_frac",
                   last_cycle_s / untraced_cycle_s - 1.0, "frac", 1,
                   "last traced cycle / the untraced cycle after it - 1");
        for (std::size_t i = 0; i < w.devices.size(); ++i)
            if (w.devices[i] == w.replayDevice)
                replayKernels(report, *s.topologies[i], paramsFor(w, 1),
                              w.threads);
        reportNoServer(report);
    }
}

} // namespace perfbench
