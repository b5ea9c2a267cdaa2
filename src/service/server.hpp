/**
 * @file
 * PlacementServer: the long-lived placement-as-a-service job host.
 *
 * One server owns a pool of worker threads, each wrapping its own warm
 * PlacementSession (thread pools and spectral-plan caches stay alive
 * across jobs), a FIFO job queue, a parsed-topology cache, and a
 * bounded store of finished layouts (PriorStore) that incremental
 * requests reference by job id. Transport is someone else's problem:
 * the server consumes request lines (handleLine) and emits response
 * JsonValues through a caller-supplied sink, so the same engine serves
 * stdin/stdout, a Unix socket (tools/qplacer_server.cpp), an
 * in-process loopback (tests), or a bench driver.
 *
 * Production hardening (all off by default; defaults reproduce the
 * original behaviour byte-for-byte):
 *
 *  - ServerOptions::stateDir makes the prior store crash-safe: acked
 *    layouts are journaled + fsynced before the result is emitted and
 *    replayed on restart (prior_store.hpp has the on-disk contract).
 *  - ServerOptions::maxQueue bounds the queue; beyond it submits are
 *    rejected with a structured "overloaded" error carrying the queue
 *    depth and an EWMA-of-service-time retry hint.
 *  - Per-job deadlines ("deadline_ms" on submit, or
 *    ServerOptions::defaultDeadlineMs): a monitor thread cancels the
 *    job when its *execution* clock expires and the result reports
 *    status "deadline_exceeded" (distinct from a client cancel). If
 *    the worker has not stopped stuckGraceMs after the deadline fired
 *    a watchdog logs the stage/iteration it is stuck in.
 *  - Shutdown flips the server to non-accepting first, so a submit
 *    racing a shutdown gets a deterministic "shutting_down" error
 *    instead of a job that may never report.
 *  - Failpoint sites (util/failpoint.hpp) at queue admission, worker
 *    pickup, prior capture, and response emission; armed only via
 *    QPLACER_FAILPOINTS / the "failpoint" request behind
 *    ServerOptions::enableFailpoints.
 *
 * Determinism contract: a layout does not depend on the thread count,
 * so a stream of concurrent jobs is bitwise-identical to running each
 * on its own. With workers > 1 every job is placed with
 * placer.threads = 1 so that concurrent jobs do not oversubscribe the
 * cores. Responses for one job arrive in order (ack -> progress* ->
 * result); responses of different jobs interleave.
 */

#ifndef QPLACER_SERVICE_SERVER_HPP
#define QPLACER_SERVICE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/session.hpp"
#include "service/prior_store.hpp"
#include "service/protocol.hpp"
#include "topology/topology.hpp"

namespace qplacer {

/** Emits one response object (serialized by the transport). */
using ResponseSink = std::function<void(const JsonValue &)>;

/** Server configuration. */
struct ServerOptions
{
    /**
     * Concurrent job workers. 0 = hardware concurrency (capped like
     * ThreadPool's auto choice); 1 = strictly ordered execution.
     */
    int workers = 1;

    /**
     * Finished layouts kept for incremental re-place, evicted least-
     * recently-used (every lookup or re-capture of an id promotes it).
     * Every successful job's layout is captured (two position maps --
     * cheap), so any recent job id can serve as a "base".
     */
    int resultCacheCap = 64;

    /**
     * Crash-safe prior persistence: directory for the journal +
     * snapshot pair (created if missing), replayed on startup. Empty
     * (the default) keeps the store memory-only.
     */
    std::string stateDir;

    /** Journal appends between snapshot compactions (with stateDir). */
    int snapshotEvery = 32;

    /**
     * Queue bound: submits beyond this many waiting jobs are rejected
     * with the "overloaded" error. 0 (default) = unbounded.
     */
    int maxQueue = 0;

    /**
     * Deadline applied to jobs that do not carry their own
     * "deadline_ms", in milliseconds of execution time. 0 (default) =
     * none.
     */
    double defaultDeadlineMs = 0.0;

    /**
     * Watchdog grace: if a deadline-cancelled job is still running
     * this long after its token fired, log the stage/iteration it is
     * stuck in (a stage that does not poll its CancelToken).
     */
    double stuckGraceMs = 2000.0;

    /**
     * Honor "failpoint" protocol requests. Off by default; the
     * transport (qplacer_server --enable-failpoints) also gates the
     * QPLACER_FAILPOINTS environment variable on this.
     */
    bool enableFailpoints = false;

    /** Base flow parameters; per-request fields and "set" override. */
    FlowParams defaults;

    /** Emit inform() lines for job lifecycle events (stderr). */
    bool logging = false;
};

/** The job host; see the file header for the contract. */
class PlacementServer
{
  public:
    explicit PlacementServer(ServerOptions options = {});

    /** Joins the workers (drains the queue first). */
    ~PlacementServer();

    PlacementServer(const PlacementServer &) = delete;
    PlacementServer &operator=(const PlacementServer &) = delete;

    /**
     * Parse and dispatch one request line; every response (including
     * parse errors) goes through @p sink. Returns false once shutdown
     * was requested -- the transport should stop reading then.
     * Response emission is serialized internally, so sinks may write
     * to a shared stream without their own locking.
     */
    bool handleLine(const std::string &line, const ResponseSink &sink);

    /**
     * Admit a parsed job: on acceptance emits the ack and queues it
     * (the result arrives later via @p sink) and returns true; on
     * rejection emits a structured error ("overloaded" past maxQueue,
     * "shutting_down" after shutdown began, "injected" under the
     * queue-admission failpoint) and returns false. The ack is
     * guaranteed to precede every other response of the job.
     */
    bool submit(const SubmitRequest &request, ResponseSink sink);

    /**
     * Cancel a queued or running job. Queued jobs report a cancelled
     * result without running; running jobs stop at their next poll.
     * False if no such job is queued or running.
     */
    bool cancel(const std::string &id);

    /** Block until the queue is empty and all workers are idle. */
    void drain();

    /** Jobs fully processed so far (including cancelled ones). */
    int jobsCompleted() const;

    /** Jobs waiting in the queue right now. */
    int queueDepth() const;

    /** Jobs currently executing on workers. */
    int activeJobs() const;

    /** Resolved worker count. */
    int workers() const { return static_cast<int>(workers_.size()); }

    /** The layout store (tests inspect persistence state). */
    PriorStore &priorStore() { return *priors_; }

  private:
    struct Job
    {
        SubmitRequest request;
        ResponseSink sink;
    };

    /** One worker: a warm session plus its currently-running job id. */
    struct Worker
    {
        std::unique_ptr<PlacementSession> session;
        std::thread thread;
        std::string runningId; ///< Guarded by mu_.

        // Deadline + watchdog state, guarded by mu_ except where
        // noted. Valid while runningId is set and hasDeadline is true.
        bool hasDeadline = false;
        bool deadlineFired = false; ///< Monitor cancelled the job.
        bool stuckLogged = false;   ///< Watchdog warning emitted.
        std::chrono::steady_clock::time_point deadline{};
        std::string lastStage; ///< Last stage begun (mu_).
        std::atomic<int> lastIteration{-1}; ///< Last placer iteration.
    };

    void workerLoop(int worker_index);
    void monitorLoop();
    void runJob(int worker_index, Job &job);
    void emit(const ResponseSink &sink, const JsonValue &response);

    /** Cached parse of a topology spec; false + error on bad specs. */
    bool topologyFor(const std::string &spec, const Topology *&out,
                     std::string &error);

    /** Backoff hint for "overloaded" rejections (under mu_). */
    double retryAfterMsLocked() const;

    ServerOptions options_;

    mutable std::mutex mu_; ///< Queue, worker state, counters.
    std::condition_variable workAvailable_;
    std::condition_variable workDone_;
    std::condition_variable monitorCv_;
    std::deque<Job> queue_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::thread monitor_;
    bool stopping_ = false;
    bool accepting_ = true; ///< Cleared when shutdown is requested.
    int completed_ = 0;

    /** EWMA of job service time in ms (mu_); feeds retry_after_ms. */
    double ewmaServiceMs_ = 0.0;
    bool hasServiceSample_ = false;

    /** Finished layouts by job id (thread-safe; optionally on disk). */
    std::unique_ptr<PriorStore> priors_;

    std::mutex topoMu_;
    std::map<std::string, std::unique_ptr<Topology>> topologies_;

    std::mutex emitMu_; ///< Serializes response emission.
};

} // namespace qplacer

#endif
