/** @file PlacementServer implementation; contract in server.hpp. */

#include "service/server.hpp"

#include <algorithm>
#include <utility>

#include "pipeline/overrides.hpp"
#include "topology/factory.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qplacer {
namespace {

/** EWMA weight of the newest service-time sample. */
constexpr double kEwmaAlpha = 0.2;

/**
 * Streams FlowObserver events for one job as progress responses.
 * progressEvery: -1 = silent, 0 = stage events, N > 0 = stage events
 * plus every Nth placement iteration (see SubmitRequest). The stage /
 * iteration hooks feed the stuck-worker watchdog and fire regardless
 * of the progress level.
 */
class StreamObserver : public FlowObserver
{
  public:
    StreamObserver(std::string id, int progress_every,
                   std::function<void(const JsonValue &)> emit,
                   std::function<void(const std::string &)> on_stage,
                   std::function<void(int)> on_iteration)
        : id_(std::move(id)), progressEvery_(progress_every),
          emit_(std::move(emit)), onStage_(std::move(on_stage)),
          onIteration_(std::move(on_iteration))
    {
    }

    void
    onStageBegin(const FlowContext &, const std::string &stage) override
    {
        if (onStage_)
            onStage_(stage);
        if (progressEvery_ >= 0)
            emit_(makeStageBegin(id_, stage));
    }

    void
    onStageEnd(const FlowContext &, const StageTiming &timing) override
    {
        if (progressEvery_ >= 0)
            emit_(makeStageEnd(id_, timing.stage, timing.seconds));
    }

    void
    onIteration(const FlowContext &, const PlaceProgress &progress) override
    {
        if (onIteration_)
            onIteration_(progress.iteration);
        if (progressEvery_ > 0 && progress.iteration % progressEvery_ == 0)
            emit_(makeIteration(id_, progress.iteration, progress.overflow,
                                progress.hpwl));
    }

  private:
    std::string id_;
    int progressEvery_;
    std::function<void(const JsonValue &)> emit_;
    std::function<void(const std::string &)> onStage_;
    std::function<void(int)> onIteration_;
};

} // namespace

PlacementServer::PlacementServer(ServerOptions options)
    : options_(std::move(options))
{
    PriorStoreOptions store;
    store.capacity = options_.resultCacheCap;
    store.stateDir = options_.stateDir;
    store.snapshotEvery = options_.snapshotEvery;
    priors_ = std::make_unique<PriorStore>(store);

    const int n = ThreadPool::resolveThreadCount(options_.workers);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto worker = std::make_unique<Worker>();
        SessionParams sp;
        sp.flow = options_.defaults;
        sp.workers = 1; // Concurrency lives at the server's job level.
        worker->session = std::make_unique<PlacementSession>(sp);
        workers_.push_back(std::move(worker));
    }
    for (int i = 0; i < n; ++i)
        workers_[static_cast<std::size_t>(i)]->thread =
            std::thread([this, i] { workerLoop(i); });
    monitor_ = std::thread([this] { monitorLoop(); });
}

PlacementServer::~PlacementServer()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    monitorCv_.notify_all();
    for (auto &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();
    if (monitor_.joinable())
        monitor_.join();
}

bool
PlacementServer::handleLine(const std::string &line,
                            const ResponseSink &sink)
{
    Request req;
    std::string error;
    if (!parseRequest(line, req, &error)) {
        emit(sink, makeError(req.id, error));
        return true;
    }

    switch (req.type) {
    case Request::Type::Ping: {
        int depth = 0;
        int active = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            depth = static_cast<int>(queue_.size());
            for (const auto &worker : workers_)
                if (!worker->runningId.empty())
                    ++active;
        }
        emit(sink, makePong(depth, active));
        return true;
    }

    case Request::Type::Cancel:
        if (cancel(req.id))
            emit(sink, makeAck(req.id));
        else
            emit(sink, makeError(req.id, "no queued or running job '" +
                                             req.id + "'"));
        return true;

    case Request::Type::Failpoint: {
        if (!options_.enableFailpoints) {
            emit(sink,
                 makeErrorCode(req.id, "failpoints_disabled",
                               "failpoint requests require the server "
                               "to run with --enable-failpoints"));
            return true;
        }
        std::string fperr;
        if (Failpoints::instance().arm(req.failpointSite,
                                       req.failpointSpec, &fperr))
            emit(sink, makeAck(req.id));
        else
            emit(sink, makeError(req.id, fperr));
        return true;
    }

    case Request::Type::Shutdown:
        // Stop accepting *before* draining: a submit racing this
        // shutdown gets a deterministic "shutting_down" rejection
        // instead of a job whose result may never be read.
        {
            std::lock_guard<std::mutex> lock(mu_);
            accepting_ = false;
        }
        drain();
        emit(sink, makeBye(jobsCompleted()));
        return false;

    case Request::Type::Submit:
        break;
    }

    // Reject specs that can never run before acking the job; the
    // base id is checked at run time instead (a queued base job may
    // finish before this one starts).
    {
        const Topology *topo = nullptr;
        if (!topologyFor(req.submit.topology, topo, error)) {
            emit(sink, makeError(req.id, error));
            return true;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        bool taken = false;
        for (const Job &job : queue_)
            taken = taken || job.request.id == req.id;
        for (const auto &worker : workers_)
            taken = taken || worker->runningId == req.id;
        if (taken) {
            emit(sink, makeError(req.id, "job id '" + req.id +
                                             "' is already queued or "
                                             "running"));
            return true;
        }
    }
    submit(req.submit, sink);
    return true;
}

bool
PlacementServer::submit(const SubmitRequest &request, ResponseSink sink)
{
    // The admission failpoint runs before any lock is held: a delay
    // action must stall only this submit, not the workers.
    if (QPLACER_FAILPOINT("server.queue_admission")) {
        emit(sink, makeErrorCode(request.id, "injected",
                                 "injected failure at failpoint "
                                 "'server.queue_admission'"));
        return false;
    }

    // Admission and its response happen under emitMu_, with mu_ nested
    // inside, so no worker can emit this job's result before the ack
    // is on the wire. The nesting order (emitMu_ -> mu_) is safe
    // because emit() is never called while holding mu_.
    bool accepted = false;
    {
        std::lock_guard<std::mutex> order(emitMu_);
        JsonValue response;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!accepting_) {
                response = makeErrorCode(request.id, "shutting_down",
                                         "server is shutting down; "
                                         "submit rejected");
            } else if (options_.maxQueue > 0 &&
                       static_cast<int>(queue_.size()) >=
                           options_.maxQueue) {
                response =
                    makeOverloaded(request.id,
                                   static_cast<int>(queue_.size()),
                                   retryAfterMsLocked());
            } else {
                accepted = true;
                queue_.push_back(Job{request, sink});
                response = makeAck(request.id);
            }
        }
        if (QPLACER_FAILPOINT("server.emit"))
            warn("server: response for job '" + request.id +
                 "' dropped at failpoint 'server.emit'");
        else
            sink(response);
    }
    if (accepted)
        workAvailable_.notify_one();
    return accepted;
}

bool
PlacementServer::cancel(const std::string &id)
{
    Job cancelled;
    bool queued = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->request.id == id) {
                cancelled = std::move(*it);
                queue_.erase(it);
                queued = true;
                break;
            }
        }
        if (!queued) {
            for (auto &worker : workers_) {
                if (worker->runningId == id) {
                    worker->session->cancelToken().cancel();
                    return true;
                }
            }
            return false;
        }
        ++completed_;
    }
    workDone_.notify_all();

    // Synthesize a cancelled result so the client still gets a
    // terminal response for the job.
    FlowResult result;
    result.status.code = FlowCode::Cancelled;
    result.status.message = "cancelled before start";
    emit(cancelled.sink,
         makeResult(id, jobReportJson(result, cancelled.request.seed)));
    return true;
}

void
PlacementServer::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    workDone_.wait(lock, [this] {
        if (!queue_.empty())
            return false;
        for (const auto &worker : workers_)
            if (!worker->runningId.empty())
                return false;
        return true;
    });
}

int
PlacementServer::jobsCompleted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
}

int
PlacementServer::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(queue_.size());
}

int
PlacementServer::activeJobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    int active = 0;
    for (const auto &worker : workers_)
        if (!worker->runningId.empty())
            ++active;
    return active;
}

double
PlacementServer::retryAfterMsLocked() const
{
    if (!hasServiceSample_)
        return 1000.0; // No history yet; a conservative default.
    const double depth = static_cast<double>(queue_.size());
    const double lanes =
        static_cast<double>(std::max<std::size_t>(1, workers_.size()));
    return ewmaServiceMs_ * (depth + 1.0) / lanes;
}

void
PlacementServer::workerLoop(int worker_index)
{
    Worker &self = *workers_[static_cast<std::size_t>(worker_index)];
    for (;;) {
        Job job;
        bool deadlined = false;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workAvailable_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and nothing left to drain.
            job = std::move(queue_.front());
            queue_.pop_front();
            // Reset the token before publishing runningId, both under
            // mu_: once a cancel request can match this job, nothing
            // may wipe its token again (a late reset would turn an
            // acked cancel into a job that runs to completion).
            self.session->cancelToken().reset();
            self.runningId = job.request.id;
            // The deadline clock measures execution, not queueing:
            // it starts here, at pickup.
            const double deadline_ms = job.request.deadlineMs > 0.0
                                           ? job.request.deadlineMs
                                           : options_.defaultDeadlineMs;
            if (deadline_ms > 0.0) {
                deadlined = true;
                self.hasDeadline = true;
                self.deadlineFired = false;
                self.stuckLogged = false;
                self.deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            deadline_ms));
            }
            self.lastStage.clear();
            self.lastIteration.store(-1, std::memory_order_relaxed);
        }
        if (deadlined)
            monitorCv_.notify_all();

        Timer timer;
        if (QPLACER_FAILPOINT("server.worker_pickup")) {
            emit(job.sink, makeErrorCode(job.request.id, "injected",
                                         "injected failure at failpoint "
                                         "'server.worker_pickup'"));
        } else {
            runJob(worker_index, job);
        }
        const double service_ms = timer.seconds() * 1000.0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            self.runningId.clear();
            self.hasDeadline = false;
            ++completed_;
            ewmaServiceMs_ = hasServiceSample_
                                 ? kEwmaAlpha * service_ms +
                                       (1.0 - kEwmaAlpha) * ewmaServiceMs_
                                 : service_ms;
            hasServiceSample_ = true;
        }
        workDone_.notify_all();
        monitorCv_.notify_all();
    }
}

void
PlacementServer::monitorLoop()
{
    using Clock = std::chrono::steady_clock;
    const auto grace =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::max(0.0, options_.stuckGraceMs)));

    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
        // Earliest pending event: a deadline not yet fired, or the
        // watchdog check of a fired deadline whose job is still
        // running.
        Clock::time_point next = Clock::time_point::max();
        for (const auto &worker : workers_) {
            if (!worker->hasDeadline)
                continue;
            if (!worker->deadlineFired)
                next = std::min(next, worker->deadline);
            else if (!worker->stuckLogged)
                next = std::min(next, worker->deadline + grace);
        }
        if (next == Clock::time_point::max()) {
            monitorCv_.wait(lock);
            continue;
        }
        monitorCv_.wait_until(lock, next);
        if (stopping_)
            break;

        const Clock::time_point now = Clock::now();
        for (const auto &worker : workers_) {
            if (!worker->hasDeadline || worker->runningId.empty())
                continue;
            if (!worker->deadlineFired && now >= worker->deadline) {
                worker->deadlineFired = true;
                worker->session->cancelToken().cancel();
                if (options_.logging)
                    inform("server: job '" + worker->runningId +
                           "' deadline expired; cancelling");
            } else if (worker->deadlineFired && !worker->stuckLogged &&
                       now >= worker->deadline + grace) {
                worker->stuckLogged = true;
                warn(str("server: job '", worker->runningId,
                         "' still running ", options_.stuckGraceMs,
                         " ms after its deadline fired (stage=",
                         worker->lastStage.empty() ? "?"
                                                   : worker->lastStage,
                         ", iteration=",
                         worker->lastIteration.load(
                             std::memory_order_relaxed),
                         "); stage may not poll its cancel token"));
            }
        }
    }
}

void
PlacementServer::runJob(int worker_index, Job &job)
{
    Worker &self = *workers_[static_cast<std::size_t>(worker_index)];
    PlacementSession &session = *self.session;
    const SubmitRequest &req = job.request;

    const Topology *topo = nullptr;
    std::string error;
    if (!topologyFor(req.topology, topo, error)) {
        emit(job.sink, makeError(req.id, error));
        return;
    }

    FlowParams params = options_.defaults;
    params.mode = req.mode;
    params.placer.seed = req.seed;
    params.partition.segmentUm = req.segmentUm;
    applyOverrides(req.set, params);
    // With concurrent workers every job places single-threaded, so
    // the workers do not oversubscribe the cores (the layout is the
    // same at any thread count).
    if (workers() > 1)
        params.placer.threads = 1;

    std::shared_ptr<const PriorLayout> prior;
    if (req.isIncremental()) {
        // get() promotes on hit (LRU): a hot incremental base must not
        // be evicted by unrelated submits while still in active use.
        prior = priors_->get(req.baseId);
        if (!prior) {
            emit(job.sink,
                 makeError(req.id, "unknown base job '" + req.baseId +
                                       "' (evicted or never run)"));
            return;
        }
    }

    if (options_.logging)
        inform("server: job '" + req.id + "' starting on worker " +
               std::to_string(worker_index));

    StreamObserver observer(
        req.id, req.progressEvery,
        [this, &job](const JsonValue &v) { emit(job.sink, v); },
        [this, &self](const std::string &stage) {
            std::lock_guard<std::mutex> lock(mu_);
            self.lastStage = stage;
        },
        [&self](int iteration) {
            self.lastIteration.store(iteration,
                                     std::memory_order_relaxed);
        });
    session.setObserver(&observer); // Token was reset in workerLoop.
    FlowResult result;
    if (prior) {
        NetlistDelta delta;
        delta.dirtyQubits = req.dirtyQubits;
        // A dirtied coupler dirties both endpoint qubits; the delta
        // closure picks up the resonator chain between them.
        for (const auto &coupler : req.dirtyCouplers) {
            delta.dirtyQubits.push_back(coupler.first);
            delta.dirtyQubits.push_back(coupler.second);
        }
        result = session.runIncremental(*topo, params, *prior, delta);
    } else if (req.isPortfolio()) {
        if (req.portfolioPruneAt > 0)
            params.portfolio.pruneAt = req.portfolioPruneAt;
        if (req.portfolioKeepFrac > 0.0)
            params.portfolio.keepFrac = req.portfolioKeepFrac;
        result = session.runPortfolio(*topo, params, req.portfolioSeeds);
    } else {
        result = session.run(*topo, params);
    }
    session.setObserver(nullptr);

    // A cancel triggered by the deadline monitor reports distinctly
    // from a client cancel. A job that still finished Ok keeps its Ok
    // (the work is done; no reason to discard it).
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (self.deadlineFired &&
            result.status.code == FlowCode::Cancelled) {
            result.status.code = FlowCode::DeadlineExceeded;
            result.status.message =
                "deadline exceeded (" + result.status.message + ")";
        }
    }

    if (result.status.ok()) {
        if (QPLACER_FAILPOINT("prior_store.capture")) {
            warn("server: prior capture for job '" + req.id +
                 "' dropped at failpoint 'prior_store.capture'");
        } else {
            auto captured = std::make_shared<const PriorLayout>(
                PriorLayout::capture(result.netlist));
            // put() journals + fsyncs (when persistent) before it
            // returns, so the layout is durable before the result
            // below is emitted: an acked prior is always recoverable.
            priors_->put(req.id, std::move(captured));
        }
    }

    JsonValue response = makeResult(req.id, jobReportJson(result, req.seed));
    if (req.wantLayout && result.status.ok())
        response.set("layout", layoutJson(result.netlist));
    emit(job.sink, response);

    if (options_.logging)
        inform("server: job '" + req.id + "' finished (" +
               flowCodeName(result.status.code) + ")");
}

void
PlacementServer::emit(const ResponseSink &sink, const JsonValue &response)
{
    if (QPLACER_FAILPOINT("server.emit")) {
        warn("server: response dropped at failpoint 'server.emit'");
        return;
    }
    std::lock_guard<std::mutex> lock(emitMu_);
    sink(response);
}

bool
PlacementServer::topologyFor(const std::string &spec, const Topology *&out,
                             std::string &error)
{
    std::lock_guard<std::mutex> lock(topoMu_);
    auto it = topologies_.find(spec);
    if (it == topologies_.end()) {
        Topology topo;
        if (!resolveTopologySpec(spec, topo, &error))
            return false;
        it = topologies_
                 .emplace(spec,
                          std::make_unique<Topology>(std::move(topo)))
                 .first;
    }
    out = it->second.get();
    return true;
}

} // namespace qplacer
