/**
 * @file
 * Shared pieces of the qplacer benchmark driver: the metric sheet a
 * run fills in, small statistics helpers, the independent output
 * checks, the quality metrics, and the kernel-replay harness.
 *
 * The driver reaches the library only through public entry points:
 * PlacementSession::run, FlowObserver callbacks, PlacementServer::
 * handleLine, the staged-flow runner, and direct calls to the core/
 * kernels.
 */

#ifndef QPLACER_PERFBENCH_BENCH_HPP
#define QPLACER_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geometry/rect.hpp"
#include "math/stats.hpp"
#include "netlist/netlist.hpp"
#include "pipeline/flow.hpp"
#include "topology/topology.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0; ///< Observations behind the value.
    std::string note;        ///< How it was obtained, when not obvious.
};

/** Everything one run reports: metrics, counts and failures. */
struct RunReport
{
    std::vector<Metric> metrics;
    int placerThreads = 1;  ///< Resolved placement threads per job.
    int concurrentJobs = 1; ///< Jobs placed at once.
    long attempted = 0;
    std::vector<std::string> failures; ///< One line per failed operation.

    void set(const std::string &name, double value, const std::string &unit,
             std::size_t samples, const std::string &note = "");
    void fail(const std::string &what) { failures.push_back(what); }
};

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** serve-iterate only: override the fixed arrival rate (jobs/s). */
    double rate = 0.0;
};

// --- statistics -----------------------------------------------------

using qplacer::geomean;
using qplacer::mean;

/** Linear-interpolated percentile, @p p in [0, 100]; 0 when empty. */
double percentile(std::vector<double> values, double p);
/** percentile(values, 50): unlike qplacer::median, 0 when empty. */
double median(const std::vector<double> &values);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Per-layer view of one traced job. */
struct JobTrace
{
    double latencyS = 0.0;
    std::map<std::string, double> stageS; ///< Span seconds per stage.
    std::vector<double> iterMs; ///< Gaps between iteration callbacks.
    int iterations = 0;
    bool converged = false;
    // Legalizer sub-stage seconds, as the program reports them.
    double spiralS = 0.0;
    double flowRefineS = 0.0;
    double tetrisS = 0.0;
    double integrationS = 0.0;
    int cells = 0;
    int movable = 0; ///< Instances legalization could move.
};

/** Adds the pipeline.*, core iteration, legal.* and netlist metrics. */
void reportJobTraces(RunReport &report, const std::vector<JobTrace> &jobs);

// --- checks and quality ---------------------------------------------

/** A device by paper name or parametric spec (e.g. "grid32x32"). */
qplacer::Topology deviceNamed(const std::string &spec);

/**
 * The netlist the flow builds for (@p topo, @p params) before
 * placement: assign + build stages only, serial. Gives the benchmark
 * footprints, frequencies and the sized region without trusting a
 * placed result.
 */
qplacer::Netlist buildUnplaced(const qplacer::Topology &topo,
                               const qplacer::FlowParams &params);

/**
 * The legalizer may grow the sized region by 8% per retry, at most
 * three times, anchored at its lower corner. Footprints must lie in
 * that bound.
 */
qplacer::Rect legalRegionBound(const qplacer::Rect &sized);

/**
 * Independent layout check: every padded qubit footprint of @p placed
 * lies inside @p bound and no two overlap. Returns "" when the layout
 * passes, else the first violation.
 */
std::string checkQubitFootprints(const qplacer::Netlist &placed,
                                 const qplacer::Rect &bound);

/** True when both netlists hold bitwise-identical positions. */
bool samePositions(const qplacer::Netlist &a, const qplacer::Netlist &b);

/** Headline quality of one placed layout. */
struct Quality
{
    double hpwlUm = 0.0;    ///< Exact HPWL of the final layout.
    double phPercent = 0.0; ///< Hotspot proportion P_h.
    double fidelity = 0.0;  ///< Evaluator BV proxy (as the CLI report).
    double areaMm2 = 0.0;   ///< Minimum enclosing rectangle.
};

/** Quality of @p placed, a layout of @p topo under @p params. */
Quality measureQuality(const qplacer::Topology &topo,
                       const qplacer::Netlist &placed,
                       const qplacer::FlowParams &params);

/** Adds the quality metrics over @p layouts (one entry per layout). */
void reportQuality(RunReport &report, const std::vector<Quality> &layouts);

// --- kernel replay ----------------------------------------------------

/**
 * Replay the public core/ kernels on layouts captured at fixed
 * iteration checkpoints of GlobalPlacer::place (truncated maxIters) on
 * @p topo, at @p threads threads, and add the core.*, freq.* and
 * util.pool_* metrics.
 */
void replayKernels(RunReport &report, const qplacer::Topology &topo,
                   const qplacer::FlowParams &params, int threads);

// --- workloads --------------------------------------------------------

/** paper-qplacer and classic-1k: closed loops over a warm session. */
void runClosedLoop(const RunOptions &options, RunReport &report);

/** serve-iterate: open loop against an in-process PlacementServer. */
void runServeIterate(const RunOptions &options, RunReport &report);

} // namespace perfbench

#endif // QPLACER_PERFBENCH_BENCH_HPP
