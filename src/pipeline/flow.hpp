/**
 * @file
 * End-to-end placement flow (Fig. 7): frequency assignment ->
 * preprocessing (padding + partitioning) -> frequency-aware global
 * placement -> integration-aware legalization -> metrics.
 *
 * One-shot entry point:
 *
 *   Topology topo = makeTopology("Falcon");
 *   FlowResult r = QplacerFlow().run(topo);
 *   writeLayoutSvg(r.netlist, "falcon.svg");
 *
 * QplacerFlow::run() is a one-shot PlacementSession (session.hpp) run
 * that throws instead of returning errors. Services and batch
 * workloads should keep a PlacementSession, which reuses its worker
 * pool across runs, streams FlowObserver progress events, supports
 * cooperative cancellation, and executes independent jobs
 * concurrently -- see the migration note on runMode() below.
 */

#ifndef QPLACER_PIPELINE_FLOW_HPP
#define QPLACER_PIPELINE_FLOW_HPP

#include "baseline/human_placer.hpp"
#include "core/placer.hpp"
#include "eval/area.hpp"
#include "eval/crosscut.hpp"
#include "eval/hotspot.hpp"
#include "freq/assigner.hpp"
#include "legal/anneal.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "pipeline/stage.hpp"
#include "topology/topology.hpp"

namespace qplacer {

/** Which placement scheme to run (Section V-B). */
enum class PlacerMode
{
    Qplacer, ///< Frequency-aware engine + tau-checked legalization.
    Classic, ///< Same engine, frequency force and tau checks disabled.
    Human,   ///< Manual grid-style reference layout.
};

/**
 * Knobs of the incremental re-place path (incremental.hpp): warm-start
 * the global placer from a prior layout and re-legalize only the
 * dirtied region. Ignored by cold runs.
 */
struct IncrementalPlaceParams
{
    /**
     * Nesterov iteration budget for the warm re-solve. A warm start
     * sits near a legalized optimum already, so this is a fraction of
     * PlacerParams::maxIters.
     */
    int maxIters = 120;

    /**
     * Clean instances whose warm re-solve drift stays within this
     * distance (um) snap back to their prior legal sites and are held
     * fixed during scoped legalization; larger drifts make the
     * instance movable.
     */
    double snapToleranceUm = 50.0;
};

/**
 * Knobs of the multi-start portfolio (PlacementSession::runPortfolio).
 * With seeds <= 1 the portfolio degrades to the exact single-seed flow
 * (runPortfolio forwards to run(), bitwise-identical); ignored by the
 * plain run()/runBatch() paths.
 */
struct PortfolioParams
{
    /**
     * Candidate count: seeds placer.seed .. placer.seed + seeds - 1
     * (wrapping mod 2^64) run concurrently, each single-threaded.
     */
    int seeds = 1;

    /**
     * First pruning checkpoint, in global-placement iterations.
     * Candidates run truncated probe placements to the checkpoint, the
     * bottom (1 - keepFrac) is dropped, and the checkpoint doubles
     * until one survivor remains or the budget is reached. The base
     * seed is exempt from pruning, so the portfolio can never return a
     * worse layout than the single-seed flow.
     */
    int pruneAt = 60;

    /** Fraction of candidates kept at each checkpoint, in (0, 1]. */
    double keepFrac = 0.5;
};

/** Full-flow configuration. */
struct FlowParams
{
    PlacerMode mode = PlacerMode::Qplacer;
    AssignerParams assigner;
    PartitionParams partition;
    PlacerParams placer;
    LegalizerParams legalizer;
    HotspotParams hotspot;
    IncrementalPlaceParams incremental;
    DetailedPlaceParams detailed; ///< Post-legalization annealing stage.
    PortfolioParams portfolio;    ///< Multi-start knobs (runPortfolio).
    double targetUtil = 0.72;

    /**
     * Validated, self-consistent copy of these parameters -- the only
     * form the staged pipeline accepts. Normalization:
     *
     *  - assigner.detuningThresholdHz is the single source of truth
     *    for the detuning threshold; the copies in the placer and in
     *    `hotspot` are overwritten with it. `hotspot` is the one
     *    collision rule: the metric, the annealer and the legalizer's
     *    tau probe all read its threshold and adjacencyTolUm;
     *  - targetUtil is mirrored into placer.targetUtil;
     *  - Classic mode disables the frequency force and the resonance
     *    check (Section V-B);
     *  - placer.minIters (a convergence floor) is clamped to the
     *    iteration budget, so lowering only maxIters stays valid.
     *
     * Out-of-range values (non-positive segment size, targetUtil
     * outside (0, 1], negative minIters, ...) are *errors*, caught
     * here instead of surfacing as UB downstream: with @p error null
     * the first violation fatal()s; otherwise *error receives the
     * message (empty on success) and the partially normalized copy is
     * returned for inspection.
     */
    FlowParams normalized(std::string *error = nullptr) const;
};

/** Diagnostics of an incremental re-place run (zero on cold runs). */
struct IncrementalStats
{
    bool incremental = false; ///< This run warm-started from a prior.
    bool reusedPrior = false; ///< Empty delta: prior layout returned as-is.
    int mappedInstances = 0;  ///< Instances warm-started from the prior.
    int freshInstances = 0;   ///< Instances with no prior position.
    int dirtyInstances = 0;   ///< Delta closure re-placed from scratch.
    int movableInstances = 0; ///< Instances legalization could move.
};

/** One candidate of a portfolio run (PortfolioStats::candidates). */
struct PortfolioCandidate
{
    std::uint64_t seed = 0;  ///< Resolved placer seed.
    int prunedAtIters = 0;   ///< Probe budget when dropped (0 = survived).
    double probeOverflow = 1.0; ///< Last probe overflow snapshot.
    double probeHpwl = 0.0;     ///< Last probe HPWL snapshot.
    bool ranFull = false;       ///< Survived pruning, ran the full flow.
    double finalHpwl = 0.0;     ///< Final layout HPWL (ranFull only).
    bool winner = false;        ///< This candidate's layout was returned.
};

/** Diagnostics of a portfolio run (zero/empty for single-seed runs). */
struct PortfolioStats
{
    bool portfolio = false; ///< This result came from runPortfolio.
    int seeds = 0;          ///< Candidates launched.
    int rungs = 0;          ///< Pruning checkpoints evaluated.
    std::uint64_t winnerSeed = 0;
    std::vector<PortfolioCandidate> candidates; ///< Indexed by offset.
};

/** Everything a flow run produces. */
struct FlowResult
{
    Netlist netlist; ///< Placed + legalized layout.
    FrequencyAssignment freqs;
    AssignStats assignStats; ///< assign sub-stage wall clocks.
    BuildStats buildStats;   ///< build sub-stage wall clocks (not Human).
    PlaceResult place;    ///< Global-placement stats (not for Human).
    LegalizeResult legal; ///< Legalization stats (not for Human).
    AreaMetrics area;
    HotspotReport hotspots;
    CrossCutMetrics multidie; ///< Cross-cut metrics (inactive on 1 die).
    FlowStatus status;    ///< Structured outcome (Ok / error / cancelled).
    IncrementalStats incremental; ///< Warm-start diagnostics, if any.
    DetailedStats detailed;       ///< Detailed-placement stats, if run.
    PortfolioStats portfolioStats; ///< Portfolio diagnostics, if any.
    std::vector<StageTiming> stageTimings; ///< Per-stage wall clocks.
    double seconds = 0.0; ///< End-to-end wall-clock.
};

/** The placement flow driver. */
class QplacerFlow
{
  public:
    explicit QplacerFlow(FlowParams params = {});

    /**
     * Run the configured flow on @p topo through the staged pipeline.
     * Kept exception-compatible with the pre-session API: invalid
     * parameters and stage failures throw (std::runtime_error via
     * fatal()). PlacementSession::run returns them as FlowResult::status
     * instead.
     */
    FlowResult run(const Topology &topo) const;

    /**
     * Convenience: run with a given mode, default everything else.
     *
     * Migration note: for anything beyond a one-shot run -- many
     * placements, progress observation, cancellation, or non-throwing
     * error handling -- use PlacementSession:
     *
     *   PlacementSession session;                 // pool reused across runs
     *   FlowResult r = session.run(topo, params); // errors in r.status
     *   auto results = session.runBatch(jobs);    // concurrent jobs
     */
    static FlowResult runMode(const Topology &topo, PlacerMode mode,
                              double segment_um = 300.0,
                              std::uint64_t seed = 1);

    const FlowParams &params() const { return params_; }

  private:
    FlowParams params_;
};

/** Human-readable mode name. */
const char *placerModeName(PlacerMode mode);

} // namespace qplacer

#endif // QPLACER_PIPELINE_FLOW_HPP
