/**
 * @file
 * Full legalization pipeline (Fig. 7d):
 *   1. qubits: greedy spiral search, then min-cost-flow refinement;
 *   2. resonator segments: Tetris-style scan;
 *   3. integration-aware repair (Algorithm 1).
 * One pass serves both entry points: full legalization is the scoped
 * pass with every instance movable.
 */

#ifndef QPLACER_LEGAL_LEGALIZER_HPP
#define QPLACER_LEGAL_LEGALIZER_HPP

#include "legal/integration.hpp"
#include "legal/occupancy.hpp"
#include "netlist/netlist.hpp"
#include "util/cancel.hpp"

namespace qplacer {

/** Legalizer configuration. */
struct LegalizerParams
{
    /** Occupancy cell size; must divide all padded footprints. */
    double cellUm = 100.0;

    /** Run the min-cost-flow refinement after spiral legalization. */
    bool flowRefine = true;

    /**
     * Qubit count above which the flow refinement switches from the
     * exact dense assignment (every qubit x every site) to sparse
     * candidate edges (own site + k nearest via a spatial hash). The
     * default keeps every paper device -- and the golden regression
     * instances -- on the exact path; 1000+ qubit parametric devices
     * go sparse. Validated in FlowParams::normalized().
     */
    int flowSparseThreshold = 512;

    /** Candidate sites per qubit on the sparse flow path. */
    int flowSparseNeighbors = 16;

    /** Run the integration-aware repair pass. */
    bool integration = true;

    /** Parameters forwarded to the integration legalizer. */
    IntegrationParams integrationParams;
};

/** Legalization outcome. */
struct LegalizeResult
{
    double qubitDisplacementUm = 0.0;
    double segmentDisplacementUm = 0.0;
    IntegrationLegalizer::Result integration;
    bool legal = false;     ///< No padded-footprint overlaps at exit.
    bool cancelled = false; ///< Stopped early by a CancelToken.

    // Sub-stage wall clocks of the final legalization attempt (the
    // one whose layout survived), surfaced through FlowResult and the
    // CLI's --report json for profiling 1000+ qubit instances.
    double spiralSeconds = 0.0;      ///< Qubit spiral search.
    double flowRefineSeconds = 0.0;  ///< Min-cost-flow refinement.
    double tetrisSeconds = 0.0;      ///< Segment Tetris scan.
    double integrationSeconds = 0.0; ///< Integration-aware repair.
};

/** End-to-end legalizer. */
class Legalizer
{
  public:
    explicit Legalizer(LegalizerParams params = {});

    /**
     * Legalize @p netlist in place: legalizeScoped() with every
     * instance movable. If the region is too fragmented to fit
     * everything, it is grown by 8% steps (up to 3 retries) before
     * giving up with fatal(). @p cancel (optional) is polled at pass
     * boundaries; on cancellation the partially legalized layout is
     * left in place and the result carries cancelled = true.
     */
    LegalizeResult legalize(Netlist &netlist,
                            const CancelToken *cancel = nullptr) const;

    /**
     * Region-scoped legalization for incremental re-place: only the
     * instances in @p movable (plus closure) may move; every other
     * instance is treated as a fixed obstacle at its current -- already
     * legal -- position. The closure rules keep the invariants of the
     * full pass: any resonator with a movable segment becomes fully
     * movable (chains stay contiguous), and a fixed instance whose
     * footprint conflicts (stale prior site overlapping another fixed
     * instance) is demoted to movable rather than corrupting the grid.
     * Retries with the same 8% region growth, restoring only the
     * movable instances between attempts.
     */
    LegalizeResult legalizeScoped(Netlist &netlist,
                                  const std::vector<int> &movable,
                                  const CancelToken *cancel = nullptr) const;

    /**
     * Verify that every padded footprint lies in the region (grown by
     * @p tol_um) and that no two overlap by more than @p tol_um on both
     * axes. Every pair is checked, corner overlaps included.
     */
    static bool isLegal(const Netlist &netlist, double tol_um = 1.0);

  private:
    /**
     * One legalization pass over @p is_movable (per-instance flags,
     * a copy: conflicting fixed instances are demoted to movable);
     * false if the region ran out of room. Full legalization is this
     * pass with every flag set: there are no fixed obstacles, and
     * every resonator is Tetris-scanned and repaired.
     */
    bool attempt(Netlist &netlist, std::vector<char> is_movable,
                 LegalizeResult &result, const CancelToken *cancel) const;

    LegalizerParams params_;
};

} // namespace qplacer

#endif // QPLACER_LEGAL_LEGALIZER_HPP
