/**
 * @file
 * Frequency hotspot analysis (Eq. 18): finds spatial-violation pairs
 * (near-resonant instances whose padded footprints are adjacent) and
 * aggregates them into the hotspot proportion P_h and the impacted
 * qubit count of Fig. 12.
 */

#ifndef QPLACER_EVAL_HOTSPOT_HPP
#define QPLACER_EVAL_HOTSPOT_HPP

#include <vector>

#include "netlist/netlist.hpp"
#include "physics/constants.hpp"

namespace qplacer {

/** One spatial violation: a near-resonant adjacent pair. */
struct HotspotPair
{
    int a = -1;          ///< Instance id.
    int b = -1;          ///< Instance id.
    double gapUm = 0.0;  ///< Gap between padded footprints.
    double distUm = 0.0; ///< Centroid distance.
    double overlapLenUm = 0.0; ///< Shared-boundary length term of Eq. 18.
};

/** Aggregated hotspot report for one layout. */
struct HotspotReport
{
    std::vector<HotspotPair> pairs;

    /** Frequency hotspot proportion P_h (as a percentage). */
    double phPercent = 0.0;

    /** Device qubits impacted directly or through a violating coupler. */
    std::vector<int> impactedQubits;
};

/** Hotspot analyzer parameters. */
struct HotspotParams
{
    /** Padded footprints closer than this count as adjacent (um). */
    double adjacencyTolUm = 50.0;

    /** Detuning threshold for the resonance indicator tau. */
    double detuningThresholdHz = kDetuningThresholdHz;
};

/**
 * The one spatial-violation predicate, shared by the evaluator and the
 * annealer: @p a and @p b are not segments of one resonator, are
 * near-resonant, and their padded footprints are at most
 * adjacencyTolUm apart. On true, @p gapUm holds that gap.
 */
bool isHotspotPair(const Instance &a, const Instance &b,
                   const HotspotParams &params, double &gapUm);

/**
 * Scan a placed netlist for hotspots: every pair for which
 * isHotspotPair() holds, exactly as an all-pairs scan would report it.
 * Contract: report.pairs is sorted by ascending (a, b), a < b; the
 * fidelity model depends on this order.
 */
HotspotReport analyzeHotspots(const Netlist &netlist,
                              HotspotParams params = {});

} // namespace qplacer

#endif // QPLACER_EVAL_HOTSPOT_HPP
