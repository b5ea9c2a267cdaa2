/**
 * @file
 * Integration-aware legalization (Algorithm 1, Section IV-C2).
 *
 * After Tetris legalization the segments of a resonator may be
 * scattered. For each resonator, `rilc` checks that its segments form a
 * single adjacency-connected cluster; failing resonators grow their
 * largest cluster by relocating scattered segments into free slots on
 * the cluster frontier or by swapping them with frontier segments of
 * other resonators, each candidate validated by the resonance checker
 * tau (skipped in the frequency-blind Classic mode).
 */

#ifndef QPLACER_LEGAL_INTEGRATION_HPP
#define QPLACER_LEGAL_INTEGRATION_HPP

#include <vector>

#include "eval/hotspot.hpp"
#include "legal/occupancy.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

/**
 * The legalizer's tau probe: true when no instance that may collide
 * with @p inst (mayCollide() under @p rule) owns an occupancy cell
 * within rule.adjacencyTolUm of inst's padded footprint centred at
 * @p center. Cell-granular, so it guards every pair the hotspot
 * analyzer would flag and possibly a few more. @p inst itself and
 * @p ignore_a / @p ignore_b (-1: none) are skipped. @p scratch is
 * ownersIn's buffer: the probe runs once per candidate slot, so it
 * must not allocate.
 */
bool tauClean(const Netlist &netlist, const OccupancyGrid &grid,
              const HotspotParams &rule, const Instance &inst, Vec2 center,
              std::vector<std::int32_t> &scratch, int ignore_a = -1,
              int ignore_b = -1);

/** Runs Algorithm 1 on a legalized netlist. */
class IntegrationLegalizer
{
  public:
    /**
     * @param rule           The collision rule the tau probe enforces.
     * @param resonanceCheck Validate moves and swaps with the tau probe
     *                       (off in the frequency-blind Classic mode).
     */
    explicit IntegrationLegalizer(HotspotParams rule = {},
                                  bool resonanceCheck = true);

    /** Outcome summary. */
    struct Result
    {
        int initiallyBroken = 0;  ///< Resonators failing rilc on entry.
        int repaired = 0;         ///< Fixed by moves/swaps.
        int unintegrated = 0;     ///< Still failing at exit.
        int moves = 0;
        int swaps = 0;
    };

    /**
     * Repair the segment clustering of the resonator ids in
     * @p targets in place. @p grid must reflect the current positions
     * (qubits + segments occupied). Swaps may still relocate same-size
     * foreign segments they trade places with.
     */
    Result run(Netlist &netlist, OccupancyGrid &grid,
               const std::vector<int> &targets) const;

    /**
     * rilc (Section IV-C2): every segment of the resonator must be in
     * close proximity to at least one other segment of the same
     * resonator -- i.e. no singleton clusters. Split blocks are fine;
     * the meander is re-routed through them (Fig. 8-e).
     */
    bool integrationLegal(const Netlist &netlist, int resonator_id) const;

    /** Segment clusters of a resonator (lists of instance ids). */
    std::vector<std::vector<int>>
    clusters(const Netlist &netlist, int resonator_id) const;

  private:
    /**
     * Rip up and contiguously re-place the full segment chain of
     * resonator @p r (the final repair of Algorithm 1 failures).
     * @return true if the resonator is integration-legal afterwards.
     */
    bool replaceChain(Netlist &netlist, OccupancyGrid &grid, int r) const;

    HotspotParams rule_;
    bool resonanceCheck_;

    /**
     * ownersIn scratch for tauClean: the tau probe runs once per
     * candidate slot of every repair move, so it must not allocate.
     * The legalizer is single-threaded; mutable is safe here.
     */
    mutable std::vector<std::int32_t> ownerScratch_;
};

} // namespace qplacer

#endif // QPLACER_LEGAL_INTEGRATION_HPP
