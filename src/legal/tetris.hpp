/**
 * @file
 * Tetris-style legalization of resonator segments ([17] in the paper):
 * segments are processed left to right and dropped into the nearest
 * free slot of the occupancy grid, minimizing displacement while
 * preserving the global placement's ordering.
 */

#ifndef QPLACER_LEGAL_TETRIS_HPP
#define QPLACER_LEGAL_TETRIS_HPP

#include <vector>

#include "legal/integration.hpp"
#include "legal/occupancy.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

/**
 * Legalize the segments of the resonators in @p resonators onto
 * @p grid (which already contains the placed qubits). Updates instance
 * positions and occupies the grid.
 *
 * When @p resonance_check is set (Qplacer mode), candidate slots that
 * fail the tau probe under @p rule (tauClean: an instance that may
 * collide within rule.adjacencyTolUm) are skipped within a bounded
 * search radius (falling back to the plain nearest slot when no clean
 * one exists), so the tau constraint survives legalization.
 *
 * The Legalizer passes every resonator for full legalization and the
 * movable chains for a scoped one; segments of resonators not listed
 * must already occupy @p grid and are treated as fixed obstacles. The
 * scan order among a subset matches the full scan.
 *
 * @param displacement_um Out: total displacement over the listed
 *        segments.
 * @return false if some segment found no free slot (caller should
 *         retry with a larger region).
 */
bool tetrisLegalizeSegments(Netlist &netlist, OccupancyGrid &grid,
                            const HotspotParams &rule,
                            bool resonance_check, double &displacement_um,
                            const std::vector<int> &resonators);

} // namespace qplacer

#endif // QPLACER_LEGAL_TETRIS_HPP
