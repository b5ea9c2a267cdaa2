/**
 * @file
 * Frequency repulsive force F(i, j; x, y) (Eq. 9/10).
 *
 * Instance pairs that may collide (mayCollide() in freq/spectrum.hpp:
 * near-resonant, same-resonator pairs excluded) repel each other with
 * a truncated Coulomb 1/r potential, so minimizing the penalty drives
 * them apart spatially. Only pairs closer than the cutoff radius feel
 * a force, so each evaluation finds its pairs with a uniform cell list
 * over the placement region instead of walking every near-resonant
 * pair.
 */

#ifndef QPLACER_CORE_FREQ_FORCE_HPP
#define QPLACER_CORE_FREQ_FORCE_HPP

#include <cstdint>
#include <vector>

#include "geometry/cell_list.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/**
 * Coulomb-style repulsion between near-resonant instances.
 *
 * Every evaluate() bins the instances into a CellList with cells at
 * least as wide as the largest cutoff radius, so every pair in range
 * sits in the same or an adjacent cell. The collision rule
 * (mayCollide) runs only on those 3x3-neighbourhood candidates,
 * read from a cell-ordered copy of the inputs, which makes an
 * evaluation O(n) for a spread-out layout instead of O(near-resonant
 * pairs).
 */
class FreqForceModel
{
  public:
    /**
     * @param netlist       Netlist (kept by reference; its region lays
     *                      out the cell grid on every evaluate()).
     *                      Frequencies, resonator groups and footprints
     *                      are read once, here.
     * @param threshold_hz  Detuning threshold Delta_c; a pair interacts
     *                      when mayCollide() holds for it.
     * @param cutoff_factor Pairs further apart than
     *                      cutoff_factor * (size_i + size_j) feel no
     *                      force; this truncation keeps the repulsion a
     *                      local separation constraint instead of a
     *                      long-range scatter force.
     *
     * The per-pair strength is scaled by the geometric mean of the two
     * padded footprints so that large components repel proportionally.
     *
     * @param pool Worker pool (null = serial; not owned). Instances are
     *             chunked by index; each chunk writes only its own
     *             instances' gradients, adding their pair terms in the
     *             serial order, so every thread count reproduces the
     *             serial bits.
     */
    FreqForceModel(const Netlist &netlist, double threshold_hz,
                   double cutoff_factor = 0.75,
                   ThreadPool *pool = nullptr);

    /**
     * Truncated Coulomb potential
     *   U = sum_pairs s_ij * (1/dist - 1/R_ij)  for dist < R_ij
     * and its gradient. Distances are clamped below at a fraction of
     * the instance size to keep the force finite when instances
     * coincide. Each instance's pairs are visited in ascending partner
     * index. Panics on a non-finite position.
     */
    double evaluate(const std::vector<Vec2> &positions,
                    std::vector<Vec2> &gradient) const;

  private:
    /** One instance's force inputs, stored in cell order. */
    struct Binned
    {
        Vec2 pos;
        double charge;
        double freq;
        std::int32_t index;
        std::int32_t group;
    };

    const Netlist &netlist_;
    std::vector<double> freq_;   ///< Per-instance frequency (Hz).
    std::vector<int> group_;     ///< Resonator id (-1 for qubits).
    std::vector<double> charge_; ///< Per-instance repulsion scale.
    double thresholdHz_;
    double cutoffFactor_;
    double maxRadius_; ///< Largest cutoff radius over all pairs.
    ThreadPool *pool_;
    /** One chunk's pair lists of an evaluate(). */
    struct ChunkScratch
    {
        std::vector<std::int32_t> candidates; ///< One instance's partners.
        /**
         * Partners j > i of each instance i of the chunk [begin, end),
         * ascending: up[upStart[i - begin] .. upStart[i - begin + 1]).
         */
        std::vector<std::int32_t> upStart;
        std::vector<std::int32_t> up;
        std::vector<double> potential; ///< Pair potentials, in pair order.
    };
    mutable std::vector<ChunkScratch> chunkScratch_;
    mutable CellList cells_;             ///< Instances binned by position.
    mutable std::vector<Binned> binned_; ///< Inputs in cells_.order().
};

} // namespace qplacer

#endif // QPLACER_CORE_FREQ_FORCE_HPP
