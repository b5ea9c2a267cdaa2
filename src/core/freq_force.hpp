/**
 * @file
 * Frequency repulsive force F(i, j; x, y) (Eq. 9/10).
 *
 * Near-resonant instance pairs (same-resonator pairs excluded) repel
 * each other with a truncated Coulomb 1/r potential, so minimizing the
 * penalty drives them apart spatially. Only pairs closer than the
 * cutoff radius feel a force, so each evaluation finds its pairs with
 * a uniform cell list over the placement region instead of walking
 * every near-resonant pair.
 */

#ifndef QPLACER_CORE_FREQ_FORCE_HPP
#define QPLACER_CORE_FREQ_FORCE_HPP

#include <cstdint>
#include <vector>

#include "geometry/vec2.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/**
 * Coulomb-style repulsion between near-resonant instances.
 *
 * Every evaluate() bins the instances into a uniform grid whose cells
 * are at least as wide as the largest cutoff radius, so every pair in
 * range sits in the same or an adjacent cell. The resonance and
 * same-resonator tests run only on those 3x3-neighbourhood candidates,
 * which makes an evaluation O(n) for a spread-out layout instead of
 * O(near-resonant pairs).
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
     *                      when isResonant() holds for its frequencies.
     * @param cutoff_factor Pairs further apart than
     *                      cutoff_factor * (size_i + size_j) feel no
     *                      force; this truncation keeps the repulsion a
     *                      local separation constraint instead of a
     *                      long-range scatter force.
     *
     * The per-pair strength is scaled by the geometric mean of the two
     * padded footprints so that large components repel proportionally.
     *
     * @param pool Worker pool (null = serial; not owned). Pairs are
     *             chunked by their lower instance index and per-chunk
     *             gradients reduced in chunk order, deterministic for a
     *             fixed thread count.
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

    /** Cell-grid shape of one evaluation. */
    struct CellGrid
    {
        int cols = 1;
        int rows = 1;
    };

    /**
     * Counting-sort the instances into cells (cellOf_, cellStart_,
     * binned_; ascending index within a cell). Positions outside the
     * region are clamped into the border cells. Panics on a non-finite
     * position.
     */
    CellGrid binInstances(const std::vector<Vec2> &positions) const;

    const Netlist &netlist_;
    std::vector<double> freq_;   ///< Per-instance frequency (Hz).
    std::vector<int> group_;     ///< Resonator id (-1 for qubits).
    std::vector<double> charge_; ///< Per-instance repulsion scale.
    double thresholdHz_;
    double cutoffFactor_;
    double maxRadius_; ///< Largest cutoff radius over all pairs.
    ThreadPool *pool_;
    /** Per-chunk gradient scatter buffers (chunks x instances). */
    mutable std::vector<Vec2> gradScratch_;
    /** Cell list: cell of each instance, cell offsets, binned inputs. */
    mutable std::vector<std::int32_t> cellOf_;
    mutable std::vector<std::int32_t> cellStart_;
    mutable std::vector<Binned> binned_;
};

} // namespace qplacer

#endif // QPLACER_CORE_FREQ_FORCE_HPP
