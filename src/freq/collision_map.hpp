/**
 * @file
 * Frequency collision map (Section IV-C1).
 *
 * Each instance gets the list of instances it may crosstalk with: the
 * partners for which mayCollide() (freq/spectrum.hpp) holds, i.e.
 * near-resonant and not a segment of the same resonator. This is the
 * reference enumeration of near-resonant pairs, used by tests (the
 * frequency-force oracle) and for the benchmark's pair counts. The
 * placement engine does not build it: its O(pairs) lists grow
 * quadratically with device size, so the frequency force finds its
 * pairs through a cell list instead (core/freq_force).
 */

#ifndef QPLACER_FREQ_COLLISION_MAP_HPP
#define QPLACER_FREQ_COLLISION_MAP_HPP

#include <cstdint>
#include <vector>

#include "physics/constants.hpp"

namespace qplacer {

/** Per-instance lists of potentially-resonant partner instances. */
class CollisionMap
{
  public:
    /**
     * Build the map.
     * @param freqs_hz Frequency per instance.
     * @param group    Resonator id per instance (-1 for qubits);
     *                 same-group pairs are excluded by mayCollide().
     * @param threshold_hz Detuning threshold Delta_c.
     */
    CollisionMap(const std::vector<double> &freqs_hz,
                 const std::vector<int> &group,
                 double threshold_hz = kDetuningThresholdHz);

    /** Number of instances. */
    std::size_t size() const { return lists_.size(); }

    /** Potentially-resonant partners of instance @p i. */
    const std::vector<std::int32_t> &partners(std::size_t i) const;

    /** Total number of unordered collision pairs. */
    std::size_t numPairs() const { return numPairs_; }

    /** True if i and j appear in each other's lists. */
    bool collides(std::size_t i, std::size_t j) const;

  private:
    std::vector<std::vector<std::int32_t>> lists_;
    std::size_t numPairs_ = 0;
};

} // namespace qplacer

#endif // QPLACER_FREQ_COLLISION_MAP_HPP
