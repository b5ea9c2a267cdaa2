/**
 * @file
 * Frequency bands and slot quantization (Section IV-A inputs).
 *
 * The available spectrum is narrow (qubits: 4.8-5.2 GHz), so only a
 * handful of mutually-detuned slots exist; devices with more qubits than
 * slots inevitably reuse frequencies ("frequency crowding", Sec. III-B),
 * and those same-slot components are what the placement engine must
 * separate spatially.
 */

#ifndef QPLACER_FREQ_SPECTRUM_HPP
#define QPLACER_FREQ_SPECTRUM_HPP

#include <cmath>
#include <vector>

#include "physics/constants.hpp"

namespace qplacer {

/** A contiguous frequency band [loHz, hiHz]. */
struct FrequencyBand
{
    double loHz = 0.0;
    double hiHz = 0.0;

    FrequencyBand() = default;
    FrequencyBand(double lo, double hi);

    /** Band width in Hz. */
    double span() const { return hiHz - loHz; }

    /** True if @p f lies within the band (inclusive). */
    bool contains(double f) const { return f >= loHz && f <= hiHz; }

    /**
     * Maximum number of slots that fit with pairwise spacing >= @p
     * min_spacing (slots at both band edges included).
     */
    int maxSlots(double min_spacing) const;

    /**
     * @p count slot frequencies spread evenly across the band
     * (single slot sits at band center).
     */
    std::vector<double> slots(int count) const;

    /** The paper's qubit band, 4.8-5.2 GHz. */
    static FrequencyBand qubitBand();

    /** The paper's resonator band, 6.0-7.0 GHz. */
    static FrequencyBand resonatorBand();
};

/**
 * The resonance indicator tau of Eq. (9): true when two frequencies are
 * within the detuning threshold of each other. Strict comparison so that
 * slots spaced exactly at the threshold count as detuned.
 */
inline bool
isResonant(double f1_hz, double f2_hz,
           double threshold_hz = kDetuningThresholdHz)
{
    return std::abs(f1_hz - f2_hz) < threshold_hz;
}

/**
 * The one frequency-collision rule (Eq. 10): two components may
 * collide when they are resonant and are not segments of one resonator
 * (the Kronecker-delta term). @p group_a / @p group_b are resonator ids,
 * -1 for qubits, so two qubits are never excluded. The force, the
 * collision map, the hotspot analyzer and the legalizer's tau probe all
 * decide collisions through this predicate.
 *
 * The resonance test joins with `&`, not `&&`, so the force kernel's
 * candidate loop evaluates it without a branch: whether a spatial
 * neighbour is resonant is data-dependent and mispredicts often.
 */
inline bool
mayCollide(double f_a_hz, int group_a, double f_b_hz, int group_b,
           double threshold_hz = kDetuningThresholdHz)
{
    return isResonant(f_a_hz, f_b_hz, threshold_hz) &
           !(group_a >= 0 && group_a == group_b);
}

} // namespace qplacer

#endif // QPLACER_FREQ_SPECTRUM_HPP
