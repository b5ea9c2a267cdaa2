/**
 * @file
 * Tunable parameters of the global placement engine.
 */

#ifndef QPLACER_CORE_PARAMS_HPP
#define QPLACER_CORE_PARAMS_HPP

#include <cstdint>

#include "physics/constants.hpp"

namespace qplacer {

/** Global placement engine knobs (defaults follow Section V-C). */
struct PlacerParams
{
    /** Region fill target used when sizing the substrate. */
    double targetUtil = 0.72;

    /**
     * Target bin density D-hat relative to a full bin; the density
     * penalty pushes every bin at or below this.
     */
    double targetDensity = 0.9;

    /** Bin grid resolution (0 = pick a power of two automatically). */
    int bins = 0;

    /** Iteration budget for the Nesterov loop. */
    int maxIters = 900;

    /** Minimum iterations before convergence may stop the loop. */
    int minIters = 60;

    /** Stop when density overflow drops below this fraction. */
    double stopOverflow = 0.07;

    /** Wirelength smoothing gamma as a fraction of the region size. */
    double gammaFrac = 0.04;

    /** Per-iteration multiplier applied to the density penalty. */
    double lambdaGrowth = 1.05;

    /**
     * Enable the frequency repulsive force (Eq. 9/10). Disabled for the
     * Classic baseline.
     */
    bool freqForce = true;

    /**
     * Frequency-penalty weight w. Every iteration lambda_f is set to
     * w * sum |grad WL_i|_1 / sum |grad F_i|_1, both sums over the
     * instances the force touches, so w is the force's share of the
     * wirelength pull where it acts.
     */
    double freqWeight = 0.3;

    /**
     * Frequency-force cutoff: pairs beyond
     * cutoff * (size_i + size_j) feel nothing. 0.8 puts the cutoff
     * comfortably past the hotspot adjacency threshold, leaving margin
     * for legalization displacement.
     */
    double freqCutoffFactor = 0.8;

    /**
     * Stop early when the density overflow has not improved for this
     * many iterations (the plateau means the penalty equilibrium is
     * reached).
     */
    int patience = 250;

    /** Detuning threshold Delta_c of the frequency force (isResonant). */
    double detuningThresholdHz = kDetuningThresholdHz;

    /**
     * Worker threads for the placement hot path (0 = hardware
     * concurrency, capped; 1 = serial). Every kernel reproduces its
     * serial result bit for bit, so a layout depends only on
     * (topology, params, seed): it is bitwise the same at every thread
     * count.
     */
    int threads = 0;

    /** RNG seed for the initial-placement jitter. */
    std::uint64_t seed = 1;

    /** Initial-placement jitter as a fraction of region size. */
    double jitterFrac = 0.003;
};

} // namespace qplacer

#endif // QPLACER_CORE_PARAMS_HPP
