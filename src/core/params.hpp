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

    /** Per-iteration multiplier applied to the frequency penalty. */
    double freqLambdaGrowth = 1.05;

    /**
     * Enable the frequency repulsive force (Eq. 9/10). Disabled for the
     * Classic baseline.
     */
    bool freqForce = true;

    /**
     * Initial frequency-penalty weight relative to the wirelength
     * gradient (analogous to the density lambda initialization).
     */
    double freqWeight = 1.0;

    /**
     * Frequency-force cutoff: pairs beyond
     * cutoff * (size_i + size_j) feel nothing. 0.8 puts the cutoff
     * comfortably past the hotspot adjacency threshold, leaving margin
     * for legalization displacement.
     */
    double freqCutoffFactor = 0.8;

    /**
     * Cap on the frequency penalty: lambda_f stops growing past
     * freqLambdaMaxFactor times its initial value. Keeps the engine in
     * a stable compromise when full separation is infeasible (crowded
     * spectra), instead of oscillating.
     */
    double freqLambdaMaxFactor = 300.0;

    /**
     * Multi-die cut-crossing penalty weight (the "multidie.cutWeight"
     * knob): initial weight of the cut penalty relative to the
     * wirelength gradient, like freqWeight. 0 disables the term; it is
     * also inert unless the netlist carries an active die spec. Grows
     * on the frequency-penalty schedule (freqLambdaGrowth, capped at
     * freqLambdaMaxFactor x initial).
     */
    double cutWeight = 0.0;

    /**
     * Stop early when the density overflow has not improved for this
     * many iterations (the plateau means the penalty equilibrium is
     * reached).
     */
    int patience = 250;

    /** Detuning threshold Delta_c of the frequency force (isResonant). */
    double detuningThresholdHz = kDetuningThresholdHz;

    /**
     * Worker threads for the density/DCT hot path (0 = hardware
     * concurrency, capped; 1 = serial). Results are bitwise-
     * deterministic for a fixed thread count and match across thread
     * counts within floating-point tolerance.
     */
    int threads = 0;

    /** RNG seed for the initial-placement jitter. */
    std::uint64_t seed = 1;

    /** Initial-placement jitter as a fraction of region size. */
    double jitterFrac = 0.003;
};

} // namespace qplacer

#endif // QPLACER_CORE_PARAMS_HPP
