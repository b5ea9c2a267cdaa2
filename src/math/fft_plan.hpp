/**
 * @file
 * Lane-batched radix-2 complex FFT with a precomputed execution plan
 * (FFTW-style).
 *
 * Implemented from scratch (no external FFT dependency); it backs the
 * DCT/DST transforms of the spectral Poisson solver in the density
 * force (math/dct_plan, core/poisson). An FftPlan does the per-length
 * work once, at construction: it stores the swap pairs of the
 * bit-reversal permutation and one twiddle table per butterfly stage,
 * generated with the iterated-product recurrence w *= wlen.
 *
 * Execution transforms kLanes independent sequences at once, held in
 * split format: element e of lane l is (re[e*kLanes + l],
 * im[e*kLanes + l]). Every lane runs exactly the butterflies of the
 * textbook single-sequence kernel, in the same order and with the same
 * operands; the lanes only share the twiddle loads, and no operation
 * mixes two lanes. So each lane is bitwise-identical to the plan-free
 * kernel that re-derives every twiddle per call, whether the compiler
 * vectorizes across lanes or not (the x86-64 baseline target has no
 * FMA, so vectorizing cannot change rounding). That kernel lives with
 * the tests as their oracle (tests/oracles/spectral), and the
 * plan-equivalence suite (ctest -L plan) holds the two to memcmp
 * equality.
 *
 * Plans are immutable after construction and safe to share across
 * threads; execution works in place on caller-owned buffers.
 */

#ifndef QPLACER_MATH_FFT_PLAN_HPP
#define QPLACER_MATH_FFT_PLAN_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qplacer {

/** True if @p n is a power of two (and > 0). */
constexpr bool
isPowerOfTwo(std::size_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

/** Reusable twiddle/bit-reversal tables for one transform length. */
class FftPlan
{
  public:
    /** Sequences one execution transforms side by side. */
    static constexpr std::size_t kLanes = 8;

    /** Build tables for length @p n (must be a power of two). */
    explicit FftPlan(std::size_t n);

    /** Transform length the plan was built for. */
    std::size_t length() const { return n_; }

    /**
     * In-place forward transform (no normalization) of the kLanes
     * split-format sequences in re/im[0 .. length()*kLanes):
     * X[k] = sum_n x[n] exp(-2*pi*i*k*n/N) per lane.
     */
    void forward(double *re, double *im) const { execute(re, im, false); }

    /** In-place inverse transform (1/N-normalized), ditto. */
    void inverse(double *re, double *im) const { execute(re, im, true); }

  private:
    void execute(double *re, double *im, bool invert) const;

    std::size_t n_;
    /** Bit-reversal swap pairs (i < j only, in ascending i order). */
    std::vector<std::uint32_t> swapLo_;
    std::vector<std::uint32_t> swapHi_;
    /**
     * Per-stage twiddles as interleaved (re, im) pairs, stages len = 2,
     * 4, ..., n concatenated (len/2 pairs each, n-1 total); each
     * restarts at w = (1, 0) and advances with w *= wlen, as the
     * plan-free kernel does per block.
     */
    std::vector<double> fwdTwiddle_;
    std::vector<double> invTwiddle_; ///< Same for the inverse sign.
};

} // namespace qplacer

#endif // QPLACER_MATH_FFT_PLAN_HPP
