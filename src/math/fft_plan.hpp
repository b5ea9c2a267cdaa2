/**
 * @file
 * Radix-2 complex FFT with a precomputed execution plan (FFTW-style).
 *
 * Implemented from scratch (no external FFT dependency); it backs the
 * DCT/DST transforms of the spectral Poisson solver in the density
 * force (math/dct_plan, core/poisson). An FftPlan does the per-length
 * work once, at construction: it stores the swap pairs of the
 * bit-reversal permutation and one twiddle table per butterfly stage,
 * generated with the iterated-product recurrence w *= wlen. Executing
 * a plan is bitwise-identical to the textbook plan-free kernel that
 * re-derives every twiddle per call; that kernel lives with the tests
 * as their oracle (tests/oracles/spectral), and the plan-equivalence
 * suite (ctest -L plan) holds the two to memcmp equality.
 *
 * Plans are immutable after construction and safe to share across
 * threads; execution works in place on caller-owned buffers.
 */

#ifndef QPLACER_MATH_FFT_PLAN_HPP
#define QPLACER_MATH_FFT_PLAN_HPP

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qplacer {

/** Sample type of every FFT/DCT workspace. */
using Complex = std::complex<double>;

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
    /** Build tables for length @p n (must be a power of two). */
    explicit FftPlan(std::size_t n);

    /** Transform length the plan was built for. */
    std::size_t length() const { return n_; }

    /**
     * In-place forward transform of data[0..length()) (no
     * normalization): X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
     */
    void forward(Complex *data) const { execute(data, false); }

    /** In-place inverse transform (1/N-normalized), ditto. */
    void inverse(Complex *data) const { execute(data, true); }

  private:
    void execute(Complex *data, bool invert) const;

    std::size_t n_;
    /** Bit-reversal swap pairs (i < j only, in ascending i order). */
    std::vector<std::uint32_t> swapLo_;
    std::vector<std::uint32_t> swapHi_;
    /**
     * Per-stage twiddles, stages len = 2, 4, ..., n concatenated
     * (len/2 entries each, n-1 total); each restarts at w = (1, 0) and
     * advances with w *= wlen, as the plan-free kernel does per block.
     */
    std::vector<Complex> fwdTwiddle_;
    std::vector<Complex> invTwiddle_; ///< Same for the inverse sign.
};

} // namespace qplacer

#endif // QPLACER_MATH_FFT_PLAN_HPP
