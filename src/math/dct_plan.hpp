/**
 * @file
 * 1-D cosine/sine transforms on the radix-2 FFT (Makhoul's method),
 * executed through a precomputed plan (FFTW-style) on batches of
 * lines.
 *
 * These are the kernels behind the spectral Poisson solver used by the
 * electrostatic density force (ePlace-style):
 *
 *  - Dct2:      X[k] = sum_n x[n] cos(pi*(n+0.5)*k/N)          (DCT-II)
 *  - Idct2:     exact inverse of Dct2 (i.e. a scaled DCT-III)
 *  - CosSeries: y[n] = c[0] + 2*sum_{k>=1} c[k] cos(pi*(n+0.5)*k/N)
 *  - SinSeries: y[n] = 2*sum_{k>=1} c[k] sin(pi*(n+0.5)*k/N)
 *
 * CosSeries evaluates a Neumann-boundary eigenfunction expansion on the
 * half-sample grid; SinSeries is its x-derivative counterpart (used for
 * the electric field). All lengths must be powers of two.
 *
 * A DctPlan is built once per transform length and holds an FftPlan
 * (bit-reversal pairs + per-stage FFT twiddles) and the forward/inverse
 * Makhoul post/pre-twiddles e^(+-i*pi*k/(2N)) as plain doubles. The
 * only entries are the row and column passes over a row-major map;
 * both run kLanes lines at a time through one lane-batched kernel on
 * the split-format FftPlan:
 *
 *  - transformCols reads kLanes adjacent columns straight from the map,
 *    one contiguous 64-byte row segment per sample: no strided gather;
 *  - transformRows transposes kLanes rows into a block and back.
 *
 * A map with fewer lines than lanes (length 1, 2 or 4) fills the unused
 * lanes with zeros, so there is no scalar remainder path. The Makhoul
 * twiddles are complex products written out (a*c - b*d, a*d + b*c, in
 * std::complex's operand order), and every lane runs the same IEEE
 * operations in the same order as the single-line plan-free kernels,
 * with no operation mixing lanes; so every line's result is
 * bitwise-identical to those kernels, which live with the tests as
 * their oracles together with the O(N^2) direct sums
 * (tests/oracles/spectral; ctest -L plan).
 *
 * A DctScratch provides per-chunk reusable buffers so the passes
 * transform without a single allocation after warm-up.
 *
 * Thread-safety: a plan is immutable and may be shared freely (see
 * PlanCache); a DctScratch must be owned by one transform call chain
 * at a time -- the passes hand workspace @c c to chunk @c c, which
 * keeps them race-free under the deterministic chunked parallel-for.
 * Lines never interact, so the result is bitwise-identical for any
 * thread count.
 */

#ifndef QPLACER_MATH_DCT_PLAN_HPP
#define QPLACER_MATH_DCT_PLAN_HPP

#include <vector>

#include "math/fft_plan.hpp"

namespace qplacer {

class ThreadPool;

/** Reusable per-chunk workspaces for DctPlan execution. */
class DctScratch
{
  public:
    /** Buffers one executing chunk (thread) transforms through. */
    struct Chunk
    {
        std::vector<double> re; ///< FFT workspace, real parts.
        std::vector<double> im; ///< FFT workspace, imaginary parts.
        std::vector<double> block; ///< Row transpose / partial block.
    };

    /**
     * Grow to at least @p chunks workspaces. Called by the passes
     * before entering the parallel region; buffers keep their capacity
     * across calls, so steady-state transforms allocate nothing.
     */
    void ensure(int chunks);

    /** Workspace of chunk @p chunk (valid after ensure()). */
    Chunk &
    chunk(int chunk)
    {
        return chunks_[static_cast<std::size_t>(chunk)];
    }

  private:
    std::vector<Chunk> chunks_;
};

/** Plan for every DCT/DST kernel at one transform length. */
class DctPlan
{
  public:
    /** 1-D kernel selector (see the file comment). */
    enum class Kind
    {
        Dct2,
        Idct2,
        CosSeries,
        SinSeries,
    };

    /** Lines one kernel call transforms side by side. */
    static constexpr std::size_t kLanes = FftPlan::kLanes;

    /** Build tables for length @p n (must be a power of two). */
    explicit DctPlan(std::size_t n);

    /** Transform length the plan was built for. */
    std::size_t length() const { return n_; }

    /**
     * Apply @p kind along every length-@p nx row of the row-major
     * @p ny x @p nx map (requires nx == length()), kLanes rows per
     * block, blocks chunked across @p pool (null = serial) with one
     * scratch workspace per chunk.
     */
    void transformRows(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const;

    /**
     * Column-wise counterpart (requires ny == length()); a block is
     * kLanes adjacent columns, transformed in place in the map.
     */
    void transformCols(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const;

  private:
    /**
     * Apply @p kind in place to kLanes lines at once: sample e of
     * line l is x[e*stride + l] (stride >= kLanes).
     */
    void applyLanes(Kind kind, double *x, std::size_t stride,
                    DctScratch::Chunk &ws) const;

    void dct2(double *x, std::size_t stride, DctScratch::Chunk &ws) const;
    /** Idct2, CosSeries and SinSeries: one inverse FFT each. */
    void inverse(Kind kind, double *x, std::size_t stride,
                 DctScratch::Chunk &ws) const;

    std::size_t n_;
    FftPlan fft_;
    /** Forward Makhoul twiddles e^(-i*pi*k/(2N)), k = 0..N-1. */
    std::vector<double> fwdRe_;
    std::vector<double> fwdIm_;
    /** Inverse Makhoul twiddles e^(+i*pi*k/(2N)). */
    std::vector<double> invRe_;
    std::vector<double> invIm_;
};

} // namespace qplacer

#endif // QPLACER_MATH_DCT_PLAN_HPP
