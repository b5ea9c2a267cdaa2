/**
 * @file
 * Plan-free spectral kernels: the oracles of math/fft_plan,
 * math/dct_plan and core/poisson.
 *
 * Fft and Dct are the textbook kernels the plans were derived from.
 * They allocate a workspace and re-derive every twiddle on each call;
 * the plans hoist that work to construction and must reproduce these
 * kernels bit for bit (tests/math/test_dct_plan.cpp). The O(N^2)
 * direct sums check the kernels themselves (tests/math/test_dct.cpp).
 *
 * Poisson is the electrostatics solve as it was before the potential
 * was dropped from production: it runs on the plan-free row/column
 * passes and synthesizes psi as well as the field, so the tests can
 * check the field against the potential (tests/core/
 * test_density_oracle.cpp).
 */

#ifndef QPLACER_TESTS_ORACLES_SPECTRAL_HPP
#define QPLACER_TESTS_ORACLES_SPECTRAL_HPP

#include <complex>
#include <vector>

#include "math/dct_plan.hpp"

namespace qplacer {

class ThreadPool;

namespace oracle {

/** Sample type of the plan-free FFT. */
using Complex = std::complex<double>;

/** In-place iterative radix-2 FFT over power-of-two-length data. */
class Fft
{
  public:
    /**
     * Forward transform (no normalization):
     *   X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
     * @pre data.size() is a power of two.
     */
    static void forward(std::vector<Complex> &data);

    /**
     * Inverse transform with 1/N normalization so that
     * inverse(forward(x)) == x.
     */
    static void inverse(std::vector<Complex> &data);

  private:
    static void transform(std::vector<Complex> &data, bool invert);
};

/** FFT-based DCT/DST kernels (see math/dct_plan for the formulas). */
class Dct
{
  public:
    using Kind = DctPlan::Kind;

    /** Forward DCT-II (unnormalized). */
    static std::vector<double> dct2(const std::vector<double> &x);

    /** Inverse of dct2: idct2(dct2(x)) == x. */
    static std::vector<double> idct2(const std::vector<double> &X);

    /** Cosine eigen-series evaluation. */
    static std::vector<double> cosSeries(const std::vector<double> &c);

    /** Sine eigen-series evaluation. */
    static std::vector<double> sinSeries(const std::vector<double> &c);

    /** Apply the 1-D kernel selected by @p kind to one vector. */
    static std::vector<double> apply(Kind kind, const std::vector<double> &x);

    /**
     * Apply @p kind along every length-@p nx row of the row-major
     * @p ny x @p nx map through the cached DctPlan, with a fresh
     * scratch, rows chunked across @p pool (null = serial).
     */
    static void transformRows(std::vector<double> &map, int nx, int ny,
                              Kind kind, ThreadPool *pool);

    /** Column-wise counterpart of transformRows (length-@p ny cols). */
    static void transformCols(std::vector<double> &map, int nx, int ny,
                              Kind kind, ThreadPool *pool);

    /** Row pass through per-row apply(), with per-call workspaces. */
    static void transformRowsUnplanned(std::vector<double> &map, int nx,
                                       int ny, Kind kind,
                                       ThreadPool *pool);

    /** Column pass through per-column apply(). */
    static void transformColsUnplanned(std::vector<double> &map, int nx,
                                       int ny, Kind kind,
                                       ThreadPool *pool);

    /** O(N^2) direct sums. */
    static std::vector<double> dct2Direct(const std::vector<double> &x);
    static std::vector<double> cosSeriesDirect(const std::vector<double> &c);
    static std::vector<double> sinSeriesDirect(const std::vector<double> &c);
};

/** Spectral Poisson solve that also synthesizes the potential. */
class Poisson
{
  public:
    struct Solution
    {
        std::vector<double> potential; ///< psi.
        std::vector<double> fieldX;    ///< xi_x = -d(psi)/dx.
        std::vector<double> fieldY;    ///< xi_y = -d(psi)/dy.
    };

    /** Same grid and region arguments as PoissonSolver. */
    Poisson(int nx, int ny, double width, double height, ThreadPool *pool);

    Solution solve(const std::vector<double> &density) const;

  private:
    int nx_;
    int ny_;
    ThreadPool *pool_;
    std::vector<double> wu_;
    std::vector<double> wv_;
};

} // namespace oracle
} // namespace qplacer

#endif // QPLACER_TESTS_ORACLES_SPECTRAL_HPP
