#include "math/dct_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

constexpr double kPi = std::numbers::pi;
constexpr std::size_t kLanes = DctPlan::kLanes;

/**
 * Blocks below which a pass stays serial: the per-line cutoff of the
 * 1-D transforms, in blocks of kLanes lines.
 */
constexpr std::size_t kBlockGrain = ThreadPool::kGrainCoarse / kLanes;

/** dst[l] = src[l] over the kLanes lanes. */
inline void
copyLanes(double *__restrict dst, const double *__restrict src)
{
    for (std::size_t l = 0; l < kLanes; ++l)
        dst[l] = src[l];
}

/** dst[l] = src[l] * scale over the kLanes lanes. */
inline void
scaleLanes(double *__restrict dst, const double *__restrict src,
           double scale)
{
    for (std::size_t l = 0; l < kLanes; ++l)
        dst[l] = src[l] * scale;
}

/**
 * (re, im) <- (c + i*s) * (xr + i*xi) over the kLanes lanes, written
 * out in std::complex's operand order.
 */
inline void
twiddleLanes(double *__restrict re, double *__restrict im,
             const double *xr, const double *xi, double c, double s)
{
    for (std::size_t l = 0; l < kLanes; ++l) {
        re[l] = c * xr[l] - s * xi[l];
        im[l] = c * xi[l] + s * xr[l];
    }
}

/** dst[l] = -src[l] over the kLanes lanes. */
inline void
negLanes(double *__restrict dst, const double *__restrict src)
{
    for (std::size_t l = 0; l < kLanes; ++l)
        dst[l] = -src[l];
}

} // namespace

void
DctScratch::ensure(int chunks)
{
    if (static_cast<std::size_t>(chunks) > chunks_.size())
        chunks_.resize(static_cast<std::size_t>(chunks));
}

DctPlan::DctPlan(std::size_t n) : n_(n), fft_(n)
{
    // (fft_ already rejected non-power-of-two lengths.)
    fwdRe_.resize(n);
    fwdIm_.resize(n);
    invRe_.resize(n);
    invIm_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double ang = kPi * static_cast<double>(k) /
                           (2.0 * static_cast<double>(n));
        // The cos/sin evaluations the plan-free kernels make per call.
        fwdRe_[k] = std::cos(-ang);
        fwdIm_[k] = std::sin(-ang);
        invRe_[k] = std::cos(ang);
        invIm_[k] = std::sin(ang);
    }
}

void
DctPlan::dct2(double *x, std::size_t stride, DctScratch::Chunk &ws) const
{
    const std::size_t n = n_;
    double *re = ws.re.data();
    double *im = ws.im.data();

    // Makhoul reordering: even samples ascending, odd samples
    // descending (every element of re/im is written).
    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        copyLanes(re + m * kLanes, x + 2 * m * stride);
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        copyLanes(re + (n - 1 - m) * kLanes, x + (2 * m + 1) * stride);
    std::fill(im, im + n * kLanes, 0.0);

    fft_.forward(re, im);

    // Real part of the twiddled spectrum.
    for (std::size_t k = 0; k < n; ++k) {
        const double c = fwdRe_[k];
        const double s = fwdIm_[k];
        double *out = x + k * stride;
        const double *vr = re + k * kLanes;
        const double *vi = im + k * kLanes;
        for (std::size_t l = 0; l < kLanes; ++l)
            out[l] = c * vr[l] - s * vi[l];
    }
}

void
DctPlan::inverse(Kind kind, double *x, std::size_t stride,
                 DctScratch::Chunk &ws) const
{
    const std::size_t n = n_;
    double *re = ws.re.data();
    double *im = ws.im.data();

    // Reconstruct the complex spectrum P[k] = c[k] - i*c[n-k] of the
    // input c and undo the twiddle. For SinSeries, sin(pi*(n+0.5)*k/N)
    // == (-1)^n cos(pi*(n+0.5)*(N-k)/N): it is a cosine series of the
    // reversed coefficients c'[0] = 0, c'[k] = x[n-k], so c'[k] =
    // x[n-k] and c'[n-k] = x[k] for k >= 1. All of x is read before any
    // of it is rewritten below.
    const bool flip = kind == Kind::SinSeries;
    double xr[kLanes];
    double xi[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
        xr[l] = flip ? 0.0 : x[l];
        xi[l] = 0.0;
    }
    twiddleLanes(re, im, xr, xi, invRe_[0], invIm_[0]);
    for (std::size_t k = 1; k < n; ++k) {
        const double *a = x + (flip ? n - k : k) * stride;
        const double *b = x + (flip ? k : n - k) * stride;
        negLanes(xi, b);
        twiddleLanes(re + k * kLanes, im + k * kLanes, a, xi, invRe_[k],
                     invIm_[k]);
    }

    fft_.inverse(re, im);

    // Undo the reordering: even outputs from the front, odd outputs
    // from the back. CosSeries is N * idct2 of its coefficients,
    // SinSeries that of the reversed ones with odd outputs negated.
    // Rounding is sign-symmetric and v * 1 == v exactly, so scaling by
    // 1 (Idct2) and by -N (v * -N == -(v * N)) match the plain copy and
    // the scale-then-negate of the single-line kernels bit for bit.
    const double n_scale = static_cast<double>(n);
    const double even = kind == Kind::Idct2 ? 1.0 : n_scale;
    const double odd = kind == Kind::SinSeries ? -n_scale : even;
    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        scaleLanes(x + 2 * m * stride, re + m * kLanes, even);
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        scaleLanes(x + (2 * m + 1) * stride, re + (n - 1 - m) * kLanes,
                   odd);
}

void
DctPlan::applyLanes(Kind kind, double *x, std::size_t stride,
                    DctScratch::Chunk &ws) const
{
    ws.re.resize(n_ * kLanes);
    ws.im.resize(n_ * kLanes);
    if (kind == Kind::Dct2)
        dct2(x, stride, ws);
    else
        inverse(kind, x, stride, ws);
}

void
DctPlan::transformRows(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("DctPlan::transformRows: map size ", map.size(),
                  " != ", nx, "x", ny));
    if (static_cast<std::size_t>(nx) != n_)
        panic(str("DctPlan::transformRows: row length ", nx,
                  " != plan length ", n_));
    const std::size_t rows = static_cast<std::size_t>(ny);
    const std::size_t blocks = (rows + kLanes - 1) / kLanes;
    scratch.ensure(parallelChunkCount(pool, blocks, kBlockGrain));
    parallelForChunks(
        pool, blocks,
        [&](int chunk, std::size_t begin, std::size_t end) {
            DctScratch::Chunk &ws = scratch.chunk(chunk);
            ws.block.resize(n_ * kLanes);
            double *block = ws.block.data();
            for (std::size_t b = begin; b < end; ++b) {
                // Transpose the block's rows in (zeros past the last
                // row), transform, and transpose the real rows back.
                const std::size_t row0 = b * kLanes;
                const std::size_t lanes = std::min(kLanes, rows - row0);
                double *first = map.data() + row0 * n_;
                for (std::size_t e = 0; e < n_; ++e) {
                    for (std::size_t l = 0; l < kLanes; ++l)
                        block[e * kLanes + l] =
                            l < lanes ? first[l * n_ + e] : 0.0;
                }
                applyLanes(kind, block, kLanes, ws);
                for (std::size_t l = 0; l < lanes; ++l) {
                    for (std::size_t e = 0; e < n_; ++e)
                        first[l * n_ + e] = block[e * kLanes + l];
                }
            }
        },
        kBlockGrain);
}

void
DctPlan::transformCols(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("DctPlan::transformCols: map size ", map.size(),
                  " != ", nx, "x", ny));
    if (static_cast<std::size_t>(ny) != n_)
        panic(str("DctPlan::transformCols: column length ", ny,
                  " != plan length ", n_));
    const std::size_t cols = static_cast<std::size_t>(nx);
    const std::size_t blocks = (cols + kLanes - 1) / kLanes;
    scratch.ensure(parallelChunkCount(pool, blocks, kBlockGrain));
    parallelForChunks(
        pool, blocks,
        [&](int chunk, std::size_t begin, std::size_t end) {
            DctScratch::Chunk &ws = scratch.chunk(chunk);
            for (std::size_t b = begin; b < end; ++b) {
                const std::size_t col0 = b * kLanes;
                const std::size_t lanes = std::min(kLanes, cols - col0);
                double *first = map.data() + col0;
                if (lanes == kLanes) {
                    applyLanes(kind, first, cols, ws);
                    continue;
                }
                // Fewer columns than lanes: copy into a zero-padded
                // block and back.
                ws.block.resize(n_ * kLanes);
                double *block = ws.block.data();
                for (std::size_t e = 0; e < n_; ++e) {
                    for (std::size_t l = 0; l < kLanes; ++l)
                        block[e * kLanes + l] =
                            l < lanes ? first[e * cols + l] : 0.0;
                }
                applyLanes(kind, block, kLanes, ws);
                for (std::size_t e = 0; e < n_; ++e) {
                    for (std::size_t l = 0; l < lanes; ++l)
                        first[e * cols + l] = block[e * kLanes + l];
                }
            }
        },
        kBlockGrain);
}

} // namespace qplacer
