#include "math/fft_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.hpp"

namespace qplacer {

namespace {

constexpr std::size_t kLanes = FftPlan::kLanes;

/**
 * One radix-2 butterfly on kLanes lanes: (lo, hi) <- (lo + w*hi,
 * lo - w*hi). The product is the one std::complex's operator* computes
 * for finite values, minus its NaN-recovery branch (__muldc3), so each
 * lane is bitwise unchanged on finite data.
 */
inline void
butterfly(double *__restrict lo_re, double *__restrict lo_im,
          double *__restrict hi_re, double *__restrict hi_im, double wr,
          double wi)
{
    for (std::size_t l = 0; l < kLanes; ++l) {
        const double ur = lo_re[l];
        const double ui = lo_im[l];
        const double qr = hi_re[l];
        const double qi = hi_im[l];
        const double vr = qr * wr - qi * wi;
        const double vi = qr * wi + qi * wr;
        lo_re[l] = ur + vr;
        lo_im[l] = ui + vi;
        hi_re[l] = ur - vr;
        hi_im[l] = ui - vi;
    }
}

} // namespace

FftPlan::FftPlan(std::size_t n) : n_(n)
{
    if (!isPowerOfTwo(n))
        panic(str("FftPlan: length ", n, " is not a power of two"));
    if (n == 1)
        return;

    // Bit-reversal permutation, recorded as the (i < j) swap pairs of
    // the in-place iterative kernel. Swaps are independent, so replaying them
    // in any order reproduces the permutation exactly.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j) {
            swapLo_.push_back(static_cast<std::uint32_t>(i));
            swapHi_.push_back(static_cast<std::uint32_t>(j));
        }
    }

    // Stage twiddles. The plan-free kernel restarts w at (1, 0) for
    // every block of a stage and advances it with w *= wlen, so one
    // table of len/2 entries per stage, generated by the identical
    // recurrence (the complex product written out, as in butterfly()),
    // reproduces every w it ever computes bit for bit.
    fwdTwiddle_.reserve(2 * (n - 1));
    invTwiddle_.reserve(2 * (n - 1));
    for (std::size_t len = 2; len <= n; len <<= 1) {
        for (const bool invert : {false, true}) {
            const double ang = 2.0 * std::numbers::pi /
                               static_cast<double>(len) *
                               (invert ? 1.0 : -1.0);
            const double lr = std::cos(ang);
            const double li = std::sin(ang);
            double wr = 1.0;
            double wi = 0.0;
            std::vector<double> &table =
                invert ? invTwiddle_ : fwdTwiddle_;
            for (std::size_t k = 0; k < len / 2; ++k) {
                table.push_back(wr);
                table.push_back(wi);
                const double nr = wr * lr - wi * li;
                const double ni = wr * li + wi * lr;
                wr = nr;
                wi = ni;
            }
        }
    }
}

void
FftPlan::execute(double *re, double *im, bool invert) const
{
    if (n_ == 1)
        return;

    for (std::size_t s = 0; s < swapLo_.size(); ++s) {
        const std::size_t a = swapLo_[s] * kLanes;
        const std::size_t b = swapHi_[s] * kLanes;
        std::swap_ranges(re + a, re + a + kLanes, re + b);
        std::swap_ranges(im + a, im + a + kLanes, im + b);
    }

    const double *table =
        invert ? invTwiddle_.data() : fwdTwiddle_.data();
    std::size_t offset = 0;
    for (std::size_t len = 2; len <= n_; len <<= 1) {
        const std::size_t half = len / 2;
        const double *w = table + 2 * offset;
        for (std::size_t i = 0; i < n_; i += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const std::size_t lo = (i + k) * kLanes;
                const std::size_t hi = lo + half * kLanes;
                butterfly(re + lo, im + lo, re + hi, im + hi, w[2 * k],
                          w[2 * k + 1]);
            }
        }
        offset += half;
    }

    if (invert) {
        const double inv_n = 1.0 / static_cast<double>(n_);
        for (std::size_t i = 0; i < n_ * kLanes; ++i) {
            re[i] *= inv_n;
            im[i] *= inv_n;
        }
    }
}

} // namespace qplacer
