#include "oracles/spectral.hpp"

#include <cmath>
#include <numbers>

#include "math/plan_cache.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer::oracle {

namespace {

constexpr double kPi = std::numbers::pi;

} // namespace

void
Fft::transform(std::vector<Complex> &data, bool invert)
{
    const std::size_t n = data.size();
    if (!isPowerOfTwo(n))
        panic(str("Fft: length ", n, " is not a power of two"));
    if (n == 1)
        return;

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang =
            2.0 * kPi / static_cast<double>(len) *
            (invert ? 1.0 : -1.0);
        const Complex wlen(std::cos(ang), std::sin(ang));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex u = data[i + k];
                const Complex v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (invert) {
        const double inv_n = 1.0 / static_cast<double>(n);
        for (auto &x : data)
            x *= inv_n;
    }
}

void
Fft::forward(std::vector<Complex> &data)
{
    transform(data, false);
}

void
Fft::inverse(std::vector<Complex> &data)
{
    transform(data, true);
}

std::vector<double>
Dct::dct2(const std::vector<double> &x)
{
    const std::size_t n = x.size();
    if (!isPowerOfTwo(n))
        panic(str("Dct::dct2: length ", n, " is not a power of two"));

    // Makhoul reordering: even samples ascending, odd samples descending.
    std::vector<Complex> v(n);
    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        v[m] = Complex(x[2 * m], 0.0);
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        v[n - 1 - m] = Complex(x[2 * m + 1], 0.0);

    Fft::forward(v);

    std::vector<double> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double ang = -kPi * static_cast<double>(k) /
                           (2.0 * static_cast<double>(n));
        const Complex tw(std::cos(ang), std::sin(ang));
        out[k] = (tw * v[k]).real();
    }
    return out;
}

std::vector<double>
Dct::idct2(const std::vector<double> &X)
{
    const std::size_t n = X.size();
    if (!isPowerOfTwo(n))
        panic(str("Dct::idct2: length ", n, " is not a power of two"));

    // Reconstruct the complex spectrum P[k] = X[k] - i*X[n-k]
    // (derived from the Hermitian symmetry of the Makhoul spectrum),
    // undo the twiddle, invert the FFT, and undo the reordering.
    std::vector<Complex> v(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double re = X[k];
        const double im = (k == 0) ? 0.0 : -X[n - k];
        const double ang = kPi * static_cast<double>(k) /
                           (2.0 * static_cast<double>(n));
        const Complex tw(std::cos(ang), std::sin(ang));
        v[k] = tw * Complex(re, im);
    }

    Fft::inverse(v);

    std::vector<double> x(n);
    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        x[2 * m] = v[m].real();
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        x[2 * m + 1] = v[n - 1 - m].real();
    return x;
}

std::vector<double>
Dct::cosSeries(const std::vector<double> &c)
{
    // y[n] = c[0] + 2*sum_{k>=1} c[k] cos(...) == N * idct2(c).
    const auto n = static_cast<double>(c.size());
    std::vector<double> y = idct2(c);
    for (auto &v : y)
        v *= n;
    return y;
}

std::vector<double>
Dct::sinSeries(const std::vector<double> &c)
{
    // sin(pi*(n+0.5)*k/N) == (-1)^n cos(pi*(n+0.5)*(N-k)/N), so the sine
    // series is a cosine series with reversed coefficients and an
    // alternating sign.
    const std::size_t n = c.size();
    std::vector<double> flipped(n, 0.0);
    for (std::size_t k = 1; k < n; ++k)
        flipped[k] = c[n - k];
    std::vector<double> y = cosSeries(flipped);
    for (std::size_t i = 1; i < n; i += 2)
        y[i] = -y[i];
    return y;
}

std::vector<double>
Dct::apply(Kind kind, const std::vector<double> &x)
{
    switch (kind) {
      case Kind::Dct2:
        return dct2(x);
      case Kind::Idct2:
        return idct2(x);
      case Kind::CosSeries:
        return cosSeries(x);
      case Kind::SinSeries:
        return sinSeries(x);
    }
    panic("Dct::apply: bad kind");
}

void
Dct::transformRows(std::vector<double> &map, int nx, int ny, Kind kind,
                   ThreadPool *pool)
{
    DctScratch scratch;
    PlanCache::dct(static_cast<std::size_t>(nx))
        ->transformRows(map, nx, ny, kind, pool, scratch);
}

void
Dct::transformCols(std::vector<double> &map, int nx, int ny, Kind kind,
                   ThreadPool *pool)
{
    DctScratch scratch;
    PlanCache::dct(static_cast<std::size_t>(ny))
        ->transformCols(map, nx, ny, kind, pool, scratch);
}

void
Dct::transformRowsUnplanned(std::vector<double> &map, int nx, int ny,
                            Kind kind, ThreadPool *pool)
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("Dct::transformRows: map size ", map.size(),
                  " != ", nx, "x", ny));
    parallelFor(
        pool, static_cast<std::size_t>(ny),
        [&](std::size_t begin, std::size_t end) {
            std::vector<double> row(static_cast<std::size_t>(nx));
            for (std::size_t iy = begin; iy < end; ++iy) {
                double *base = map.data() + iy * nx;
                row.assign(base, base + nx);
                const std::vector<double> out = apply(kind, row);
                for (int ix = 0; ix < nx; ++ix)
                    base[ix] = out[ix];
            }
        },
        ThreadPool::kGrainCoarse);
}

void
Dct::transformColsUnplanned(std::vector<double> &map, int nx, int ny,
                            Kind kind, ThreadPool *pool)
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("Dct::transformCols: map size ", map.size(),
                  " != ", nx, "x", ny));
    parallelFor(
        pool, static_cast<std::size_t>(nx),
        [&](std::size_t begin, std::size_t end) {
            std::vector<double> col(static_cast<std::size_t>(ny));
            for (std::size_t ix = begin; ix < end; ++ix) {
                for (int iy = 0; iy < ny; ++iy)
                    col[iy] =
                        map[static_cast<std::size_t>(iy) * nx + ix];
                const std::vector<double> out = apply(kind, col);
                for (int iy = 0; iy < ny; ++iy)
                    map[static_cast<std::size_t>(iy) * nx + ix] =
                        out[iy];
            }
        },
        ThreadPool::kGrainCoarse);
}

std::vector<double>
Dct::dct2Direct(const std::vector<double> &x)
{
    const std::size_t n = x.size();
    std::vector<double> out(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        double acc = 0.0;
        for (std::size_t m = 0; m < n; ++m) {
            acc += x[m] * std::cos(kPi * (static_cast<double>(m) + 0.5) *
                                   static_cast<double>(k) /
                                   static_cast<double>(n));
        }
        out[k] = acc;
    }
    return out;
}

std::vector<double>
Dct::cosSeriesDirect(const std::vector<double> &c)
{
    const std::size_t n = c.size();
    std::vector<double> out(n, 0.0);
    for (std::size_t m = 0; m < n; ++m) {
        double acc = c[0];
        for (std::size_t k = 1; k < n; ++k) {
            acc += 2.0 * c[k] *
                   std::cos(kPi * (static_cast<double>(m) + 0.5) *
                            static_cast<double>(k) / static_cast<double>(n));
        }
        out[m] = acc;
    }
    return out;
}

std::vector<double>
Dct::sinSeriesDirect(const std::vector<double> &c)
{
    const std::size_t n = c.size();
    std::vector<double> out(n, 0.0);
    for (std::size_t m = 0; m < n; ++m) {
        double acc = 0.0;
        for (std::size_t k = 1; k < n; ++k) {
            acc += 2.0 * c[k] *
                   std::sin(kPi * (static_cast<double>(m) + 0.5) *
                            static_cast<double>(k) / static_cast<double>(n));
        }
        out[m] = acc;
    }
    return out;
}

Poisson::Poisson(int nx, int ny, double width, double height,
                 ThreadPool *pool)
    : nx_(nx), ny_(ny), pool_(pool)
{
    wu_.resize(nx);
    wv_.resize(ny);
    for (int u = 0; u < nx; ++u)
        wu_[u] = kPi * u / width;
    for (int v = 0; v < ny; ++v)
        wv_[v] = kPi * v / height;
}

Poisson::Solution
Poisson::solve(const std::vector<double> &density) const
{
    const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;
    const auto rows = [&](std::vector<double> &map, Dct::Kind kind) {
        Dct::transformRowsUnplanned(map, nx_, ny_, kind, pool_);
    };
    const auto cols = [&](std::vector<double> &map, Dct::Kind kind) {
        Dct::transformColsUnplanned(map, nx_, ny_, kind, pool_);
    };

    // Forward 2-D DCT of the density -> eigenbasis coefficients.
    std::vector<double> coeff = density;
    rows(coeff, Dct::Kind::Dct2);
    cols(coeff, Dct::Kind::Dct2);
    const double norm = 1.0 / (static_cast<double>(nx_) * ny_);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                coeff[i] *= norm;
        },
        ThreadPool::kGrainFine);

    // Divide by the Laplacian eigenvalues; drop the DC term.
    std::vector<double> psi_coeff(cells, 0.0);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const int u = static_cast<int>(i % nx_);
                const int v = static_cast<int>(i / nx_);
                if (u == 0 && v == 0)
                    continue;
                const double w2 = wu_[u] * wu_[u] + wv_[v] * wv_[v];
                psi_coeff[i] = coeff[i] / w2;
            }
        },
        ThreadPool::kGrainFine);

    Solution sol;

    // Potential psi.
    sol.potential = psi_coeff;
    rows(sol.potential, Dct::Kind::CosSeries);
    cols(sol.potential, Dct::Kind::CosSeries);

    // Field xi_x: sine series in x of (w_u * psi_coeff).
    sol.fieldX.assign(cells, 0.0);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                sol.fieldX[i] = wu_[i % nx_] * psi_coeff[i];
        },
        ThreadPool::kGrainFine);
    rows(sol.fieldX, Dct::Kind::SinSeries);
    cols(sol.fieldX, Dct::Kind::CosSeries);

    // Field xi_y: sine series in y of (w_v * psi_coeff).
    sol.fieldY.assign(cells, 0.0);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                sol.fieldY[i] = wv_[i / nx_] * psi_coeff[i];
        },
        ThreadPool::kGrainFine);
    rows(sol.fieldY, Dct::Kind::CosSeries);
    cols(sol.fieldY, Dct::Kind::SinSeries);

    return sol;
}

} // namespace qplacer::oracle
