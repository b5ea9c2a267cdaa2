#include "core/poisson.hpp"

#include <algorithm>
#include <numbers>

#include "math/plan_cache.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

PoissonSolver::PoissonSolver(int nx, int ny, double width, double height,
                             ThreadPool *pool)
    : nx_(nx), ny_(ny), width_(width), height_(height), pool_(pool)
{
    if (!isPowerOfTwo(static_cast<std::size_t>(nx)) ||
        !isPowerOfTwo(static_cast<std::size_t>(ny))) {
        panic(str("PoissonSolver: grid ", nx, "x", ny,
                  " must be powers of two"));
    }
    if (width <= 0.0 || height <= 0.0)
        panic("PoissonSolver: non-positive physical size");

    wu_.resize(nx);
    wv_.resize(ny);
    for (int u = 0; u < nx; ++u)
        wu_[u] = std::numbers::pi * u / width;
    for (int v = 0; v < ny; ++v)
        wv_[v] = std::numbers::pi * v / height;

    // One plan per transform length, shared process-wide; solvers on
    // the same grid size all execute from the same tables.
    rowPlan_ = PlanCache::dct(static_cast<std::size_t>(nx));
    colPlan_ = PlanCache::dct(static_cast<std::size_t>(ny));
}

const PoissonSolver::Solution &
PoissonSolver::solve(const std::vector<double> &density) const
{
    input_ = density;
    return solve();
}

const PoissonSolver::Solution &
PoissonSolver::solve() const
{
    const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;
    if (input_.size() != cells)
        panic("PoissonSolver::solve: density map size mismatch");

    using Kind = DctPlan::Kind;
    const auto rows = [&](std::vector<double> &map, Kind kind) {
        rowPlan_->transformRows(map, nx_, ny_, kind, pool_, scratch_);
    };
    const auto cols = [&](std::vector<double> &map, Kind kind) {
        colPlan_->transformCols(map, nx_, ny_, kind, pool_, scratch_);
    };

    // Forward 2-D DCT of the density -> eigenbasis coefficients.
    std::vector<double> &coeff = input_;
    rows(coeff, Kind::Dct2);
    cols(coeff, Kind::Dct2);

    // One elementwise pass: normalize, divide by the Laplacian
    // eigenvalue (dropping the DC term), and weight by w_u / w_v to
    // form the sine-series inputs of the two field components.
    std::vector<double> &fx = solution_.fieldX;
    std::vector<double> &fy = solution_.fieldY;
    fx.resize(cells);
    fy.resize(cells);
    const double norm = 1.0 / (static_cast<double>(nx_) * ny_);
    const std::size_t nx = static_cast<std::size_t>(nx_);
    parallelFor(
        pool_, static_cast<std::size_t>(ny_),
        [&](std::size_t v_begin, std::size_t v_end) {
            for (std::size_t v = v_begin; v < v_end; ++v) {
                const double wv = wv_[v];
                for (std::size_t u = 0; u < nx; ++u) {
                    const std::size_t i = v * nx + u;
                    double psi_coeff = 0.0;
                    if (u != 0 || v != 0) {
                        const double w2 = wu_[u] * wu_[u] + wv * wv;
                        psi_coeff = coeff[i] * norm / w2;
                    }
                    fx[i] = wu_[u] * psi_coeff;
                    fy[i] = wv * psi_coeff;
                }
            }
        },
        std::max<std::size_t>(1, ThreadPool::kGrainFine / nx));

    // xi_x: sine series in x, cosine series in y; xi_y the transpose.
    rows(fx, Kind::SinSeries);
    cols(fx, Kind::CosSeries);
    rows(fy, Kind::CosSeries);
    cols(fy, Kind::SinSeries);
    return solution_;
}

} // namespace qplacer
