#include "core/freq_force.hpp"

#include <algorithm>
#include <cmath>

#include "freq/spectrum.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

/**
 * Relative slack on the cell edge, so that rounding in the cell-index
 * arithmetic cannot put an in-range pair two cells apart.
 */
constexpr double kCellMargin = 1e-6;

/** Cell of coordinate @p v on an axis of @p cells cells of width @p w. */
int
cellIndex(double v, double lo, double w, int cells)
{
    if (cells == 1)
        return 0;
    const double c = std::floor((v - lo) / w);
    if (!(c > 0.0))
        return 0;
    return c >= cells - 1 ? cells - 1 : static_cast<int>(c);
}

} // namespace

FreqForceModel::FreqForceModel(const Netlist &netlist, double threshold_hz,
                               double cutoff_factor, ThreadPool *pool)
    : netlist_(netlist),
      freq_(netlist.frequencies()),
      group_(netlist.resonatorGroups()),
      thresholdHz_(threshold_hz),
      cutoffFactor_(cutoff_factor),
      maxRadius_(0.0),
      pool_(pool)
{
    if (cutoff_factor <= 0.0)
        fatal("FreqForceModel: non-positive cutoff factor");
    charge_.resize(netlist.instances().size());
    for (std::size_t i = 0; i < charge_.size(); ++i) {
        charge_[i] = std::sqrt(netlist.instances()[i].paddedArea());
        maxRadius_ = std::max(maxRadius_, 2.0 * cutoff_factor * charge_[i]);
    }
}

FreqForceModel::CellGrid
FreqForceModel::binInstances(const std::vector<Vec2> &positions) const
{
    const std::size_t n = positions.size();
    const Rect region = netlist_.region();
    // Cells at least maxRadius_ wide: every in-range pair lies in the
    // same or an adjacent cell. Capping the cells per axis at 1 + 2 sqrt(n)
    // keeps the grid O(n); oversized cells stay correct.
    const int cap =
        1 + static_cast<int>(2.0 * std::sqrt(static_cast<double>(n)));
    const double edge = maxRadius_ * (1.0 + kCellMargin);
    auto axisCells = [&](double span) {
        if (!(span > edge))
            return 1;
        return static_cast<int>(
            std::min(static_cast<double>(cap), std::floor(span / edge)));
    };
    const CellGrid grid{axisCells(region.width()),
                        axisCells(region.height())};
    const double cell_w = region.width() / grid.cols;
    const double cell_h = region.height() / grid.rows;
    const std::size_t cells =
        static_cast<std::size_t>(grid.cols) * grid.rows;

    // Stable counting sort: count per cell, inclusive prefix sums, then
    // fill each cell back to front in descending index order, which
    // leaves every cell in ascending index order and cellStart_[c] at
    // the start of cell c.
    cellOf_.resize(n);
    cellStart_.assign(cells + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const Vec2 p = positions[i];
        if (!std::isfinite(p.x) || !std::isfinite(p.y))
            panic(str("FreqForceModel::evaluate: non-finite position of "
                      "instance ",
                      i));
        const int c =
            cellIndex(p.y, region.lo.y, cell_h, grid.rows) * grid.cols +
            cellIndex(p.x, region.lo.x, cell_w, grid.cols);
        cellOf_[i] = c;
        ++cellStart_[static_cast<std::size_t>(c)];
    }
    for (std::size_t c = 1; c < cells; ++c)
        cellStart_[c] += cellStart_[c - 1];
    cellStart_[cells] = static_cast<std::int32_t>(n);
    binned_.resize(n);
    for (std::size_t i = n; i-- > 0;)
        binned_[static_cast<std::size_t>(
            --cellStart_[static_cast<std::size_t>(cellOf_[i])])] = {
            positions[i], charge_[i], freq_[i],
            static_cast<std::int32_t>(i), group_[i]};
    return grid;
}

double
FreqForceModel::evaluate(const std::vector<Vec2> &positions,
                         std::vector<Vec2> &gradient) const
{
    if (positions.size() != charge_.size())
        panic("FreqForceModel::evaluate: position count mismatch");
    gradient.assign(positions.size(), Vec2());
    const CellGrid grid = binInstances(positions);

    // Each unordered pair is handled once, by its lower index i; pairs
    // are chunked over i, with per-chunk gradient slices so the writes
    // to both endpoints never collide across threads.
    const std::size_t n = positions.size();
    const int chunks =
        parallelChunkCount(pool_, n, ThreadPool::kGrainMedium);
    Vec2 *scratch = nullptr;
    if (chunks > 1) {
        gradScratch_.assign(static_cast<std::size_t>(chunks) * n, Vec2());
        scratch = gradScratch_.data();
    }
    std::vector<double> partial(static_cast<std::size_t>(chunks), 0.0);

    parallelForChunks(
        pool_, n,
        [&](int chunk, std::size_t begin, std::size_t end) {
            Vec2 *g = chunks == 1
                          ? gradient.data()
                          : scratch + static_cast<std::size_t>(chunk) * n;
            std::vector<std::int32_t> candidates;
            double potential = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                // Near-resonant partners j > i in the 3x3 cell
                // neighbourhood; cells x0..x1 of a row are contiguous
                // in binned_. Candidates are compacted branch-free:
                // every one is written, only kept ones advance count.
                const int cx = cellOf_[i] % grid.cols;
                const int cy = cellOf_[i] / grid.cols;
                const int x0 = std::max(cx - 1, 0);
                const int x1 = std::min(cx + 1, grid.cols - 1);
                const auto self = static_cast<std::int32_t>(i);
                std::size_t count = 0;
                for (int y = std::max(cy - 1, 0);
                     y <= std::min(cy + 1, grid.rows - 1); ++y) {
                    const std::int32_t first = cellStart_[y * grid.cols + x0];
                    const std::int32_t last =
                        cellStart_[y * grid.cols + x1 + 1];
                    const auto row = static_cast<std::size_t>(last - first);
                    candidates.resize(std::max(candidates.size(), count + row));
                    for (std::int32_t k = first; k < last; ++k) {
                        const Binned &b = binned_[k];
                        // A leg at or beyond the radius puts the pair out
                        // of range (hypot is never below either leg).
                        const double radius =
                            cutoffFactor_ * (charge_[i] + b.charge);
                        const bool keep =
                            (b.index > self) &
                            (std::abs(positions[i].x - b.pos.x) < radius) &
                            (std::abs(positions[i].y - b.pos.y) < radius) &
                            isResonant(freq_[i], b.freq, thresholdHz_) &
                            !(group_[i] >= 0 && group_[i] == b.group);
                        candidates[count] = b.index;
                        count += keep;
                    }
                }
                std::sort(candidates.begin(), candidates.begin() + count);

                for (std::size_t c = 0; c < count; ++c) {
                    const std::int32_t j = candidates[c];
                    const double s = charge_[i] * charge_[j];
                    const double radius =
                        cutoffFactor_ * (charge_[i] + charge_[j]);
                    Vec2 delta = positions[i] - positions[j];
                    double d = delta.norm();
                    if (d >= radius)
                        continue; // already spatially isolated
                    // Clamp so coincident instances still get a finite,
                    // directed push (deterministic tie-break direction
                    // from the indices).
                    const double d_min =
                        0.25 * (charge_[i] + charge_[j]);
                    if (d < 1e-9) {
                        const double ang = 0.7548776662 *
                                           static_cast<double>(i * 31 + j);
                        delta = Vec2(std::cos(ang), std::sin(ang)) * d_min;
                        d = d_min;
                    } else if (d < d_min) {
                        delta = delta * (d_min / d);
                        d = d_min;
                    }
                    potential += s * (1.0 / d - 1.0 / radius);
                    // dU/dx_i = -s (x_i - x_j) / d^3.
                    const double coef = -s / (d * d * d);
                    g[i] += delta * coef;
                    g[j] -= delta * coef;
                }
            }
            partial[chunk] = potential;
        },
        ThreadPool::kGrainMedium);

    if (chunks > 1) {
        parallelFor(
            pool_, n,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    Vec2 acc;
                    for (int c = 0; c < chunks; ++c)
                        acc += scratch[static_cast<std::size_t>(c) * n +
                                       i];
                    gradient[i] = acc;
                }
            },
            ThreadPool::kGrainFine);
    }
    double total = 0.0;
    for (double p : partial)
        total += p;
    return total;
}

} // namespace qplacer
