#include "geometry/cell_list.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "util/logging.hpp"

namespace qplacer {

namespace {

/** Relative cell-edge slack: rounding cannot split a reach pair further. */
constexpr double kCellMargin = 1e-6;

/** Cell of coordinate @p v on an axis of @p cells cells of width @p w. */
int
cellIndex(double v, double lo, double w, int cells)
{
    const double c = cells == 1 ? 0.0 : std::floor((v - lo) / w);
    return !(c > 0.0) ? 0 : c >= cells - 1 ? cells - 1 : static_cast<int>(c);
}

} // namespace

void
CellList::build(const Rect &region, double min_edge,
                const std::vector<Vec2> &positions)
{
    if (!(min_edge >= 0.0))
        panic("CellList::build: negative cell edge");
    const std::size_t n = positions.size();
    const int cap =
        1 + static_cast<int>(2.0 * std::sqrt(static_cast<double>(n)));
    const double edge = min_edge * (1.0 + kCellMargin);
    auto axisCells = [&](double span) {
        if (!(span > edge))
            return 1;
        return static_cast<int>(
            std::min(static_cast<double>(cap), std::floor(span / edge)));
    };
    region_ = region;
    cols_ = axisCells(region.width());
    rows_ = axisCells(region.height());
    cellW_ = region.width() / cols_;
    cellH_ = region.height() / rows_;
    const std::size_t cells = static_cast<std::size_t>(cols_) * rows_;

    // Stable counting sort: count per cell, inclusive prefix sums, then
    // fill each cell back to front in descending index order.
    cellOf_.resize(n);
    cellStart_.assign(cells + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const Vec2 p = positions[i];
        if (!std::isfinite(p.x) || !std::isfinite(p.y))
            panic(str("CellList::build: non-finite position of instance ",
                      i));
        cellOf_[i] = cellAt(p);
        ++cellStart_[static_cast<std::size_t>(cellOf_[i])];
    }
    for (std::size_t c = 1; c < cells; ++c)
        cellStart_[c] += cellStart_[c - 1];
    cellStart_[cells] = static_cast<std::int32_t>(n);
    order_.resize(n);
    points_.resize(n);
    for (std::size_t i = n; i-- > 0;) {
        const auto k = static_cast<std::size_t>(
            --cellStart_[static_cast<std::size_t>(cellOf_[i])]);
        order_[k] = static_cast<std::int32_t>(i);
        points_[k] = positions[i];
    }
}

int
CellList::cellAt(Vec2 p) const
{
    return cellIndex(p.y, region_.lo.y, cellH_, rows_) * cols_ +
           cellIndex(p.x, region_.lo.x, cellW_, cols_);
}

std::vector<std::int32_t>
CellList::kNearest(Vec2 center, int k) const
{
    if (k <= 0 || order_.empty())
        return {};

    const int cell = cellAt(center);
    const int cx = cell % cols_;
    const int cy = cell / cols_;
    const double ring_gap = std::min(cellW_, cellH_);

    std::vector<std::pair<double, std::int32_t>> cand; // (distSq, index)
    for (int d = 0; d <= std::max(cols_, rows_); ++d) {
        // Visit the ring of cells at Chebyshev distance d.
        for (int iy = std::max(cy - d, 0); iy <= std::min(cy + d, rows_ - 1);
             ++iy) {
            for (int ix = std::max(cx - d, 0);
                 ix <= std::min(cx + d, cols_ - 1); ++ix) {
                if (std::max(std::abs(ix - cx), std::abs(iy - cy)) < d)
                    continue; // an inner ring
                const std::size_t c =
                    static_cast<std::size_t>(iy) * cols_ + ix;
                for (std::int32_t e = cellStart_[c]; e < cellStart_[c + 1];
                     ++e)
                    cand.emplace_back((points_[e] - center).normSq(),
                                      order_[e]);
            }
        }
        if (cand.size() >= static_cast<std::size_t>(k)) {
            // A point in an unvisited cell is at least d cells away on
            // some axis; stop once the k-th best strictly beats that
            // bound (strict: a point at exactly the bound could tie
            // with a smaller index, and ties go to the smaller index).
            std::nth_element(cand.begin(), cand.begin() + (k - 1),
                             cand.end());
            const double kth = cand[static_cast<std::size_t>(k - 1)].first;
            const double bound = static_cast<double>(d) * ring_gap;
            if (kth < bound * bound)
                break;
        }
    }

    const std::size_t keep =
        std::min(cand.size(), static_cast<std::size_t>(k));
    std::partial_sort(cand.begin(), cand.begin() + keep, cand.end());
    std::vector<std::int32_t> out(keep);
    for (std::size_t i = 0; i < keep; ++i)
        out[i] = cand[i].second;
    return out;
}

} // namespace qplacer
