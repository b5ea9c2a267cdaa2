/**
 * @file
 * Uniform cell list: the one neighbour search of the placer (frequency
 * force, hotspot analyzer, legality check, sparse flow candidates).
 */

#ifndef QPLACER_GEOMETRY_CELL_LIST_HPP
#define QPLACER_GEOMETRY_CELL_LIST_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/rect.hpp"

namespace qplacer {

/** Points counting-sorted into a uniform grid of cells. */
class CellList
{
  public:
    /**
     * Bin @p positions into a uniform grid over @p region with cells at
     * least @p min_edge wide, so points at most min_edge apart on both
     * axes share a cell or sit in adjacent ones. An axis has at most
     * 1 + 2 sqrt(n) cells (wider cells stay correct); positions outside
     * the region clamp into the border cells. The sort is stable:
     * indices ascend within a cell. Panics, naming the index, on a
     * non-finite position. Storage is reused from one build to the next.
     */
    void build(const Rect &region, double min_edge,
               const std::vector<Vec2> &positions);

    int cols() const { return cols_; }
    int rows() const { return rows_; }
    /** Point indices in cell order: by row, column, then index. */
    const std::vector<std::int32_t> &order() const { return order_; }

    /**
     * Calls @p visit(first, last) once per row of the 3x3 cell
     * neighbourhood of point @p i: order()[first .. last) holds the
     * points of that row's (up to three) cells.
     */
    template <class Visit>
    void forEachNeighbourRow(std::size_t i, Visit &&visit) const;

    /**
     * Calls @p visit(i, j) once per pair i < j in the same or adjacent
     * cells, by ascending i, then ascending j.
     */
    template <class Visit>
    void forEachNearPair(Visit &&visit) const;

    /**
     * Indices of the @p k points nearest to @p center (Euclidean; fewer
     * if fewer were binned), nearest first, ties to the lower index.
     * Walks rings of cells outward until the k-th best is strictly
     * nearer than any unvisited cell: O(neighbourhood), not O(n).
     */
    std::vector<std::int32_t> kNearest(Vec2 center, int k) const;

  private:
    int cellAt(Vec2 p) const;

    Rect region_;
    double cellW_ = 0.0;
    double cellH_ = 0.0;
    int cols_ = 1;
    int rows_ = 1;
    std::vector<std::int32_t> cellOf_;
    std::vector<std::int32_t> cellStart_;
    std::vector<std::int32_t> order_;
    std::vector<Vec2> points_; ///< Positions in cell order.
};

template <class Visit>
void
CellList::forEachNeighbourRow(std::size_t i, Visit &&visit) const
{
    const int cx = cellOf_[i] % cols_;
    const int cy = cellOf_[i] / cols_;
    const int x0 = std::max(cx - 1, 0);
    const int x1 = std::min(cx + 1, cols_ - 1);
    for (int y = std::max(cy - 1, 0); y <= std::min(cy + 1, rows_ - 1); ++y)
        visit(cellStart_[y * cols_ + x0], cellStart_[y * cols_ + x1 + 1]);
}

template <class Visit>
void
CellList::forEachNearPair(Visit &&visit) const
{
    std::vector<std::int32_t> partners;
    for (std::size_t i = 0; i < cellOf_.size(); ++i) {
        partners.clear();
        forEachNeighbourRow(i, [&](std::int32_t first, std::int32_t last) {
            for (std::int32_t k = first; k < last; ++k)
                if (static_cast<std::size_t>(order_[k]) > i)
                    partners.push_back(order_[k]);
        });
        std::sort(partners.begin(), partners.end());
        for (const std::int32_t j : partners)
            visit(i, static_cast<std::size_t>(j));
    }
}

} // namespace qplacer

#endif // QPLACER_GEOMETRY_CELL_LIST_HPP
