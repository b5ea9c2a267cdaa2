/**
 * @file
 * Uniform bin grid over the placement region.
 *
 * The density force rasterizes instance areas into this grid; the
 * legalizers reuse it as an occupancy map. Bin counts are powers of two so
 * the spectral Poisson solver can run FFT-based transforms directly on the
 * density map.
 *
 * splat() and sample() weight a bin by its overlap with a footprint,
 * and that overlap is separable: the row overlap dy is computed once
 * per row and the column overlap dx per column, and the weight is
 * dx*dy when both are positive, else 0. These are the operands, in the
 * order, of binRect(ix, iy).overlapArea(r), so the weights are bitwise
 * equal to the per-bin rectangle intersection (tests/geometry/
 * test_bin_grid.cpp holds them to memcmp equality).
 */

#ifndef QPLACER_GEOMETRY_BIN_GRID_HPP
#define QPLACER_GEOMETRY_BIN_GRID_HPP

#include <algorithm>
#include <vector>

#include "geometry/rect.hpp"

namespace qplacer {

/** 2-D grid of double-valued bins covering a rectangular region. */
class BinGrid
{
  public:
    /**
     * @param region  Placement region covered by the grid.
     * @param nx, ny  Bin counts (must be positive).
     */
    BinGrid(Rect region, int nx, int ny);

    int nx() const { return nx_; }
    int ny() const { return ny_; }
    const Rect &region() const { return region_; }
    double binWidth() const { return binW_; }
    double binHeight() const { return binH_; }
    double binArea() const { return binW_ * binH_; }

    /** Reset every bin to zero. */
    void clear();

    /** Value of bin (ix, iy); bounds-checked via panic. */
    double at(int ix, int iy) const;

    /** Mutable access to bin (ix, iy). */
    double &at(int ix, int iy);

    /** Row-major flat buffer (y-major: index = iy*nx + ix). */
    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    /** Bin x-index containing coordinate @p x, clamped into range. */
    int clampX(double x) const;

    /** Bin y-index containing coordinate @p y, clamped into range. */
    int clampY(double y) const;

    /** Rectangle of bin (ix, iy). */
    Rect binRect(int ix, int iy) const;

    /** Center of bin (ix, iy). */
    Vec2 binCenter(int ix, int iy) const;

    /**
     * A rect as splat() and sample() see it: shifted into the region so
     * no charge is lost (clipped if larger than the region), with the
     * range of bins it overlaps.
     */
    struct Footprint
    {
        Rect rect;   ///< The clamped rect; empty() if nothing is left.
        int ix0 = 0; ///< Overlapped bins: columns ix0..ix1 and rows
        int ix1 = 0; ///< iy0..iy1, inclusive (unset when rect is
        int iy0 = 0; ///< empty).
        int iy1 = 0;
    };

    /** The footprint of @p rect on this grid. */
    Footprint footprint(const Rect &rect) const;

    /**
     * Add @p amount distributed over the bins overlapping @p rect,
     * proportionally to overlap area. Parts of @p rect outside the region
     * are clamped onto the boundary bins so no charge is lost.
     */
    void splat(const Rect &rect, double amount);

    /**
     * splat() of a precomputed footprint, writing only rows
     * [@p row_begin, @p row_end). A bin's share depends only on the bin
     * and the footprint, so splatting band by band writes the same
     * values as splatting whole.
     */
    void splat(const Footprint &fp, double amount, int row_begin,
               int row_end);

    /**
     * Area-weighted averages over @p rect of two maps laid out like
     * this grid (row-major, nx*ny values each), e.g. both components of
     * the electric field over an instance footprint. One walk over the
     * overlapped bins computes each bin weight once; the x average goes
     * to the result's x, the y average to its y.
     */
    Vec2 sample(const Rect &rect, const double *mapX,
                const double *mapY) const;

    /** sample() over a precomputed footprint. */
    Vec2 sample(const Footprint &fp, const double *mapX,
                const double *mapY) const;

    /** Sum over all bins. */
    double total() const;

  private:
    /**
     * Overlap of column @p ix with @p r along x: the width of
     * binRect(ix, iy).intersect(r), same operands, same order.
     */
    double
    overlapX(int ix, const Rect &r) const
    {
        const double x0 = region_.lo.x + ix * binW_;
        return std::min(x0 + binW_, r.hi.x) - std::max(x0, r.lo.x);
    }

    /** Overlap of row @p iy with @p r along y, ditto. */
    double
    overlapY(int iy, const Rect &r) const
    {
        const double y0 = region_.lo.y + iy * binH_;
        return std::min(y0 + binH_, r.hi.y) - std::max(y0, r.lo.y);
    }

    /** Clamp @p r into the region, preserving area by shifting. */
    Rect clampRect(const Rect &r) const;

    Rect region_;
    int nx_;
    int ny_;
    double binW_;
    double binH_;
    std::vector<double> data_;
};

} // namespace qplacer

#endif // QPLACER_GEOMETRY_BIN_GRID_HPP
