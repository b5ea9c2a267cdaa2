#include "core/density.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

DensityModel::DensityModel(const Netlist &netlist, int bins,
                           double target_density, ThreadPool *pool)
    : netlist_(netlist),
      grid_(netlist.region(), bins, bins),
      solver_(bins, bins, netlist.region().width(),
              netlist.region().height(), pool),
      targetDensity_(target_density),
      pool_(pool)
{
    if (target_density <= 0.0 || target_density > 1.0)
        fatal("DensityModel: target density must be in (0, 1]");
}

int
DensityModel::autoBinCount(int num_instances)
{
    // Roughly one bin per instance, clamped to [32, 256].
    int bins = 32;
    while (bins * bins < num_instances && bins < 256)
        bins *= 2;
    return bins;
}

void
DensityModel::evaluate(const std::vector<Vec2> &positions,
                       std::vector<Vec2> &gradient)
{
    const auto &instances = netlist_.instances();
    if (positions.size() != instances.size())
        panic("DensityModel::evaluate: position count mismatch");

    // Rasterize charges; the density map stores charge per bin. Each
    // footprint is clamped once, in parallel. The rows are then split
    // into one band per chunk; each band walks every footprint in
    // index order and splats only its own rows, so every bin gets the
    // serial splat's terms in the serial order.
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const Vec2 p = positions[i];
        if (!std::isfinite(p.x) || !std::isfinite(p.y))
            panic(str("DensityModel::evaluate: non-finite position of "
                      "instance ",
                      i));
    }
    footprints_.resize(instances.size());
    parallelFor(
        pool_, instances.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const Instance &inst = instances[i];
                footprints_[i] = grid_.footprint(Rect::fromCenter(
                    positions[i], inst.paddedWidth(), inst.paddedHeight()));
            }
        },
        ThreadPool::kGrainMedium);
    grid_.clear();
    parallelFor(
        instances.size() < ThreadPool::kGrainMedium ? nullptr : pool_,
        static_cast<std::size_t>(grid_.ny()),
        [&](std::size_t row_begin, std::size_t row_end) {
            for (std::size_t i = 0; i < instances.size(); ++i)
                grid_.splat(footprints_[i], instances[i].paddedArea(),
                            static_cast<int>(row_begin),
                            static_cast<int>(row_end));
        });

    // Overflow: charge above the per-bin capacity, summed in bin order
    // on one thread. The normalized map (charge / bin area) goes
    // straight into the solver's input, so the field scale is
    // resolution-independent.
    const std::size_t cells = grid_.data().size();
    const double capacity = targetDensity_ * grid_.binArea();
    double over = 0.0;
    double total_charge = 0.0;
    for (const double q : grid_.data()) {
        over += std::max(0.0, q - capacity);
        total_charge += q;
    }
    overflow_ = total_charge > 0.0 ? over / total_charge : 0.0;
    const double inv_bin_area = 1.0 / grid_.binArea();
    std::vector<double> &density = solver_.input();
    density.resize(cells);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                density[i] = grid_.data()[i] * inv_bin_area;
        },
        ThreadPool::kGrainFine);

    const PoissonSolver::Solution &field = solver_.solve();
    const double *ex = field.fieldX.data();
    const double *ey = field.fieldY.data();

    // Per-instance gradient: the field averaged over the footprint
    // (area-weighted over overlapped bins); d(energy)/dx = -q * xi_x,
    // so descending moves along the field.
    gradient.resize(positions.size());
    parallelFor(
        pool_, instances.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const double q = instances[i].paddedArea();
                const Vec2 xi = grid_.sample(footprints_[i], ex, ey);
                gradient[i].x = -q * xi.x;
                gradient[i].y = -q * xi.y;
            }
        },
        ThreadPool::kGrainMedium);
}

} // namespace qplacer
