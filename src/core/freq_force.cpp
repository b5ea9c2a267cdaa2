#include "core/freq_force.hpp"

#include <algorithm>
#include <cmath>

#include "freq/spectrum.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

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

double
FreqForceModel::evaluate(const std::vector<Vec2> &positions,
                         std::vector<Vec2> &gradient) const
{
    if (positions.size() != charge_.size())
        panic("FreqForceModel::evaluate: position count mismatch");
    const std::size_t n = positions.size();
    gradient.resize(n);
    // Cells at least maxRadius_ wide: every in-range pair lies in the
    // same or an adjacent cell.
    cells_.build(netlist_.region(), maxRadius_, positions);
    const std::vector<std::int32_t> &order = cells_.order();
    binned_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const auto i = static_cast<std::size_t>(order[k]);
        binned_[k] = {positions[i], charge_[i], freq_[i], order[k],
                      group_[i]};
    }

    // Force of pair (i, j), i < j: @p term is added to i's gradient and
    // subtracted from j's. False when the pair is out of range.
    auto pairTerm = [&](std::size_t i, std::size_t j, Vec2 &term,
                        double &potential) {
        const double s = charge_[i] * charge_[j];
        const double radius = cutoffFactor_ * (charge_[i] + charge_[j]);
        Vec2 delta = positions[i] - positions[j];
        double d = delta.norm();
        if (d >= radius)
            return false; // already spatially isolated
        // Clamp so coincident instances still get a finite, directed
        // push (deterministic tie-break direction from the indices).
        const double d_min = 0.25 * (charge_[i] + charge_[j]);
        if (d < 1e-9) {
            const double ang =
                0.7548776662 * static_cast<double>(i * 31 + j);
            delta = Vec2(std::cos(ang), std::sin(ang)) * d_min;
            d = d_min;
        } else if (d < d_min) {
            delta = delta * (d_min / d);
            d = d_min;
        }
        potential = s * (1.0 / d - 1.0 / radius);
        // dU/dx_i = -s (x_i - x_j) / d^3.
        term = delta * (-s / (d * d * d));
        return true;
    };

    // The serial order: pairs (i, j > i) by ascending i, then j; each
    // adds its term to i and subtracts it from j. Instance i thus sees
    // its partners below i ascending, then those above i ascending.
    // A chunk owns the instances [begin, end) and writes only their
    // gradients. It first adds, per instance, the pairs whose lower
    // partner lies below begin (owned by an earlier chunk, which skips
    // that write), then walks its own pairs in serial order. Every
    // gradient thus gets the serial terms in the serial order.
    const int chunks =
        parallelChunkCount(pool_, n, ThreadPool::kGrainMedium);
    chunkScratch_.resize(static_cast<std::size_t>(chunks));
    for (ChunkScratch &cs : chunkScratch_)
        cs.potential.clear();
    parallelForChunks(
        pool_, n,
        [&](int chunk, std::size_t begin, std::size_t end) {
            ChunkScratch &cs =
                chunkScratch_[static_cast<std::size_t>(chunk)];
            std::vector<std::int32_t> &candidates = cs.candidates;
            cs.upStart.assign(1, 0);
            cs.up.clear();
            const auto lo = static_cast<std::int32_t>(begin);
            for (std::size_t i = begin; i < end; ++i) {
                // Near-resonant partners j > i or j < begin in the 3x3
                // cell neighbourhood. Candidates are compacted
                // branch-free: every one is written, only kept ones
                // advance count.
                const auto self = static_cast<std::int32_t>(i);
                std::size_t count = 0;
                cells_.forEachNeighbourRow(i, [&](std::int32_t first,
                                                  std::int32_t last) {
                    const auto row = static_cast<std::size_t>(last - first);
                    candidates.resize(std::max(candidates.size(), count + row));
                    for (std::int32_t k = first; k < last; ++k) {
                        const Binned &b = binned_[k];
                        // A leg at or beyond the radius puts the pair out
                        // of range (hypot is never below either leg).
                        const double radius =
                            cutoffFactor_ * (charge_[i] + b.charge);
                        const bool keep =
                            ((b.index > self) | (b.index < lo)) &
                            (std::abs(positions[i].x - b.pos.x) < radius) &
                            (std::abs(positions[i].y - b.pos.y) < radius) &
                            isResonant(freq_[i], b.freq, thresholdHz_) &
                            !(group_[i] >= 0 && group_[i] == b.group);
                        candidates[count] = b.index;
                        count += keep;
                    }
                });
                std::sort(candidates.begin(), candidates.begin() + count);

                // Partners below begin come first in the sorted list.
                Vec2 g;
                std::size_t c = 0;
                for (; c < count && candidates[c] < lo; ++c) {
                    Vec2 term;
                    double potential;
                    if (pairTerm(candidates[c], i, term, potential))
                        g -= term;
                }
                gradient[i] = g;
                cs.up.insert(cs.up.end(), candidates.begin() + c,
                             candidates.begin() + count);
                cs.upStart.push_back(static_cast<std::int32_t>(cs.up.size()));
            }

            for (std::size_t i = begin; i < end; ++i) {
                for (std::int32_t e = cs.upStart[i - begin];
                     e < cs.upStart[i - begin + 1]; ++e) {
                    const auto j = static_cast<std::size_t>(cs.up[e]);
                    Vec2 term;
                    double potential;
                    if (!pairTerm(i, j, term, potential))
                        continue;
                    cs.potential.push_back(potential);
                    gradient[i] += term;
                    if (j < end)
                        gradient[j] -= term;
                }
            }
        },
        ThreadPool::kGrainMedium);

    // The potential sums in serial pair order: chunk by chunk.
    double total = 0.0;
    for (const ChunkScratch &cs : chunkScratch_)
        for (double potential : cs.potential)
            total += potential;
    return total;
}

} // namespace qplacer
