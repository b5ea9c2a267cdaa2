#include "legal/integration.hpp"

#include <algorithm>

#include "freq/spectrum.hpp"
#include "legal/spiral.hpp"
#include "math/union_find.hpp"
#include "util/logging.hpp"

namespace qplacer {

namespace {

/**
 * Max gap (um) between padded rects that counts as adjacent for
 * cluster connectivity. Covers one occupancy cell plus diagonal corner
 * gaps, so snapped layouts cluster robustly.
 */
constexpr double kAdjacencyTolUm = 150.0;

/** Move/swap repair passes over all resonators. */
constexpr int kMaxRounds = 8;

/** True if two instances' padded rects are within kAdjacencyTolUm. */
bool
adjacent(const Instance &a, const Instance &b)
{
    return a.paddedRect().gap(b.paddedRect()) <= kAdjacencyTolUm;
}

} // namespace

bool
tauClean(const Netlist &netlist, const OccupancyGrid &grid,
         const HotspotParams &rule, const Instance &inst, Vec2 center,
         std::vector<std::int32_t> &scratch, int ignore_a, int ignore_b)
{
    const Rect probe =
        Rect::fromCenter(center, inst.paddedWidth(), inst.paddedHeight())
            .inflated(rule.adjacencyTolUm);
    grid.ownersIn(probe, scratch);
    for (std::int32_t other : scratch) {
        if (other == inst.id || other == ignore_a || other == ignore_b)
            continue;
        const Instance &o = netlist.instance(other);
        if (mayCollide(inst.freqHz, inst.resonator, o.freqHz, o.resonator,
                       rule.detuningThresholdHz))
            return false;
    }
    return true;
}

IntegrationLegalizer::IntegrationLegalizer(HotspotParams rule,
                                           bool resonanceCheck)
    : rule_(rule), resonanceCheck_(resonanceCheck)
{
}

std::vector<std::vector<int>>
IntegrationLegalizer::clusters(const Netlist &netlist,
                               int resonator_id) const
{
    const Resonator &res = netlist.resonator(resonator_id);
    const std::size_t n = res.segments.size();
    UnionFind uf(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (adjacent(netlist.instance(res.segments[i]),
                         netlist.instance(res.segments[j]))) {
                uf.unite(i, j);
            }
        }
    }
    std::vector<std::vector<int>> out;
    std::vector<int> root_to_cluster(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t root = uf.find(i);
        if (root_to_cluster[root] < 0) {
            root_to_cluster[root] = static_cast<int>(out.size());
            out.emplace_back();
        }
        out[root_to_cluster[root]].push_back(res.segments[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const std::vector<int> &a, const std::vector<int> &b) {
                  return a.size() > b.size();
              });
    return out;
}

bool
IntegrationLegalizer::integrationLegal(const Netlist &netlist,
                                       int resonator_id) const
{
    const auto cls = clusters(netlist, resonator_id);
    if (netlist.resonator(resonator_id).segments.size() <= 1)
        return true;
    for (const auto &cluster : cls) {
        if (cluster.size() < 2)
            return false; // an isolated segment cannot be routed through
    }
    return true;
}

IntegrationLegalizer::Result
IntegrationLegalizer::run(Netlist &netlist, OccupancyGrid &grid,
                          const std::vector<int> &targets) const
{
    Result result;

    for (int r : targets) {
        if (!integrationLegal(netlist, r))
            ++result.initiallyBroken;
    }
    if (result.initiallyBroken == 0)
        return result;

    const double cell = grid.cellUm();

    for (int round = 0; round < kMaxRounds; ++round) {
        bool progress = false;
        for (int r : targets) {
            auto cls = clusters(netlist, r);
            if (cls.size() <= 1)
                continue;

            // Grow the largest cluster: bring every *singleton*
            // segment onto its frontier (multi-segment side clusters
            // already satisfy rilc).
            const std::vector<int> &core = cls.front();
            for (std::size_t c = 1; c < cls.size(); ++c) {
                if (cls[c].size() >= 2)
                    continue;
                for (int seg_id : cls[c]) {
                    Instance &seg = netlist.instance(seg_id);
                    const double w = seg.paddedWidth();
                    const double h = seg.paddedHeight();
                    bool placed = false;

                    // Candidate free slots adjacent to core members.
                    for (int member : core) {
                        const Instance &m = netlist.instance(member);
                        const Vec2 mp = m.pos;
                        const double step_x =
                            (m.paddedWidth() + w) / 2.0;
                        const double step_y =
                            (m.paddedHeight() + h) / 2.0;
                        const Vec2 cands[] = {
                            {mp.x + step_x, mp.y},
                            {mp.x - step_x, mp.y},
                            {mp.x, mp.y + step_y},
                            {mp.x, mp.y - step_y},
                        };
                        for (const Vec2 &cand : cands) {
                            const Vec2 snapped =
                                grid.snapCenter(cand, w, h);
                            // Snapping may push the slot off the
                            // frontier; verify adjacency survived.
                            Instance probe = seg;
                            probe.pos = snapped;
                            if (!adjacent(probe, m))
                                continue;
                            const Rect rect =
                                Rect::fromCenter(snapped, w, h);
                            if (!grid.canPlaceIgnoring(rect, seg_id))
                                continue;
                            if (resonanceCheck_ &&
                                !tauClean(netlist, grid, rule_, seg,
                                          snapped, ownerScratch_))
                                continue;
                            grid.release(
                                Rect::fromCenter(seg.pos, w, h), seg_id);
                            seg.pos = snapped;
                            grid.occupy(rect, seg_id);
                            ++result.moves;
                            placed = true;
                            break;
                        }
                        if (placed)
                            break;
                    }
                    if (placed) {
                        progress = true;
                        continue;
                    }

                    // Swap with a same-size foreign segment adjacent to
                    // the core.
                    for (int member : core) {
                        const Instance &m = netlist.instance(member);
                        const Rect frontier =
                            m.paddedRect().inflated(
                                kAdjacencyTolUm + cell);
                        for (std::int32_t cand_id :
                             grid.ownersIn(frontier)) {
                            if (cand_id == seg_id || cand_id == member)
                                continue;
                            Instance &cand = netlist.instance(cand_id);
                            if (cand.kind !=
                                    InstanceKind::ResonatorSegment ||
                                cand.resonator == seg.resonator)
                                continue;
                            if (cand.width != seg.width ||
                                cand.height != seg.height)
                                continue;
                            // tau checks at both destinations.
                            if (resonanceCheck_ &&
                                (!tauClean(netlist, grid, rule_, seg,
                                           cand.pos, ownerScratch_,
                                           cand_id) ||
                                 !tauClean(netlist, grid, rule_, cand,
                                           seg.pos, ownerScratch_,
                                           seg_id))) {
                                continue;
                            }
                            // Swap must not break the partner's own
                            // integration: try it and revert on failure.
                            std::swap(seg.pos, cand.pos);
                            if (!integrationLegal(netlist,
                                                  cand.resonator)) {
                                std::swap(seg.pos, cand.pos);
                                continue;
                            }
                            // Occupancy: footprints are identical, so
                            // swap ownership in place.
                            grid.release(
                                Rect::fromCenter(cand.pos, w, h), seg_id);
                            grid.release(
                                Rect::fromCenter(seg.pos, w, h), cand_id);
                            grid.occupy(
                                Rect::fromCenter(seg.pos, w, h), seg_id);
                            grid.occupy(
                                Rect::fromCenter(cand.pos, w, h),
                                cand_id);
                            ++result.swaps;
                            placed = true;
                            break;
                        }
                        if (placed)
                            break;
                    }
                    if (placed)
                        progress = true;
                }
                if (integrationLegal(netlist, r))
                    break;
            }
        }
        if (!progress)
            break;
    }

    // Final repair: rip up and contiguously re-place any resonator the
    // local moves/swaps could not fix.
    for (int r : targets) {
        if (!integrationLegal(netlist, r))
            replaceChain(netlist, grid, r);
    }

    for (int r : targets) {
        if (!integrationLegal(netlist, r))
            ++result.unintegrated;
    }
    result.repaired = result.initiallyBroken - result.unintegrated;
    return result;
}

bool
IntegrationLegalizer::replaceChain(Netlist &netlist, OccupancyGrid &grid,
                                   int r) const
{
    const Resonator &res = netlist.resonator(r);

    // Anchor at the largest surviving cluster's centroid.
    const auto cls = clusters(netlist, r);
    Vec2 anchor;
    for (int seg : cls.front())
        anchor += netlist.instance(seg).pos;
    anchor = anchor / static_cast<double>(cls.front().size());

    // Rip up.
    for (int id : res.segments) {
        const Instance &seg = netlist.instance(id);
        grid.release(Rect::fromCenter(seg.pos, seg.paddedWidth(),
                                      seg.paddedHeight()),
                     id);
    }

    // Re-place as one chain, each segment spiraling from its
    // predecessor; tau-checked first, plain-nearest fallback.
    Vec2 prev = anchor;
    for (int id : res.segments) {
        Instance &seg = netlist.instance(id);
        const double w = seg.paddedWidth();
        const double h = seg.paddedHeight();
        const bool first = (id == res.segments.front());
        auto near_prev = [&](Vec2 center) {
            if (first)
                return true;
            const Rect a = Rect::fromCenter(center, w, h);
            const Rect b = Rect::fromCenter(prev, w, h);
            return a.gap(b) <= kAdjacencyTolUm;
        };
        auto tau_ok = [&](Vec2 center) {
            return !resonanceCheck_ ||
                   tauClean(netlist, grid, rule_, seg, center,
                            ownerScratch_);
        };
        const int radius =
            static_cast<int>(12.0 * w / grid.cellUm());
        // Prefer slots that are both chain-adjacent and tau-clean,
        // then tau-clean (never trade a hotspot for integration),
        // then anything nearby.
        std::optional<Vec2> spot = spiralSearchFiltered(
            grid, prev, w, h,
            [&](Vec2 c) { return near_prev(c) && tau_ok(c); }, radius);
        if (!spot && resonanceCheck_)
            spot = spiralSearchFiltered(grid, prev, w, h, tau_ok, radius);
        if (!spot)
            spot = spiralSearch(grid, prev, w, h);
        if (!spot) {
            // Region exhausted: put it back where it was.
            spot = seg.pos;
        }
        seg.pos = *spot;
        grid.occupy(Rect::fromCenter(*spot, w, h), id);
        prev = *spot;
    }
    return integrationLegal(netlist, r);
}

} // namespace qplacer
