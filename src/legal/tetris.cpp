#include "legal/tetris.hpp"

#include <algorithm>

#include "legal/spiral.hpp"
#include "util/logging.hpp"

namespace qplacer {

bool
tetrisLegalizeSegments(Netlist &netlist, OccupancyGrid &grid,
                       const HotspotParams &rule, bool resonance_check,
                       double &displacement_um,
                       const std::vector<int> &resonators)
{
    displacement_um = 0.0;

    // Resonators are processed left to right (Tetris scan order), and
    // each resonator's segments are dropped in chain order, every
    // segment spiraling out from its predecessor. This preserves the
    // global placement's ordering while keeping chains contiguous, so
    // the integration pass only has to repair stragglers.
    std::vector<int> res_order = resonators;
    std::vector<double> centroid_x(netlist.resonators().size(), 0.0);
    for (const Resonator &res : netlist.resonators()) {
        double acc = 0.0;
        for (int seg : res.segments)
            acc += netlist.instance(seg).pos.x;
        centroid_x[res.id] = acc / static_cast<double>(res.segments.size());
    }
    std::sort(res_order.begin(), res_order.end(), [&](int a, int b) {
        if (centroid_x[a] != centroid_x[b])
            return centroid_x[a] < centroid_x[b];
        return a < b;
    });

    // Probe scratch shared across every tau probe: the resonance check
    // runs once per spiral candidate, so a per-probe std::vector
    // allocation used to dominate dense neighbourhoods.
    std::vector<std::int32_t> owner_scratch;

    for (int r : res_order) {
        const Resonator &res = netlist.resonator(r);
        Vec2 anchor;
        bool have_anchor = false;
        for (int id : res.segments) {
            Instance &seg = netlist.instance(id);
            const double w = seg.paddedWidth();
            const double h = seg.paddedHeight();
            // First segment drops near its global spot; the rest chain
            // off their predecessor.
            const Vec2 desired = have_anchor ? anchor : seg.pos;

            std::optional<Vec2> spot;
            if (resonance_check) {
                // tau-checked search first, within a bounded radius so
                // a hopeless neighbourhood degrades gracefully.
                auto tau_ok = [&](Vec2 center) {
                    return tauClean(netlist, grid, rule, seg, center,
                                    owner_scratch);
                };
                const int radius = static_cast<int>(
                    12.0 * seg.paddedWidth() / grid.cellUm());
                spot = spiralSearchFiltered(grid, desired, w, h, tau_ok,
                                            radius);
            }
            if (!spot)
                spot = spiralSearch(grid, desired, w, h);
            if (!spot)
                return false; // region too fragmented; caller expands
            displacement_um += seg.pos.dist(*spot);
            seg.pos = *spot;
            grid.occupy(Rect::fromCenter(*spot, w, h), id);
            anchor = *spot;
            have_anchor = true;
        }
    }
    return true;
}

} // namespace qplacer
