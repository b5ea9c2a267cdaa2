#include "legal/legalizer.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>

#include "geometry/cell_list.hpp"
#include "legal/flow_refine.hpp"
#include "legal/spiral.hpp"
#include "legal/tetris.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace qplacer {

Legalizer::Legalizer(LegalizerParams params)
    : params_(params)
{
}

bool
Legalizer::attempt(Netlist &netlist, std::vector<char> is_movable,
                   LegalizeResult &result, const CancelToken *cancel) const
{
    result = LegalizeResult{};
    auto cancelled = [&] {
        result.cancelled = cancel && cancel->cancelled();
        return result.cancelled;
    };

    // Multi-die: resolve the partition against the *current* region
    // (it may have grown between attempts) and reserve the cut gaps
    // before anything is placed -- no footprint can straddle a cut.
    DiePlan plan;
    const bool multi = netlist.dieSpec().active();
    if (multi)
        plan = DiePlan::resolve(netlist.dieSpec(), netlist.region());
    auto fresh_grid = [&] {
        OccupancyGrid grid(netlist.region(), params_.cellUm);
        if (multi)
            for (const Rect &band : plan.gapBands())
                grid.block(band);
        return grid;
    };

    // Fixed instances enter the grid as obstacles at their current --
    // already legal -- positions. A conflicting fixed footprint is
    // possible when the delta resized instances under a stale prior
    // (or a stale fixed instance overlaps a cut gap); demote it to
    // movable (whole resonator for segments, so chains stay whole) and
    // rebuild the occupancy. Conflicts are rare, so the restart loop
    // almost never iterates.
    OccupancyGrid grid = fresh_grid();
    for (int restart = 0;; ++restart) {
        int conflict = -1;
        for (int i = 0; i < netlist.numInstances(); ++i) {
            if (is_movable[i])
                continue;
            const Instance &inst = netlist.instance(i);
            const Rect rect = Rect::fromCenter(
                inst.pos, inst.paddedWidth(), inst.paddedHeight());
            if (!grid.canPlace(rect)) {
                conflict = i;
                break;
            }
            grid.occupy(rect, i);
        }
        if (conflict < 0)
            break;
        if (restart >= netlist.numInstances())
            return false; // every demotion shrinks the fixed set; bail
        const Instance &inst = netlist.instance(conflict);
        if (inst.kind == InstanceKind::ResonatorSegment &&
            inst.resonator >= 0) {
            for (int seg : netlist.resonator(inst.resonator).segments)
                is_movable[seg] = 1;
        } else {
            is_movable[conflict] = 1;
        }
        grid = fresh_grid();
    }

    // --- Stage 1: movable qubits (greedy spiral, central-first). ---
    Timer stage_timer;
    const Vec2 center = netlist.region().center();
    std::vector<int> movable_qubits;
    for (int q = 0; q < netlist.numQubits(); ++q)
        if (is_movable[q])
            movable_qubits.push_back(q);

    // Center distances precomputed once, not twice per comparison.
    std::vector<double> center_dist(netlist.numQubits(), 0.0);
    for (int q : movable_qubits)
        center_dist[q] = netlist.instance(q).pos.dist(center);
    std::vector<int> qubit_order = movable_qubits;
    std::sort(qubit_order.begin(), qubit_order.end(), [&](int a, int b) {
        if (center_dist[a] != center_dist[b])
            return center_dist[a] < center_dist[b];
        return a < b;
    });

    std::vector<Vec2> desired;
    desired.reserve(movable_qubits.size());
    for (int q : movable_qubits)
        desired.push_back(netlist.instance(q).pos);

    // The qubit's die is decided by its warm position; the spiral then
    // never legalizes it across a cut. Single-die: everything is die 0.
    const int num_dies = multi ? plan.spec.numDies() : 1;
    std::vector<int> die_of(netlist.numQubits(), 0);
    if (multi)
        for (int q : movable_qubits)
            die_of[q] = plan.dieAt(netlist.instance(q).pos);

    for (int q : qubit_order) {
        Instance &inst = netlist.instance(q);
        const double w = inst.paddedWidth();
        const double h = inst.paddedHeight();
        std::function<bool(Vec2)> in_die; // single-die: any free slot
        if (multi) {
            const Rect die = plan.dies[die_of[q]].inflated(1e-6);
            in_die = [die, w, h](Vec2 c) {
                return die.containsRect(Rect::fromCenter(c, w, h));
            };
        }
        const std::optional<Vec2> spot =
            spiralSearchFiltered(grid, inst.pos, w, h, in_die);
        if (!spot)
            return false;
        inst.pos = *spot;
        grid.occupy(Rect::fromCenter(*spot, w, h), q);
    }
    result.spiralSeconds = stage_timer.seconds();

    // --- Stage 1b: min-cost-flow refinement over the movable sites. ---
    // Sites and demands are pooled per die, so the assignment cannot
    // migrate a qubit across a cut.
    stage_timer.reset();
    if (params_.flowRefine) {
        FlowRefineOptions options;
        options.sparseThreshold = params_.flowSparseThreshold;
        options.neighbors = params_.flowSparseNeighbors;
        for (int d = 0; d < num_dies; ++d) {
            std::vector<std::size_t> group;
            for (std::size_t i = 0; i < movable_qubits.size(); ++i)
                if (die_of[movable_qubits[i]] == d)
                    group.push_back(i);
            if (group.size() < 2)
                continue;
            std::vector<Vec2> want, sites;
            want.reserve(group.size());
            sites.reserve(group.size());
            for (std::size_t i : group) {
                want.push_back(desired[i]);
                sites.push_back(netlist.instance(movable_qubits[i]).pos);
            }
            const std::vector<int> assign =
                refineAssignment(want, sites, options);
            for (std::size_t i = 0; i < group.size(); ++i)
                netlist.instance(movable_qubits[group[i]]).pos =
                    sites[assign[i]];
        }
    }
    for (std::size_t i = 0; i < movable_qubits.size(); ++i) {
        result.qubitDisplacementUm +=
            desired[i].dist(netlist.instance(movable_qubits[i]).pos);
    }
    result.flowRefineSeconds = stage_timer.seconds();

    // --- Stage 2: movable segments (Tetris). ---
    if (cancelled())
        return true;
    stage_timer.reset();
    std::vector<int> movable_res;
    for (const Resonator &res : netlist.resonators())
        if (!res.segments.empty() && is_movable[res.segments.front()])
            movable_res.push_back(res.id);
    if (!tetrisLegalizeSegments(netlist, grid, params_.integrationParams,
                                result.segmentDisplacementUm,
                                movable_res)) {
        return false;
    }
    result.tetrisSeconds = stage_timer.seconds();

    // --- Stage 3: integration repair, scoped to the moved chains. ---
    if (cancelled())
        return true;
    stage_timer.reset();
    if (params_.integration && !movable_res.empty()) {
        IntegrationLegalizer integrator(params_.integrationParams);
        result.integration = integrator.run(netlist, grid, movable_res);
    }
    result.integrationSeconds = stage_timer.seconds();
    return true;
}

LegalizeResult
Legalizer::legalize(Netlist &netlist, const CancelToken *cancel) const
{
    std::vector<int> every_instance(netlist.numInstances());
    std::iota(every_instance.begin(), every_instance.end(), 0);
    return legalizeScoped(netlist, every_instance, cancel);
}

LegalizeResult
Legalizer::legalizeScoped(Netlist &netlist, const std::vector<int> &movable,
                          const CancelToken *cancel) const
{
    // Closure: a resonator with any movable segment moves as a whole,
    // so the scoped Tetris scan re-drops complete chains.
    std::vector<char> is_movable(netlist.numInstances(), 0);
    for (int id : movable)
        if (id >= 0 && id < netlist.numInstances())
            is_movable[id] = 1;
    for (const Resonator &res : netlist.resonators())
        if (std::any_of(res.segments.begin(), res.segments.end(),
                        [&](int seg) { return is_movable[seg] != 0; }))
            for (int seg : res.segments)
                is_movable[seg] = 1;

    // Snapshot the input so retries with a larger region restart the
    // movable set from the same positions.
    std::vector<Vec2> snapshot(netlist.numInstances());
    for (int i = 0; i < netlist.numInstances(); ++i)
        snapshot[i] = netlist.instance(i).pos;
    const Rect original_region = netlist.region();

    LegalizeResult result;
    for (int attempt_idx = 0; attempt_idx < 4; ++attempt_idx) {
        if (cancel && cancel->cancelled()) {
            result.cancelled = true;
            return result;
        }
        if (attempt_idx > 0) {
            // The region was too fragmented: grow it by 8% per retry
            // (A_mer is measured from the final bounding box, so slack
            // here does not inflate the reported area).
            const double grow =
                1.0 + 0.08 * static_cast<double>(attempt_idx);
            Rect region = original_region;
            region.hi.x = region.lo.x + original_region.width() * grow;
            region.hi.y = region.lo.y + original_region.height() * grow;
            netlist.setRegion(region);
            // Fixed instances keep their legal sites.
            for (int i = 0; i < netlist.numInstances(); ++i)
                if (is_movable[i])
                    netlist.instance(i).pos = snapshot[i];
            warn(str("Legalizer: retrying with region grown ",
                     (grow - 1.0) * 100.0, "%"));
        }
        if (attempt(netlist, is_movable, result, cancel)) {
            if (result.cancelled)
                return result;
            result.legal = isLegal(netlist);
            if (!result.legal)
                warn("Legalizer: layout has residual overlaps");
            return result;
        }
    }
    fatal("Legalizer: could not legalize even after region expansion");
}

bool
Legalizer::isLegal(const Netlist &netlist, double tol_um)
{
    const auto &instances = netlist.instances();
    const Rect region = netlist.region().inflated(tol_um);

    double max_extent = 0.0;
    std::vector<Vec2> positions;
    positions.reserve(instances.size());
    for (const Instance &inst : instances) {
        if (!region.containsRect(inst.paddedRect()))
            return false;
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
        positions.push_back(inst.pos);
    }
    // Overlapping padded footprints have centres less than max_extent
    // apart on both axes, so they share a cell or sit in adjacent ones.
    CellList cells;
    cells.build(netlist.region(), max_extent, positions);
    bool legal = true;
    cells.forEachNearPair([&](std::size_t a, std::size_t b) {
        const Rect overlap =
            instances[a].paddedRect().intersect(instances[b].paddedRect());
        if (!overlap.empty() && overlap.width() > tol_um &&
            overlap.height() > tol_um)
            legal = false;
    });
    return legal;
}

} // namespace qplacer
