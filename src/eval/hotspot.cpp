#include "eval/hotspot.hpp"

#include <algorithm>

#include "eval/area.hpp"
#include "freq/spectrum.hpp"
#include "geometry/cell_list.hpp"

namespace qplacer {

bool
isHotspotPair(const Instance &a, const Instance &b,
              const HotspotParams &params, double &gapUm)
{
    if (a.resonator >= 0 && a.resonator == b.resonator)
        return false; // same physical resonator
    if (!isResonant(a.freqHz, b.freqHz, params.detuningThresholdHz))
        return false;
    gapUm = a.paddedRect().gap(b.paddedRect());
    return gapUm <= params.adjacencyTolUm;
}

HotspotReport
analyzeHotspots(const Netlist &netlist, HotspotParams params)
{
    HotspotReport report;
    const auto &instances = netlist.instances();
    if (instances.empty())
        return report;

    double max_extent = 0.0;
    std::vector<Vec2> positions;
    positions.reserve(instances.size());
    for (const Instance &inst : instances) {
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
        positions.push_back(inst.pos);
    }

    // Cells at least `reach` wide put every pair within reach in the
    // same or adjacent cells; pairs arrive by ascending (a, b).
    const double reach = max_extent + params.adjacencyTolUm;
    CellList cells;
    cells.build(netlist.region(), reach, positions);
    cells.forEachNearPair([&](std::size_t a, std::size_t b) {
        const Instance &inst = instances[a];
        const Instance &o = instances[b];
        double gap = 0.0;
        if ((o.pos - inst.pos).normSq() > reach * reach ||
            !isHotspotPair(inst, o, params, gap))
            return;

        // Shared-boundary length: inflate by half the tolerance so
        // barely-separated footprints still register a length.
        const double half_tol = params.adjacencyTolUm / 2.0;
        report.pairs.push_back(
            {inst.id, o.id, gap, inst.pos.dist(o.pos),
             inst.paddedRect().inflated(half_tol).overlapLength(
                 o.paddedRect().inflated(half_tol))});
    });

    // P_h (Eq. 18), expressed as a percentage.
    const AreaMetrics area = computeArea(netlist);
    double acc = 0.0;
    for (const HotspotPair &p : report.pairs)
        acc += p.overlapLenUm * p.distUm;
    report.phPercent =
        area.apolyUm2 > 0.0 ? 100.0 * acc / area.apolyUm2 : 0.0;

    // Impacted qubits: endpoints of violating qubit pairs, plus every
    // qubit hanging off a violating resonator (crosstalk propagates
    // through the coupler, Section VI-B).
    std::vector<char> impacted(netlist.numQubits(), 0);
    auto mark_instance = [&](int inst_id) {
        const Instance &inst = instances[inst_id];
        if (inst.kind == InstanceKind::Qubit) {
            impacted[inst.id] = 1;
        } else {
            const Resonator &res = netlist.resonator(inst.resonator);
            impacted[res.qubitA] = 1;
            impacted[res.qubitB] = 1;
        }
    };
    for (const HotspotPair &p : report.pairs) {
        mark_instance(p.a);
        mark_instance(p.b);
    }
    for (int q = 0; q < netlist.numQubits(); ++q) {
        if (impacted[q])
            report.impactedQubits.push_back(q);
    }
    return report;
}

} // namespace qplacer
