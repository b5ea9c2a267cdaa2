#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "circuits/benchmarks.hpp"
#include "core/wirelength.hpp"
#include "eval/area.hpp"
#include "eval/evaluator.hpp"
#include "eval/hotspot.hpp"
#include "pipeline/context.hpp"
#include "pipeline/stage.hpp"
#include "topology/factory.hpp"

namespace perfbench {

using namespace qplacer;

Topology
deviceNamed(const std::string &spec)
{
    Topology topo;
    std::string error;
    if (!resolveTopologySpec(spec, topo, &error))
        throw std::runtime_error("bad device " + spec + ": " + error);
    return topo;
}

Netlist
buildUnplaced(const Topology &topo, const FlowParams &params)
{
    FlowContext ctx;
    ctx.topo = &topo;
    ctx.params = params.normalized();
    ctx.logging = false;
    std::vector<std::unique_ptr<FlowStage>> stages;
    stages.push_back(makeAssignStage());
    stages.push_back(makeBuildStage());
    runStages(ctx, stages);
    if (!ctx.result.status.ok())
        throw std::runtime_error("assign/build failed on " + topo.name +
                                 ": " + ctx.result.status.message);
    return std::move(ctx.result.netlist);
}

Rect
legalRegionBound(const Rect &sized)
{
    constexpr double kMaxGrowth = 1.0 + 0.08 * 3;
    return Rect(sized.lo.x, sized.lo.y,
                sized.lo.x + sized.width() * kMaxGrowth,
                sized.lo.y + sized.height() * kMaxGrowth);
}

std::string
checkQubitFootprints(const Netlist &placed, const Rect &bound)
{
    constexpr double kEps = 1e-6; // um; touching edges are legal
    std::vector<Rect> qubits;
    for (const Instance &inst : placed.instances()) {
        if (inst.kind != InstanceKind::Qubit)
            continue;
        const Rect r = inst.paddedRect();
        if (r.lo.x < bound.lo.x - kEps || r.lo.y < bound.lo.y - kEps ||
            r.hi.x > bound.hi.x + kEps || r.hi.y > bound.hi.y + kEps)
            return "qubit " + std::to_string(inst.qubit) +
                   " footprint leaves the region";
        qubits.push_back(r);
    }
    std::sort(qubits.begin(), qubits.end(),
              [](const Rect &a, const Rect &b) { return a.lo.x < b.lo.x; });
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        for (std::size_t j = i + 1; j < qubits.size(); ++j) {
            if (qubits[j].lo.x >= qubits[i].hi.x - kEps)
                break;
            const double dy = std::min(qubits[i].hi.y, qubits[j].hi.y) -
                              std::max(qubits[i].lo.y, qubits[j].lo.y);
            if (dy > kEps)
                return "two padded qubit footprints overlap";
        }
    }
    return "";
}

bool
samePositions(const Netlist &a, const Netlist &b)
{
    if (a.numInstances() != b.numInstances())
        return false;
    for (int i = 0; i < a.numInstances(); ++i) {
        const Vec2 p = a.instance(i).pos;
        const Vec2 q = b.instance(i).pos;
        if (std::memcmp(&p, &q, sizeof(Vec2)) != 0)
            return false;
    }
    return true;
}

namespace {

/** The benchmark the CLI's JSON report scores a device with. */
const char *
fidelityBenchmarkFor(const Topology &topo)
{
    if (topo.numQubits() >= 16)
        return "bv-16";
    if (topo.numQubits() >= 9)
        return "bv-9";
    return "bv-4";
}

} // namespace

Quality
measureQuality(const Topology &topo, const Netlist &placed,
               const FlowParams &params)
{
    const FlowParams norm = params.normalized();
    std::vector<Vec2> positions;
    positions.reserve(placed.instances().size());
    for (const Instance &inst : placed.instances())
        positions.push_back(inst.pos);

    EvaluatorParams eparams;
    eparams.numSubsets = 8; // as qplacer_cli --report json
    eparams.hotspot = norm.hotspot;
    const Evaluator evaluator(eparams);

    Quality q;
    q.hpwlUm = WirelengthModel(placed, 1.0).hpwl(positions);
    q.phPercent = analyzeHotspots(placed, norm.hotspot).phPercent;
    q.areaMm2 = computeArea(placed).amerUm2 * 1e-6;
    q.fidelity =
        evaluator
            .evaluate(topo, placed, makeBenchmark(fidelityBenchmarkFor(topo)))
            .meanFidelity;
    return q;
}

void
reportQuality(RunReport &report, const std::vector<Quality> &layouts)
{
    std::vector<double> hpwl, ph, fidelity, area;
    for (const Quality &q : layouts) {
        hpwl.push_back(q.hpwlUm);
        ph.push_back(q.phPercent);
        fidelity.push_back(q.fidelity);
        area.push_back(q.areaMm2);
    }
    const std::size_t n = layouts.size();
    report.set("hpwl_um.gmean", geomean(hpwl), "um", n,
               "final legalized layouts");
    report.set("fidelity.gmean", geomean(fidelity), "prob", n,
               "Evaluator BV proxy, 8 subsets");
    report.set("area_mm2.gmean", geomean(area), "mm2", n,
               "minimum enclosing rectangle");
    report.set("eval.hotspot_pct.mean", mean(ph), "%", n, "P_h");
}

} // namespace perfbench
