#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/density.hpp"
#include "core/freq_force.hpp"
#include "core/nesterov.hpp"
#include "core/objective.hpp"
#include "core/placer.hpp"
#include "core/poisson.hpp"
#include "core/wirelength.hpp"
#include "freq/collision_map.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace qplacer;

namespace {

/** Checkpoints (global-placement iterations) the kernels replay at. */
constexpr int kCheckpoints[] = {20, 60, 120};
/** Timed calls per kernel and checkpoint, after one untimed warm call. */
constexpr int kReps = 5;

/** Appends the wall time of @p reps calls of @p call, in ms. */
template <typename F>
void
timeCalls(std::vector<double> &out_ms, F &&call)
{
    call();
    for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        call();
        out_ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
}

std::vector<Vec2>
positionsOf(const Netlist &netlist)
{
    std::vector<Vec2> p;
    p.reserve(netlist.instances().size());
    for (const Instance &inst : netlist.instances())
        p.push_back(inst.pos);
    return p;
}

/** Collision pairs closer than the force cutoff at @p pos. */
std::size_t
pairsInRange(const Netlist &netlist, const CollisionMap &map,
             const std::vector<Vec2> &pos, double cutoff_factor)
{
    std::size_t in_range = 0;
    const auto &inst = netlist.instances();
    for (std::size_t i = 0; i < map.size(); ++i) {
        const double qi = std::sqrt(inst[i].paddedArea());
        for (std::int32_t j : map.partners(i)) {
            if (static_cast<std::size_t>(j) <= i)
                continue;
            const double qj = std::sqrt(inst[j].paddedArea());
            if ((pos[i] - pos[j]).norm() < cutoff_factor * (qi + qj))
                ++in_range;
        }
    }
    return in_range;
}

} // namespace

void
replayKernels(RunReport &report, const Topology &topo,
              const FlowParams &params, int threads)
{
    const FlowParams norm = params.normalized();
    const PlacerParams &pp = norm.placer;
    const Netlist unplaced = buildUnplaced(topo, norm);
    const int n = unplaced.numInstances();
    const int bins =
        pp.bins > 0 ? pp.bins : DensityModel::autoBinCount(n);

    std::unique_ptr<ThreadPool> own_pool;
    if (threads > 1)
        own_pool = std::make_unique<ThreadPool>(threads);
    ThreadPool *pool = own_pool.get();
    // The 1- vs 2-thread replay always runs on a 2-thread pool.
    std::unique_ptr<ThreadPool> own_pool2;
    ThreadPool *pool2 = pool;
    if (threads != 2) {
        own_pool2 = std::make_unique<ThreadPool>(2);
        pool2 = own_pool2.get();
    }

    std::vector<double> density, poisson, wirelength, freq, objective,
        nesterov, map_build, density1, density2, poisson1, poisson2;
    std::vector<double> in_range;
    std::size_t pairs = 0;
    double map_bytes = 0.0;

    for (int checkpoint : kCheckpoints) {
        Netlist nl = unplaced;
        PlacerParams cp = pp;
        cp.maxIters = checkpoint;
        GlobalPlacer(cp).place(nl, pool);
        const std::vector<Vec2> pos = positionsOf(nl);
        const Rect region = nl.region();
        std::vector<Vec2> grad;

        DensityModel dm(nl, bins, pp.targetDensity, pool);
        timeCalls(density, [&] { dm.evaluate(pos, grad); });
        const std::vector<double> rho = dm.grid().data();
        PoissonSolver ps(bins, bins, region.width(), region.height(), pool);
        timeCalls(poisson, [&] { (void)ps.solve(rho); });

        DensityModel dm1(nl, bins, pp.targetDensity, nullptr);
        DensityModel dm2(nl, bins, pp.targetDensity, pool2);
        timeCalls(density1, [&] { dm1.evaluate(pos, grad); });
        timeCalls(density2, [&] { dm2.evaluate(pos, grad); });
        PoissonSolver ps1(bins, bins, region.width(), region.height(),
                          nullptr);
        PoissonSolver ps2(bins, bins, region.width(), region.height(),
                          pool2);
        timeCalls(poisson1, [&] { (void)ps1.solve(rho); });
        timeCalls(poisson2, [&] { (void)ps2.solve(rho); });

        const WirelengthModel wl(
            nl, std::max(1e-3, pp.gammaFrac * region.width()), pool);
        timeCalls(wirelength, [&] { wl.evaluate(pos, grad); });

        if (pp.freqForce) {
            const auto t0 = Clock::now();
            const CollisionMap map(nl.frequencies(), nl.resonatorGroups(),
                                   pp.detuningThresholdHz);
            map_build.push_back(secondsBetween(t0, Clock::now()) * 1e3);
            pairs = map.numPairs();
            map_bytes = static_cast<double>(
                map.size() * sizeof(std::vector<std::int32_t>));
            for (std::size_t i = 0; i < map.size(); ++i)
                map_bytes += static_cast<double>(map.partners(i).size() *
                                                 sizeof(std::int32_t));
            in_range.push_back(static_cast<double>(
                pairsInRange(nl, map, pos, pp.freqCutoffFactor)));

            const FreqForceModel ff(nl, pp.detuningThresholdHz,
                                    pp.freqCutoffFactor, pool);
            timeCalls(freq, [&] { ff.evaluate(pos, grad); });
        }

        PlacementObjective obj(nl, cp, pool);
        obj.initPenalties(pos);
        timeCalls(objective, [&] { obj.evaluate(pos, grad); });

        std::vector<Vec2> half(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            half[i] = Vec2(nl.instance(i).paddedWidth() / 2.0,
                           nl.instance(i).paddedHeight() / 2.0);
        NesterovOptimizer opt(region, half, 0.05, pool);
        opt.reset(pos);
        timeCalls(nesterov, [&] { opt.step(grad); });
    }

    const std::string where =
        "replayed on " + topo.name + " at iterations 20/60/120, " +
        std::to_string(threads) + " thread(s)";
    // DensityModel::evaluate runs the Poisson solve itself; the
    // density layer is reported without it.
    auto withoutSolve = [](const std::vector<double> &evaluate_ms,
                           const std::vector<double> &solve_ms) {
        return std::max(0.0, median(evaluate_ms) - median(solve_ms));
    };
    report.set("core.density_ms", withoutSolve(density, poisson), "ms",
               density.size(),
               "computed: evaluate - poisson_ms (splat + sampling), " +
                   where);
    report.set("core.poisson_ms", median(poisson), "ms", poisson.size(),
               where);
    report.set("core.wirelength_ms", median(wirelength), "ms",
               wirelength.size(), where);
    report.set("core.objective_ms", median(objective), "ms",
               objective.size(), where);
    report.set("core.nesterov_step_ms", median(nesterov), "ms",
               nesterov.size(), where);

    const std::string off = "frequency force off in this mode";
    const bool on = pp.freqForce;
    report.set("core.freq_force_ms", median(freq), "ms", freq.size(),
               on ? where : off);
    report.set("core.freq_force_share",
               on ? median(freq) / (median(objective) + median(nesterov))
                  : 0.0,
               "frac", freq.size(),
               "computed: freq_force_ms / (objective_ms + nesterov_step_ms)");
    report.set("freq.collision_map_ms", median(map_build), "ms",
               map_build.size(), on ? where : off);
    report.set("core.freq_pairs", static_cast<double>(pairs), "count",
               on ? 1 : 0, "CollisionMap::numPairs");
    report.set("core.freq_pairs_in_range", mean(in_range), "count",
               in_range.size(),
               "computed: pairs closer than cutoff*(sqrt(A_i)+sqrt(A_j))");
    report.set("core.freq_pair_yield",
               pairs > 0 ? mean(in_range) / static_cast<double>(pairs) : 0.0,
               "frac", in_range.size(),
               "computed: freq_pairs_in_range / freq_pairs");
    report.set("freq.collision_map_bytes", map_bytes, "B", on ? 1 : 0,
               "computed from partner-list sizes");

    report.set("util.pool_threads", threads, "count", 1,
               "placement threads of this workload");
    const double density2_ms = withoutSolve(density2, poisson2);
    report.set("util.pool_speedup.density",
               density2_ms > 0 ? withoutSolve(density1, poisson1) /
                                     density2_ms
                               : 0.0,
               "x", density1.size(),
               "computed: density evaluate without the solve, at 1 "
               "thread / at 2");
    report.set("util.pool_speedup.poisson",
               median(poisson1) / median(poisson2), "x", poisson1.size(),
               "computed: Poisson solve at 1 thread / at 2");
}

} // namespace perfbench
