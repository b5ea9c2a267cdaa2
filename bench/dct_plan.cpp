/**
 * @file
 * Planned vs. unplanned spectral engine on Eagle-127 and a 1000+ qubit
 * parametric grid.
 *
 * For each topology the driver splats the real netlist density once,
 * then times PoissonSolver::solve and the full DensityModel::evaluate
 * on both DCT execution paths (cached DctPlan + reusable scratch vs.
 * the plan-free PR-2 kernels) at 1, 2, 4, and 8 threads. The two paths
 * must agree *bitwise* — any nonzero difference fails the run. Results
 * go to stdout and a CSV (first argv, default dct_plan.csv) for the
 * nightly CI artifact trail; plan_speedup >= 1 is the acceptance bar
 * for the plan rework.
 *
 * Environment overrides:
 *   QP_BENCH_REPS  solves per timing sample (default 20)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/density.hpp"
#include "core/poisson.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace qplacer;

namespace {

/** True iff @p a and @p b hold exactly the same bits (memcmp). */
bool
identical(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

bool
identical(const PoissonSolver::Solution &a,
          const PoissonSolver::Solution &b)
{
    return identical(a.fieldX, b.fieldX) && identical(a.fieldY, b.fieldY);
}

double
timeSolve(const PoissonSolver &solver, const std::vector<double> &density,
          int reps)
{
    solver.solve(density); // warm-up (plan scratch, page faults)
    Timer timer;
    for (int r = 0; r < reps; ++r) {
        const PoissonSolver::Solution &sol = solver.solve(density);
        // Defeat over-eager optimizers.
        if (sol.fieldX.empty())
            std::printf("impossible\n");
    }
    return timer.millis() / reps;
}

double
timeEvaluate(DensityModel &model, const std::vector<Vec2> &positions,
             int reps)
{
    std::vector<Vec2> gradient;
    model.evaluate(positions, gradient); // warm-up
    Timer timer;
    for (int r = 0; r < reps; ++r)
        model.evaluate(positions, gradient);
    return timer.millis() / reps;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string csv_path = argc > 1 ? argv[1] : "dct_plan.csv";
    const int reps =
        static_cast<int>(Config::envInt("QP_BENCH_REPS", 20));

    CsvWriter csv(csv_path);
    csv.header({"topology", "qubits", "instances", "bins", "threads",
                "reps", "unplanned_solve_ms", "planned_solve_ms",
                "solve_plan_speedup", "unplanned_evaluate_ms",
                "planned_evaluate_ms", "evaluate_plan_speedup"});

    bench::banner("spectral engine: unplanned vs. planned DCT path");
    for (const bench::SpectralWorkload &wl : bench::spectralWorkloads()) {
        const bench::SpectralInstance prepared = bench::prepare(wl);
        const Netlist &netlist = prepared.netlist;
        const std::vector<Vec2> &positions = prepared.positions;
        const std::vector<double> &density = prepared.density;

        std::printf("-- %s: %d qubits, %d instances, %dx%d bins\n",
                    wl.name.c_str(), wl.topo.numQubits(),
                    netlist.numInstances(), wl.bins, wl.bins);

        for (const int threads : {1, 2, 4, 8}) {
            ThreadPool pool(threads);
            ThreadPool *pool_ptr = threads > 1 ? &pool : nullptr;
            const double w = netlist.region().width();
            const double h = netlist.region().height();
            const PoissonSolver unplanned(
                wl.bins, wl.bins, w, h, pool_ptr,
                PoissonSolver::Path::Unplanned);
            const PoissonSolver planned(wl.bins, wl.bins, w, h, pool_ptr,
                                        PoissonSolver::Path::Planned);

            // The planned path must not move a single bit.
            if (!identical(planned.solve(density),
                           unplanned.solve(density))) {
                std::printf(
                    "FAIL: planned solve diverged from unplanned\n");
                return 1;
            }

            const double unplanned_ms =
                timeSolve(unplanned, density, reps);
            const double planned_ms = timeSolve(planned, density, reps);

            DensityModel unplanned_model(
                netlist, wl.bins, 0.9, pool_ptr,
                PoissonSolver::Path::Unplanned);
            DensityModel planned_model(netlist, wl.bins, 0.9, pool_ptr,
                                       PoissonSolver::Path::Planned);
            const double unplanned_eval_ms =
                timeEvaluate(unplanned_model, positions, reps);
            const double planned_eval_ms =
                timeEvaluate(planned_model, positions, reps);

            const double solve_speedup = unplanned_ms / planned_ms;
            const double eval_speedup =
                unplanned_eval_ms / planned_eval_ms;
            std::printf("   %d thread%s: solve %8.3f -> %8.3f ms "
                        "(%.2fx)  evaluate %8.3f -> %8.3f ms (%.2fx)\n",
                        threads, threads == 1 ? " " : "s", unplanned_ms,
                        planned_ms, solve_speedup, unplanned_eval_ms,
                        planned_eval_ms, eval_speedup);

            csv.row({CsvWriter::cell(wl.name),
                     CsvWriter::cell(
                         static_cast<long long>(wl.topo.numQubits())),
                     CsvWriter::cell(static_cast<long long>(
                         netlist.numInstances())),
                     CsvWriter::cell(static_cast<long long>(wl.bins)),
                     CsvWriter::cell(static_cast<long long>(threads)),
                     CsvWriter::cell(static_cast<long long>(reps)),
                     CsvWriter::cell(unplanned_ms),
                     CsvWriter::cell(planned_ms),
                     CsvWriter::cell(solve_speedup),
                     CsvWriter::cell(unplanned_eval_ms),
                     CsvWriter::cell(planned_eval_ms),
                     CsvWriter::cell(eval_speedup)});
        }
    }
    std::printf("CSV written to %s\n", csv_path.c_str());
    return 0;
}
