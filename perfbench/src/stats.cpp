#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

void
RunReport::set(const std::string &name, double value, const std::string &unit,
               std::size_t samples, const std::string &note)
{
    metrics.push_back({name, value, unit, samples, note});
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
reportJobTraces(RunReport &report, const std::vector<JobTrace> &jobs)
{
    static const char *const kStages[] = {"assign",   "build",
                                          "warm_start", "place",
                                          "legalize", "metrics"};
    const std::size_t n = jobs.size();
    double spans = 0.0, latency = 0.0;
    std::vector<double> iter_ms, iterations, converged, spiral, flow,
        tetris, integration, cells, movable;
    for (const JobTrace &job : jobs) {
        for (const auto &[stage, s] : job.stageS)
            spans += s;
        latency += job.latencyS;
        iter_ms.insert(iter_ms.end(), job.iterMs.begin(), job.iterMs.end());
        iterations.push_back(job.iterations);
        converged.push_back(job.converged ? 1.0 : 0.0);
        spiral.push_back(job.spiralS);
        flow.push_back(job.flowRefineS);
        tetris.push_back(job.tetrisS);
        integration.push_back(job.integrationS);
        cells.push_back(job.cells);
        movable.push_back(job.movable);
    }
    for (const char *stage : kStages) {
        std::vector<double> s;
        for (const JobTrace &job : jobs) {
            const auto it = job.stageS.find(stage);
            s.push_back(it == job.stageS.end() ? 0.0 : it->second);
        }
        report.set(std::string("pipeline.") + stage + "_s", mean(s), "s", n,
                   "FlowObserver stage span, mean per job");
    }
    report.set("pipeline.span_coverage", latency > 0 ? spans / latency : 0,
               "frac", n, "computed: stage spans / job latency");
    if (iter_ms.empty()) {
        // No iteration callbacks: the place span over its iterations.
        for (const JobTrace &job : jobs) {
            const auto it = job.stageS.find("place");
            if (it != job.stageS.end() && job.iterations > 0)
                iter_ms.push_back(it->second * 1e3 / job.iterations);
        }
    }
    report.set("core.iter_ms.p50", median(iter_ms), "ms", iter_ms.size());
    report.set("core.iterations", mean(iterations), "count", n,
               "mean per job");
    report.set("core.converged_frac", mean(converged), "frac", n);
    const std::string reported = "as reported by the program, mean per job";
    report.set("legal.spiral_s", mean(spiral), "s", n, reported);
    report.set("legal.flow_refine_s", mean(flow), "s", n, reported);
    report.set("legal.tetris_s", mean(tetris), "s", n, reported);
    report.set("legal.integration_s", mean(integration), "s", n, reported);
    report.set("legal.movable", mean(movable), "count", n, "mean per job");
    report.set("netlist.cells", mean(cells), "count", n, "mean per job");
}

} // namespace perfbench
