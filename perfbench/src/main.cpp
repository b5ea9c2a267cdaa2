/**
 * @file
 * qplacer_perfbench: runs one benchmark workload and prints its
 * metrics.
 *
 *   qplacer_perfbench --workload paper-qplacer --seed 1 --seconds 20 \
 *       --trace 0
 *
 * Standard output ends with one JSON line holding run metadata, every
 * metric (value, unit, sample count, note), the attempted and failed
 * operation counts and the failure messages. perfbench/run.py builds
 * this program and turns that line into the benchmark's result.
 * The exit code is 0 when every check passed, 1 when an operation
 * failed its check, and 2 when the run could not be made at all.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "service/json.hpp"
#include "util/logging.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;
using qplacer::JsonValue;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "qplacer_perfbench: " << why << "\n"
              << "usage: qplacer_perfbench --workload "
                 "paper-qplacer|classic-1k|serve-iterate --seed N "
                 "--seconds S --trace 0|1 [--rate JOBS_PER_S]\n";
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(value);
            } else if (flag == "--trace") {
                o.trace = std::stoi(value) != 0;
            } else if (flag == "--rate") {
                o.rate = std::stod(value);
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

void
printTable(const RunReport &report)
{
    for (const auto &m : report.metrics)
        std::printf("  %-30s %16.6g %-6s n=%-6zu %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples, m.note.c_str());
    std::printf("  attempted %ld, failed %zu\n", report.attempted,
                report.failures.size());
    for (const std::string &f : report.failures)
        std::printf("  FAILED: %s\n", f.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::cerr << "qplacer_perfbench: built without optimisation ("
              << PERFBENCH_BUILD_TYPE << "); refusing to report numbers\n";
    return 2;
#endif
    const RunOptions options = parseArgs(argc, argv);
    qplacer::Logger::instance().setLevel(qplacer::LogLevel::Silent);

    RunReport report;
    try {
        if (options.workload == "serve-iterate")
            perfbench::runServeIterate(options, report);
        else
            perfbench::runClosedLoop(options, report);
    } catch (const std::exception &e) {
        std::cerr << "qplacer_perfbench: " << e.what() << "\n";
        return 2;
    }

    std::printf("%s seed %llu, %s run\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced");
    printTable(report);

    JsonValue meta = JsonValue::object();
    meta.set("workload", JsonValue::string(options.workload));
    meta.set("seed", JsonValue::numberLiteral(std::to_string(options.seed)));
    meta.set("seconds", JsonValue::number(options.seconds));
    meta.set("trace", JsonValue::boolean(options.trace));
    meta.set("nproc", JsonValue::number(static_cast<std::int64_t>(
                          std::thread::hardware_concurrency())));
    JsonValue threads = JsonValue::object();
    threads.set("placer_threads_per_job",
                JsonValue::number(
                    static_cast<std::int64_t>(report.placerThreads)));
    threads.set("concurrent_jobs",
                JsonValue::number(
                    static_cast<std::int64_t>(report.concurrentJobs)));
    meta.set("threads", std::move(threads));
    meta.set("compiler",
             JsonValue::string(std::string(PERFBENCH_COMPILER) + " (" +
                               __VERSION__ + ")"));
    meta.set("build_type", JsonValue::string(PERFBENCH_BUILD_TYPE));

    JsonValue metrics = JsonValue::object();
    for (const auto &m : report.metrics) {
        JsonValue entry = JsonValue::object();
        entry.set("value", JsonValue::number(m.value));
        entry.set("unit", JsonValue::string(m.unit));
        entry.set("samples",
                  JsonValue::number(static_cast<std::int64_t>(m.samples)));
        entry.set("note", JsonValue::string(m.note));
        metrics.set(m.name, std::move(entry));
    }
    JsonValue failures = JsonValue::array();
    for (const std::string &f : report.failures)
        failures.push(JsonValue::string(f));

    JsonValue out = JsonValue::object();
    out.set("meta", std::move(meta));
    out.set("attempted", JsonValue::number(
                             static_cast<std::int64_t>(report.attempted)));
    out.set("failed", JsonValue::number(static_cast<std::int64_t>(
                          report.failures.size())));
    out.set("failures", std::move(failures));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.serialize().c_str());
    return report.failures.empty() ? 0 : 1;
}
