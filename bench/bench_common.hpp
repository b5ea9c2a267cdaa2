/**
 * @file
 * Shared helpers for the experiment harness binaries (one per table or
 * figure of the paper; see DESIGN.md section 3).
 *
 * Environment overrides:
 *   QP_SUBSETS   mappings per benchmark (default 50, the paper's count)
 *   QP_SEED      placement seed (default 1)
 */

#ifndef QPLACER_BENCH_COMMON_HPP
#define QPLACER_BENCH_COMMON_HPP

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "qplacer.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace qplacer::bench {

/** Number of device subsets per benchmark evaluation. */
inline int
numSubsets()
{
    return static_cast<int>(Config::envInt("QP_SUBSETS", 50));
}

/** Placement seed. */
inline std::uint64_t
placementSeed()
{
    return static_cast<std::uint64_t>(Config::envInt("QP_SEED", 1));
}

/** Cache of flow results keyed by (topology, mode, l_b). */
class FlowCache
{
  public:
    const FlowResult &
    get(const std::string &topo_name, PlacerMode mode,
        double segment_um = 300.0)
    {
        const std::string key =
            topo_name + "/" + placerModeName(mode) + "/" +
            std::to_string(static_cast<int>(segment_um));
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            const Topology topo = makeTopology(topo_name);
            it = cache_
                     .emplace(key,
                              QplacerFlow::runMode(topo, mode, segment_um,
                                                   placementSeed()))
                     .first;
        }
        return it->second;
    }

  private:
    std::map<std::string, FlowResult> cache_;
};

/** Evaluator configured from the environment. */
inline Evaluator
makeEvaluator()
{
    EvaluatorParams params;
    params.numSubsets = numSubsets();
    return Evaluator(params);
}

/** Print a header naming the experiment. */
inline void
banner(const char *what)
{
    std::printf("== %s ==\n", what);
}

} // namespace qplacer::bench

#endif // QPLACER_BENCH_COMMON_HPP
