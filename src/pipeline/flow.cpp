#include "pipeline/flow.hpp"

#include <algorithm>
#include <stdexcept>

#include "pipeline/session.hpp"
#include "util/logging.hpp"

namespace qplacer {

QplacerFlow::QplacerFlow(FlowParams params)
    : params_(params)
{
}

const char *
placerModeName(PlacerMode mode)
{
    switch (mode) {
      case PlacerMode::Qplacer:
        return "Qplacer";
      case PlacerMode::Classic:
        return "Classic";
      case PlacerMode::Human:
        return "Human";
    }
    return "?";
}

FlowParams
FlowParams::normalized(std::string *error) const
{
    FlowParams p = *this;
    std::string first_error;
    const auto check = [&](bool ok, const char *msg) {
        if (!ok && first_error.empty())
            first_error = msg;
    };

    check(targetUtil > 0.0 && targetUtil <= 1.0,
          "FlowParams: targetUtil must be in (0, 1]");
    check(partition.segmentUm > 0.0,
          "FlowParams: partition.segmentUm must be positive");
    check(partition.wireWidthUm > 0.0,
          "FlowParams: partition.wireWidthUm must be positive");
    check(partition.qubitPadUm >= 0.0 && partition.resonatorPadUm >= 0.0,
          "FlowParams: partition pads must be non-negative");
    check(placer.targetDensity > 0.0 && placer.targetDensity <= 1.0,
          "FlowParams: placer.targetDensity must be in (0, 1]");
    check(placer.maxIters >= 1,
          "FlowParams: placer.maxIters must be at least 1");
    check(placer.minIters >= 0,
          "FlowParams: placer.minIters must be non-negative");
    check(placer.stopOverflow >= 0.0,
          "FlowParams: placer.stopOverflow must be non-negative");
    check(placer.gammaFrac > 0.0,
          "FlowParams: placer.gammaFrac must be positive");
    check(placer.lambdaGrowth >= 1.0,
          "FlowParams: placer.lambdaGrowth must be >= 1");
    check(placer.bins >= 0, "FlowParams: placer.bins must be >= 0");
    check(placer.jitterFrac >= 0.0,
          "FlowParams: placer.jitterFrac must be non-negative");
    check(assigner.detuningThresholdHz > 0.0,
          "FlowParams: assigner.detuningThresholdHz must be positive");
    check(assigner.qubitBand.span() > 0.0,
          "FlowParams: assigner.qubitBand must have positive span");
    check(assigner.resonatorBand.span() > 0.0,
          "FlowParams: assigner.resonatorBand must have positive span");
    check(legalizer.cellUm > 0.0,
          "FlowParams: legalizer.cellUm must be positive");
    check(hotspot.adjacencyTolUm >= 0.0,
          "FlowParams: hotspot.adjacencyTolUm must be non-negative");
    check(incremental.maxIters >= 1,
          "FlowParams: incremental.maxIters must be at least 1");
    check(incremental.snapToleranceUm >= 0.0,
          "FlowParams: incremental.snapToleranceUm must be non-negative");
    check(detailed.iters >= 0,
          "FlowParams: detailed.iters must be non-negative (0 = no-op)");
    check(detailed.tempStart >= 0.0,
          "FlowParams: detailed.tempStart must be non-negative");
    check(detailed.tempDecay > 0.0 && detailed.tempDecay <= 1.0,
          "FlowParams: detailed.tempDecay must be in (0, 1]");
    check(portfolio.seeds >= 1,
          "FlowParams: portfolio.seeds must be at least 1");
    check(portfolio.pruneAt >= 1,
          "FlowParams: portfolio.pruneAt must be at least 1");
    check(portfolio.keepFrac > 0.0 && portfolio.keepFrac <= 1.0,
          "FlowParams: portfolio.keepFrac must be in (0, 1]");

    if (error)
        *error = first_error;
    else if (!first_error.empty())
        fatal(first_error);

    // The assigner's detuning threshold is the single source of truth:
    // the near-resonant pairs the placer's frequency force pushes
    // apart and the collision rule of the hotspot metric (which the
    // legalizer's tau probe also reads) must judge resonance exactly
    // like the frequencies were assigned.
    p.placer.detuningThresholdHz = assigner.detuningThresholdHz;
    p.hotspot.detuningThresholdHz = assigner.detuningThresholdHz;

    // The region is sized once, from the flow-level utilization target.
    p.placer.targetUtil = targetUtil;

    // minIters is a convergence floor under the iteration budget;
    // callers routinely lower only maxIters (quick runs, sweeps), so a
    // budget below the default floor implies a lowered floor, not a
    // configuration error.
    p.placer.minIters = std::min(p.placer.minIters, p.placer.maxIters);

    if (mode == PlacerMode::Classic) {
        // Classic: the same engine and hyper-parameters, minus every
        // frequency-aware ingredient (Section V-B).
        p.placer.freqForce = false;
        p.legalizer.resonanceCheck = false;
    }
    return p;
}

FlowResult
QplacerFlow::run(const Topology &topo) const
{
    // A one-shot run is a one-worker session's run; only the error
    // surface differs: invalid parameters fatal() and a failed stage
    // throws, instead of returning in FlowResult::status.
    PlacementSession session({.flow = params_, .workers = 1});
    FlowResult result = session.run(topo, params_);
    if (result.status.code == FlowCode::InvalidParams)
        fatal(result.status.message);
    if (result.status.code == FlowCode::StageError)
        throw std::runtime_error(result.status.message);
    return result;
}

FlowResult
QplacerFlow::runMode(const Topology &topo, PlacerMode mode,
                     double segment_um, std::uint64_t seed)
{
    FlowParams params;
    params.mode = mode;
    params.partition.segmentUm = segment_um;
    params.placer.seed = seed;
    return QplacerFlow(params).run(topo);
}

} // namespace qplacer
