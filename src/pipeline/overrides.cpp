#include "pipeline/overrides.hpp"

namespace qplacer {

const char *const kKnownSetKeys[] = {
    "targetUtil",
    "placer.maxIters",
    "placer.minIters",
    "placer.bins",
    "placer.targetDensity",
    "placer.stopOverflow",
    "placer.freqForce",
    "placer.freqWeight",
    "placer.freqCutoffFactor",
    "placer.threads",
    "assigner.distance2",
    "assigner.detuningThresholdGHz",
    "legalizer.cellUm",
    "legalizer.flowRefine",
    "legalizer.integration",
    "hotspot.adjacencyTolUm",
    "incremental.maxIters",
    "incremental.snapToleranceUm",
    "detailed.enabled",
    "detailed.iters",
    "detailed.tempStart",
    "detailed.tempDecay",
    "portfolio.seeds",
    "portfolio.pruneAt",
    "portfolio.keepFrac",
};

std::size_t
numKnownSetKeys()
{
    return sizeof(kKnownSetKeys) / sizeof(kKnownSetKeys[0]);
}

bool
isKnownSetKey(const std::string &key)
{
    for (std::size_t i = 0; i < numKnownSetKeys(); ++i)
        if (key == kKnownSetKeys[i])
            return true;
    return false;
}

void
applyOverrides(const Config &cfg, FlowParams &params)
{
    params.targetUtil = cfg.getDouble("targetUtil", params.targetUtil);

    PlacerParams &pp = params.placer;
    pp.maxIters = static_cast<int>(cfg.getInt("placer.maxIters", pp.maxIters));
    pp.minIters = static_cast<int>(cfg.getInt("placer.minIters", pp.minIters));
    pp.bins = static_cast<int>(cfg.getInt("placer.bins", pp.bins));
    pp.targetDensity = cfg.getDouble("placer.targetDensity", pp.targetDensity);
    pp.stopOverflow = cfg.getDouble("placer.stopOverflow", pp.stopOverflow);
    pp.freqForce = cfg.getBool("placer.freqForce", pp.freqForce);
    pp.freqWeight = cfg.getDouble("placer.freqWeight", pp.freqWeight);
    pp.freqCutoffFactor =
        cfg.getDouble("placer.freqCutoffFactor", pp.freqCutoffFactor);
    pp.threads = static_cast<int>(cfg.getInt("placer.threads", pp.threads));

    AssignerParams &ap = params.assigner;
    ap.distance2 = cfg.getBool("assigner.distance2", ap.distance2);
    ap.detuningThresholdHz =
        cfg.getDouble("assigner.detuningThresholdGHz",
                      ap.detuningThresholdHz / 1e9) *
        1e9;

    LegalizerParams &lp = params.legalizer;
    lp.cellUm = cfg.getDouble("legalizer.cellUm", lp.cellUm);
    lp.flowRefine = cfg.getBool("legalizer.flowRefine", lp.flowRefine);
    lp.integration = cfg.getBool("legalizer.integration", lp.integration);

    params.hotspot.adjacencyTolUm =
        cfg.getDouble("hotspot.adjacencyTolUm", params.hotspot.adjacencyTolUm);

    IncrementalPlaceParams &ip = params.incremental;
    ip.maxIters =
        static_cast<int>(cfg.getInt("incremental.maxIters", ip.maxIters));
    ip.snapToleranceUm =
        cfg.getDouble("incremental.snapToleranceUm", ip.snapToleranceUm);

    DetailedPlaceParams &dp = params.detailed;
    dp.enabled = cfg.getBool("detailed.enabled", dp.enabled);
    dp.iters = static_cast<int>(cfg.getInt("detailed.iters", dp.iters));
    dp.tempStart = cfg.getDouble("detailed.tempStart", dp.tempStart);
    dp.tempDecay = cfg.getDouble("detailed.tempDecay", dp.tempDecay);

    PortfolioParams &fp = params.portfolio;
    fp.seeds = static_cast<int>(cfg.getInt("portfolio.seeds", fp.seeds));
    fp.pruneAt =
        static_cast<int>(cfg.getInt("portfolio.pruneAt", fp.pruneAt));
    fp.keepFrac = cfg.getDouble("portfolio.keepFrac", fp.keepFrac);
}

} // namespace qplacer
