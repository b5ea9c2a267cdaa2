#include "core/objective.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

/** Sum of |g_x| + |g_y|, in index order on one thread. */
double
l1Norm(const std::vector<Vec2> &g)
{
    double acc = 0.0;
    for (const Vec2 &v : g)
        acc += std::abs(v.x) + std::abs(v.y);
    return acc;
}

/**
 * Schedule of the multi-die cut penalty: grown by this factor every
 * iteration, capped at this many times its initial weight.
 */
constexpr double kCutLambdaGrowth = 1.05;
constexpr double kCutLambdaMaxFactor = 300.0;

/**
 * lambda_f = weight * sum_{i: grad_f_i != 0} |grad_wl_i|_1 / |grad_f|_1:
 * the frequency force scaled against the wirelength gradient on its
 * own support, so a few pairs are not weighed against the whole chip.
 * Serial in index order; 0 while the force is dormant.
 */
double
freqMultiplier(double weight, const std::vector<Vec2> &grad_wl,
               const std::vector<Vec2> &grad_f)
{
    double wl = 0.0;
    double f = 0.0;
    for (std::size_t i = 0; i < grad_f.size(); ++i) {
        const double fi = std::abs(grad_f[i].x) + std::abs(grad_f[i].y);
        if (fi == 0.0)
            continue;
        f += fi;
        wl += std::abs(grad_wl[i].x) + std::abs(grad_wl[i].y);
    }
    return f > 1e-12 ? weight * wl / f : 0.0;
}

} // namespace

PlacementObjective::PlacementObjective(const Netlist &netlist,
                                       const PlacerParams &params,
                                       ThreadPool *pool)
    : netlist_(netlist),
      params_(params),
      pool_(pool),
      wirelength_(netlist,
                  std::max(1e-3, params.gammaFrac *
                                     netlist.region().width()),
                  pool),
      density_(netlist,
               params.bins > 0
                   ? params.bins
                   : DensityModel::autoBinCount(netlist.numInstances()),
               params.targetDensity, pool)
{
    if (params.freqForce) {
        freqForce_ = std::make_unique<FreqForceModel>(
            netlist, params.detuningThresholdHz,
            params.freqCutoffFactor, pool_);
    }
    if (params.cutWeight > 0.0 && netlist.dieSpec().active()) {
        cutPenalty_ = std::make_unique<CutPenaltyModel>(
            netlist, DiePlan::resolve(netlist.dieSpec(),
                                      netlist.region()));
    }
    gammaBase_ = density_.grid().binWidth();

    netDegree_.assign(netlist.instances().size(), 0.0);
    for (const Net &net : netlist.nets()) {
        netDegree_[net.a] += net.weight;
        netDegree_[net.b] += net.weight;
    }
}

void
PlacementObjective::evaluate(const std::vector<Vec2> &positions,
                             std::vector<Vec2> &gradient)
{
    wirelength_.evaluate(positions, gradWl_);
    density_.evaluate(positions, gradDen_);
    if (freqForce_) {
        freqForce_->evaluate(positions, gradFreq_);
        freqLambda_ = freqMultiplier(params_.freqWeight, gradWl_, gradFreq_);
    } else {
        gradFreq_.assign(positions.size(), Vec2());
    }
    if (cutPenalty_) {
        cutPenalty_->evaluate(positions, gradCut_);
        // Initialized lazily: the penalty weight is meaningless until
        // some net actually crosses a cut.
        if (!cutLambdaLive_) {
            const double cut_norm = l1Norm(gradCut_);
            if (cut_norm > 1e-12) {
                cutLambda_ = params_.cutWeight * l1Norm(gradWl_) /
                             cut_norm;
                cutLambdaInit_ = cutLambda_;
                cutLambdaLive_ = true;
            }
        }
    }

    gradient.assign(positions.size(), Vec2());
    const auto &instances = netlist_.instances();
    const bool with_cut = cutPenalty_ != nullptr;
    parallelFor(
        pool_, positions.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                Vec2 g = gradWl_[i] + gradDen_[i] * lambda_ +
                         gradFreq_[i] * freqLambda_;
                // Guarded so single-die runs combine the exact same FP
                // expression as before (adding a 0.0 term could still
                // flip signed zeros).
                if (with_cut)
                    g = g + gradCut_[i] * cutLambda_;
                // Jacobi preconditioner (ePlace): net degree + lambda *
                // charge.
                const double h = std::max(
                    1.0,
                    netDegree_[i] + lambda_ * instances[i].paddedArea());
                gradient[i] = g / h;
            }
        },
        ThreadPool::kGrainFine);
}

void
PlacementObjective::initPenalties(const std::vector<Vec2> &positions)
{
    wirelength_.evaluate(positions, gradWl_);
    density_.evaluate(positions, gradDen_);
    const double wl_norm = l1Norm(gradWl_);
    const double den_norm = l1Norm(gradDen_);
    lambda_ = den_norm > 1e-12 ? wl_norm / den_norm : 0.0;

    freqLambda_ = 0.0;
    if (freqForce_) {
        freqForce_->evaluate(positions, gradFreq_);
        freqLambda_ = freqMultiplier(params_.freqWeight, gradWl_, gradFreq_);
    }

    cutLambda_ = 0.0;
    cutLambdaLive_ = false;
    if (cutPenalty_) {
        cutPenalty_->evaluate(positions, gradCut_);
        const double cut_norm = l1Norm(gradCut_);
        if (cut_norm > 1e-12) {
            cutLambda_ = params_.cutWeight * wl_norm / cut_norm;
            cutLambdaInit_ = cutLambda_;
            cutLambdaLive_ = true;
        }
    }
}

void
PlacementObjective::growPenalties()
{
    lambda_ *= params_.lambdaGrowth;
    if (cutLambdaLive_) {
        const double cap = cutLambdaInit_ * kCutLambdaMaxFactor;
        cutLambda_ = std::min(cutLambda_ * kCutLambdaGrowth, cap);
    }
}

void
PlacementObjective::updateGamma(double overflow)
{
    // Large overflow -> heavy smoothing (stable global view); as the
    // design spreads, sharpen toward true HPWL.
    const double gamma =
        gammaBase_ * (1.0 + 9.0 * std::clamp(overflow, 0.0, 1.0));
    wirelength_.setGamma(gamma);
}

double
PlacementObjective::hpwl(const std::vector<Vec2> &positions) const
{
    return wirelength_.hpwl(positions);
}

} // namespace qplacer
