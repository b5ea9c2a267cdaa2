/**
 * @file
 * The penalty-method objective of Eq. (14):
 *   min  WL(x, y) + lambda * D(x, y) + lambda_f * F(x, y)
 * lambda starts at a gradient-norm ratio and grows multiplicatively each
 * iteration, shifting the engine from pure area (wirelength)
 * optimization toward density satisfaction. lambda_f is renormalised
 * every evaluation against the wirelength gradient of the instances the
 * frequency force touches (the ePlace/DREAMPlace gradient-norm ratio,
 * restricted to the force's support), so the force neither overpowers
 * wirelength nor fades as the layout spreads. The Nesterov step only
 * needs the gradient, so the penalized value itself is never formed.
 */

#ifndef QPLACER_CORE_OBJECTIVE_HPP
#define QPLACER_CORE_OBJECTIVE_HPP

#include <memory>
#include <vector>

#include "core/density.hpp"
#include "core/freq_force.hpp"
#include "core/params.hpp"
#include "core/wirelength.hpp"
#include "multidie/cut_penalty.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/** Combined placement objective with penalty schedule. */
class PlacementObjective
{
  public:
    /**
     * @param pool Worker pool shared by every component model (null =
     *             serial; not owned, must outlive the objective).
     */
    PlacementObjective(const Netlist &netlist, const PlacerParams &params,
                       ThreadPool *pool = nullptr);

    /**
     * Evaluate the penalized objective's gradient (per instance,
     * Jacobi-preconditioned by net degree + lambda * charge) and update
     * overflow().
     */
    void evaluate(const std::vector<Vec2> &positions,
                  std::vector<Vec2> &gradient);

    /**
     * Initialize lambda, lambda_f and the cut multiplier from the
     * gradient norms at @p positions (call once before the loop).
     */
    void initPenalties(const std::vector<Vec2> &positions);

    /**
     * Grow the density and cut multipliers one schedule step (lambda_f
     * is set by evaluate(), not grown).
     */
    void growPenalties();

    /** Density overflow after the last evaluate(). */
    double overflow() const { return density_.overflow(); }

    /** Anneal the wirelength smoothing with the current overflow. */
    void updateGamma(double overflow);

    /** Exact HPWL for reporting. */
    double hpwl(const std::vector<Vec2> &positions) const;

    double lambda() const { return lambda_; }
    double freqLambda() const { return freqLambda_; }
    double cutLambda() const { return cutLambda_; }

  private:
    const Netlist &netlist_;
    PlacerParams params_;
    ThreadPool *pool_;
    WirelengthModel wirelength_;
    DensityModel density_;
    std::unique_ptr<FreqForceModel> freqForce_;
    std::unique_ptr<CutPenaltyModel> cutPenalty_; ///< Active die spec only.
    std::vector<double> netDegree_;
    double gammaBase_;
    double lambda_ = 0.0;
    double freqLambda_ = 0.0;
    double cutLambda_ = 0.0;
    bool cutLambdaLive_ = false; ///< Set once a net first crosses a cut.
    double cutLambdaInit_ = 0.0;
    std::vector<Vec2> gradWl_;
    std::vector<Vec2> gradDen_;
    std::vector<Vec2> gradFreq_;
    std::vector<Vec2> gradCut_;
};

} // namespace qplacer

#endif // QPLACER_CORE_OBJECTIVE_HPP
