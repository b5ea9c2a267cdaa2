/**
 * @file
 * Smooth wirelength model: per-net log-sum-exp approximation of HPWL
 * with analytic gradient (the WL(e; x, y) term of Eq. 12).
 */

#ifndef QPLACER_CORE_WIRELENGTH_HPP
#define QPLACER_CORE_WIRELENGTH_HPP

#include <cstdint>
#include <vector>

#include "geometry/vec2.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/** Log-sum-exp smooth wirelength over the netlist's 2-pin nets. */
class WirelengthModel
{
  public:
    /**
     * @param netlist Netlist whose nets are measured (kept by pointer;
     *                must outlive the model).
     * @param gamma   Smoothing parameter (um); smaller = closer to HPWL.
     * @param pool    Worker pool (null = serial; not owned). Net terms
     *                are computed in parallel and each instance gathers
     *                its nets' terms in net order, so every thread
     *                count reproduces the serial bits.
     *
     * Net endpoints are read once, here.
     */
    WirelengthModel(const Netlist &netlist, double gamma,
                    ThreadPool *pool = nullptr);

    /**
     * Smooth wirelength of the current @p positions and its gradient.
     * @param positions   Center per instance; panics on a count that
     *                    differs from the netlist's instances.
     * @param gradient    Output (resized inside, every entry written).
     * @return smooth wirelength value (um).
     */
    double evaluate(const std::vector<Vec2> &positions,
                    std::vector<Vec2> &gradient) const;

    /** Exact half-perimeter wirelength (reporting metric). */
    double hpwl(const std::vector<Vec2> &positions) const;

    double gamma() const { return gamma_; }

    /** Update gamma (annealed by the optimizer as overflow falls). */
    void setGamma(double gamma);

  private:
    const Netlist &netlist_;
    double gamma_;
    ThreadPool *pool_;
    /**
     * Nets of each instance in net order: incidence_[incidenceStart_[k]
     * .. incidenceStart_[k + 1]) holds net i for pin a and ~i for pin b.
     */
    std::vector<std::int32_t> incidenceStart_;
    std::vector<std::int32_t> incidence_;
    /** Per-net gradient term (of pin a) and value, one evaluate(). */
    struct NetTerm
    {
        Vec2 grad;
        double value;
    };
    mutable std::vector<NetTerm> netTerms_;
};

} // namespace qplacer

#endif // QPLACER_CORE_WIRELENGTH_HPP
