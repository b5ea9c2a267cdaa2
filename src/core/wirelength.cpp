#include "core/wirelength.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

WirelengthModel::WirelengthModel(const Netlist &netlist, double gamma,
                                 ThreadPool *pool)
    : netlist_(netlist), gamma_(gamma), pool_(pool)
{
    if (gamma <= 0.0)
        fatal("WirelengthModel: gamma must be positive");
    // Counting sort of the pins by instance, in net order.
    const auto &nets = netlist.nets();
    incidenceStart_.assign(netlist.instances().size() + 1, 0);
    for (const Net &net : nets) {
        ++incidenceStart_[static_cast<std::size_t>(net.a) + 1];
        ++incidenceStart_[static_cast<std::size_t>(net.b) + 1];
    }
    for (std::size_t k = 1; k < incidenceStart_.size(); ++k)
        incidenceStart_[k] += incidenceStart_[k - 1];
    incidence_.resize(2 * nets.size());
    std::vector<std::int32_t> fill(incidenceStart_.begin(),
                                   incidenceStart_.end() - 1);
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto net = static_cast<std::int32_t>(i);
        incidence_[static_cast<std::size_t>(fill[nets[i].a]++)] = net;
        incidence_[static_cast<std::size_t>(fill[nets[i].b]++)] = ~net;
    }
}

void
WirelengthModel::setGamma(double gamma)
{
    if (gamma <= 0.0)
        fatal("WirelengthModel::setGamma: gamma must be positive");
    gamma_ = gamma;
}

double
WirelengthModel::evaluate(const std::vector<Vec2> &positions,
                          std::vector<Vec2> &gradient) const
{
    const std::size_t n = positions.size();
    if (n + 1 != incidenceStart_.size())
        panic("WirelengthModel::evaluate: position count mismatch");

    // For a 2-pin net the log-sum-exp wirelength reduces to the stable
    // closed form |d| + 2*gamma*log1p(exp(-|d|/gamma)) per axis, with
    // gradient tanh(d / (2*gamma)).
    auto axis = [this](double d, double &value, double &grad) {
        const double a = std::abs(d);
        value = a + 2.0 * gamma_ * std::log1p(std::exp(-a / gamma_));
        grad = std::tanh(d / (2.0 * gamma_));
    };

    const auto &nets = netlist_.nets();
    netTerms_.resize(nets.size());
    parallelFor(
        pool_, nets.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const Net &net = nets[i];
                const Vec2 &pa = positions[net.a];
                const Vec2 &pb = positions[net.b];
                double vx, gx, vy, gy;
                axis(pa.x - pb.x, vx, gx);
                axis(pa.y - pb.y, vy, gy);
                netTerms_[i] = {Vec2(net.weight * gx, net.weight * gy),
                                net.weight * (vx + vy)};
            }
        },
        ThreadPool::kGrainMedium);

    // Each instance adds its nets' terms in net order (pin a adds the
    // term, pin b subtracts it): the order, and so the bits, of a
    // serial scatter over the nets.
    gradient.resize(n);
    parallelFor(
        pool_, n,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
                Vec2 acc;
                for (std::int32_t e = incidenceStart_[k];
                     e < incidenceStart_[k + 1]; ++e) {
                    const std::int32_t net = incidence_[e];
                    if (net >= 0)
                        acc += netTerms_[net].grad;
                    else
                        acc -= netTerms_[~net].grad;
                }
                gradient[k] = acc;
            }
        },
        ThreadPool::kGrainMedium);

    double total = 0.0;
    for (const NetTerm &term : netTerms_)
        total += term.value;
    return total;
}

double
WirelengthModel::hpwl(const std::vector<Vec2> &positions) const
{
    double total = 0.0;
    for (const Net &net : netlist_.nets()) {
        const Vec2 &pa = positions[net.a];
        const Vec2 &pb = positions[net.b];
        total += net.weight *
                 (std::abs(pa.x - pb.x) + std::abs(pa.y - pb.y));
    }
    return total;
}

} // namespace qplacer
