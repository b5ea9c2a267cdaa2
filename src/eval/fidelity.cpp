#include "eval/fidelity.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "physics/coupling.hpp"
#include "util/logging.hpp"

namespace qplacer {

FidelityModel::FidelityModel(FidelityParams params)
    : params_(params)
{
}

FidelityBreakdown
FidelityModel::evaluate(const Netlist &netlist,
                        const HotspotReport &hotspots,
                        const MappedCircuit &mapped,
                        const Schedule &schedule) const
{
    FidelityBreakdown out;
    const auto &instances = netlist.instances();

    std::vector<char> active(netlist.numQubits(), 0);
    for (int q : mapped.activeQubits)
        active[q] = 1;

    // --- eps_q: gate error + decoherence per active qubit. ---
    for (int q : mapped.activeQubits) {
        const double gate_err =
            1.0 -
            std::pow(1.0 - params_.gate1qError, mapped.gates1q[q]) *
                std::pow(1.0 - params_.gate2qError, mapped.gates2q[q]);
        out.gateFidelity *= 1.0 - std::min(gate_err, 1.0);

        // Worst case: the qubit must hold state for the whole program.
        const double dec_err =
            params_.decoherence.errorOver(schedule.durationS);
        out.decoherenceFidelity *= 1.0 - dec_err;
    }

    // Active resonators: those carrying at least one 2q gate.
    std::set<int> active_resonators;
    for (const Resonator &res : netlist.resonators()) {
        if (res.edge >= 0 &&
            res.edge < static_cast<int>(schedule.edgeBusyS.size()) &&
            schedule.edgeBusyS[res.edge] > 0.0) {
            active_resonators.insert(res.id);
        }
    }

    // --- eps_g / eps_r over spatial violations. ---
    // Deduplicate resonator violations to the resonator-pair level
    // (many segment pairs can witness the same physical violation).
    std::set<std::pair<int, int>> seen_res_pairs;

    for (const HotspotPair &pair : hotspots.pairs) {
        const Instance &a = instances[pair.a];
        const Instance &b = instances[pair.b];
        const bool a_qubit = a.kind == InstanceKind::Qubit;
        const bool b_qubit = b.kind == InstanceKind::Qubit;

        if (a_qubit && b_qubit) {
            // Qubit-qubit crosstalk: the error lands on the active
            // qubit; inactive-only pairs cannot harm the program.
            if (!active[a.id] && !active[b.id])
                continue;
            const double cp = params_.qubitCp.cp(pair.distUm);
            const double g = couplingStrength(a.freqHz, b.freqHz, cp,
                                              kQubitCapFf, kQubitCapFf);
            const double eps = std::min(
                params_.crosstalkCap,
                worstCaseTransition(g, a.freqHz - b.freqHz,
                                    schedule.durationS));
            out.qubitCrosstalk *= 1.0 - eps;
            ++out.violatedQubitPairs;
        } else if (!a_qubit && !b_qubit) {
            // Resonator-resonator crosstalk; count once per resonator
            // pair, only if at least one resonator is in use. The pair's
            // eps comes from its first witness in hotspots.pairs order,
            // ascending (a, b) (see analyzeHotspots).
            const auto key = std::make_pair(
                std::min(a.resonator, b.resonator),
                std::max(a.resonator, b.resonator));
            if (seen_res_pairs.count(key))
                continue;
            if (!active_resonators.count(a.resonator) &&
                !active_resonators.count(b.resonator))
                continue;
            seen_res_pairs.insert(key);
            const double cp = params_.resonatorCp.cp(pair.distUm);
            const double g =
                couplingStrength(a.freqHz, b.freqHz, cp, kResonatorCapFf,
                                 kResonatorCapFf);
            const double eps = std::min(
                params_.crosstalkCap,
                worstCaseTransition(g, a.freqHz - b.freqHz,
                                    schedule.durationS));
            out.resonatorCrosstalk *= 1.0 - eps;
            ++out.violatedResonatorPairs;
        }
        // Qubit-segment pairs never resonate: the bands are disjoint.
    }

    out.total = out.gateFidelity * out.decoherenceFidelity *
                out.qubitCrosstalk * out.resonatorCrosstalk;
    return out;
}

} // namespace qplacer
