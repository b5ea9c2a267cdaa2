/**
 * @file
 * Frequency assigner (Fig. 7a): allocates frequencies to qubits and
 * coupling resonators so that all *interconnected* components are
 * detuned by more than the threshold.
 *
 * Interference graph: coupled qubit pairs, optionally augmented with
 * distance-2 pairs (spectator collisions), coloured with DSATUR. Colours
 * map to slot frequencies; when the device needs more colours than the
 * band has slots, slots are reused round-robin -- the resulting same-
 * frequency components are graph-distant and become the placement
 * engine's spatial-isolation workload.
 *
 * Scaling: DSATUR selects candidates from an ordered saturation heap
 * with per-node colour bitsets (O((n + m) log n)), and the resonator
 * share graph is built from per-qubit incident-coupler lists
 * (O(sum deg^2)). The pre-scaling linear-scan DSATUR and all-pairs
 * loops are the oracles in tests/oracles/assign; ctest -L assign
 * requires identical colourings and violation counts.
 */

#ifndef QPLACER_FREQ_ASSIGNER_HPP
#define QPLACER_FREQ_ASSIGNER_HPP

#include <vector>

#include "freq/spectrum.hpp"
#include "topology/topology.hpp"

namespace qplacer {

/** Frequencies chosen for one device. */
struct FrequencyAssignment
{
    /** Frequency per qubit (Hz), indexed by topology qubit id. */
    std::vector<double> qubitFreqHz;

    /** Frequency per coupler/resonator (Hz), indexed by edge id. */
    std::vector<double> resonatorFreqHz;

    /** Colour per qubit (diagnostic). */
    std::vector<int> qubitColor;

    /** Colour per resonator (diagnostic). */
    std::vector<int> resonatorColor;

    /** Number of distinct qubit frequencies used. */
    int numQubitSlots = 0;

    /** Number of distinct resonator frequencies used. */
    int numResonatorSlots = 0;
};

/**
 * Sub-stage wall clocks of one assign() call, surfaced through
 * FlowResult as "assign.stages" in qplacer_cli --report json.
 */
struct AssignStats
{
    double interferenceSeconds = 0.0;   ///< Qubit interference graph.
    double qubitColorSeconds = 0.0;     ///< Qubit DSATUR + slot mapping.
    double resonatorGraphSeconds = 0.0; ///< Resonator share graph.
    double resonatorColorSeconds = 0.0; ///< Resonator DSATUR + slots.
};

/** Parameters of the frequency assigner. */
struct AssignerParams
{
    FrequencyBand qubitBand = FrequencyBand::qubitBand();
    FrequencyBand resonatorBand = FrequencyBand::resonatorBand();
    double detuningThresholdHz = kDetuningThresholdHz;

    /** Also separate distance-2 qubit pairs in frequency when possible. */
    bool distance2 = true;
};

/** Graph-colouring frequency assigner. */
class FrequencyAssigner
{
  public:
    explicit FrequencyAssigner(AssignerParams params = {});

    /**
     * Assign frequencies for @p topo. @p stats (optional) receives the
     * sub-stage wall clocks of this call.
     */
    FrequencyAssignment assign(const Topology &topo,
                               AssignStats *stats = nullptr) const;

    /**
     * DSATUR greedy colouring of @p graph; returns colour per node.
     * Selection order -- maximum saturation, then maximum degree, then
     * smallest index -- is implemented with an ordered candidate set
     * and per-node colour bitsets. Exposed for testing.
     */
    static std::vector<int> dsatur(const Graph &graph);

  private:
    /**
     * Map colours to slot frequencies. When the colour count exceeds
     * the band's slot capacity, slots are reused -- but never between
     * colour classes joined by a *hard* edge (direct couplings), so the
     * frequency-domain isolation of connected components survives
     * crowding. When even the hard chromatic number exceeds the slot
     * count, hard classes alias slots round-robin (deterministically,
     * one slot per class) and the unavoidable still-resonant coupled
     * pairs are counted and reported once.
     */
    std::vector<double>
    colorsToFrequencies(const std::vector<int> &colors,
                        const Graph &hard_edges,
                        const FrequencyBand &band, int *slots_used) const;

    AssignerParams params_;
};

} // namespace qplacer

#endif // QPLACER_FREQ_ASSIGNER_HPP
