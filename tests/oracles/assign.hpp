/**
 * @file
 * Frequency-assigner oracles: the pre-scaling linear-scan DSATUR and
 * the all-pairs graph loops that FrequencyAssigner replaced with a
 * saturation heap and per-qubit incident lists. The assign
 * equivalence suite (tests/freq/test_assign_equivalence.cpp,
 * ctest -L assign) requires identical colourings and violation counts.
 */

#ifndef QPLACER_TESTS_ORACLES_ASSIGN_HPP
#define QPLACER_TESTS_ORACLES_ASSIGN_HPP

#include <vector>

#include "freq/assigner.hpp"
#include "topology/graph.hpp"
#include "topology/topology.hpp"

namespace qplacer::oracle {

/**
 * DSATUR by an O(n) linear scan per selection over per-node std::set
 * colour sets: maximum saturation, then maximum degree, then smallest
 * index; smallest colour not used by a neighbour.
 */
std::vector<int> dsaturReference(const Graph &graph);

/**
 * Qubit interference graph by an all-pairs scan: coupled pairs, plus
 * (with @p distance2) pairs with a common neighbour.
 */
Graph qubitInterferenceGraphAllPairs(const Graph &coupling,
                                     bool distance2);

/** Resonator share graph by an all-pairs scan over the couplers. */
Graph resonatorShareGraphAllPairs(const Graph &coupling);

/**
 * Coupled qubit pairs plus resonator pairs sharing a qubit that are
 * resonant under @p assignment, by an all-pairs scan over the couplers.
 */
int countDomainViolationsAllPairs(const Topology &topo,
                                  const FrequencyAssignment &assignment,
                                  double detuning_threshold_hz);

} // namespace qplacer::oracle

#endif // QPLACER_TESTS_ORACLES_ASSIGN_HPP
