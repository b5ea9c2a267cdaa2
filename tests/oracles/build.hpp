/**
 * @file
 * Netlist-builder oracle: the sequential append-order build that
 * NetlistBuilder replaced with prefix-summed offsets and a threaded
 * fill. The builder equivalence suites (tests/freq/
 * test_assign_equivalence.cpp, tests/netlist/test_builder_scale.cpp,
 * ctest -L assign) require bitwise-identical netlists.
 */

#ifndef QPLACER_TESTS_ORACLES_BUILD_HPP
#define QPLACER_TESTS_ORACLES_BUILD_HPP

#include "freq/assigner.hpp"
#include "netlist/netlist.hpp"
#include "netlist/partition.hpp"
#include "topology/topology.hpp"

namespace qplacer::oracle {

/**
 * The netlist NetlistBuilder::build must produce, appended one
 * instance, resonator and net at a time through the public Netlist API:
 * qubits first, then each coupler's segment chain with its qubit --
 * chain -- qubit nets, then warm-start positions.
 */
Netlist buildReference(const Topology &topo,
                       const FrequencyAssignment &freqs,
                       const PartitionParams &params, double target_util);

} // namespace qplacer::oracle

#endif // QPLACER_TESTS_ORACLES_BUILD_HPP
