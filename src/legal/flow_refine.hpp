/**
 * @file
 * Min-cost-flow refinement of the qubit legalization ([88] in the
 * paper): all legalized qubit sites are pooled and qubits are
 * re-assigned to sites so the total displacement from their global-
 * placement positions is minimized. Qubits share one footprint, so any
 * permutation of sites stays legal.
 *
 * One solver builds, solves and reads back the flow network from a
 * per-qubit candidate-site list; only the list differs by scale. The
 * exact formulation is dense (every site, in index order: n^2 arcs),
 * which dominates legalization wall-time past a few hundred qubits.
 * Above FlowRefineOptions::sparseThreshold each qubit's candidates are
 * its k nearest pooled sites (CellList::kNearest, nearest first, ties
 * to the lower site index, so each list is unique) plus its own spiral
 * site; the own-site arc guarantees a perfect matching always exists,
 * so the sparse solve never fails -- it is simply allowed to return a
 * (near-optimal) assignment instead of the exact optimum.
 */

#ifndef QPLACER_LEGAL_FLOW_REFINE_HPP
#define QPLACER_LEGAL_FLOW_REFINE_HPP

#include <vector>

#include "geometry/vec2.hpp"

namespace qplacer {

/** Scaling knobs of refineAssignment (see LegalizerParams). */
struct FlowRefineOptions
{
    /**
     * Problem size above which candidate arcs go sparse; sizes at or
     * below it solve the exact dense assignment. 0 = always sparse.
     */
    int sparseThreshold = 512;

    /** Nearest candidate sites per qubit on the sparse path. */
    int neighbors = 16;
};

/**
 * Assignment of @p desired positions to @p sites (equal sizes)
 * minimizing total Manhattan displacement: the exact optimum at sizes
 * up to @p options.sparseThreshold, sparse candidate arcs (k nearest
 * sites plus item i's own site i) above it. The own-site arc makes the
 * flow saturate for any input.
 *
 * @return site index per item.
 */
std::vector<int> refineAssignment(const std::vector<Vec2> &desired,
                                  const std::vector<Vec2> &sites,
                                  const FlowRefineOptions &options);

} // namespace qplacer

#endif // QPLACER_LEGAL_FLOW_REFINE_HPP
