/**
 * @file
 * Min-cost-flow refinement of the qubit legalization ([88] in the
 * paper): all legalized qubit sites are pooled and qubits are
 * re-assigned to sites so the total displacement from their global-
 * placement positions is minimized. Qubits share one footprint, so any
 * permutation of sites stays legal.
 *
 * The candidate arcs of item i are every site (in index order) up to
 * FlowRefineOptions::sparseThreshold items, and above it its k nearest
 * pooled sites (CellList::kNearest, nearest first, ties to the lower
 * site index, so each list is unique) plus its own spiral site; the
 * own-site arc keeps the identity feasible, so the sparse solve never
 * fails -- it is simply allowed to return a (near-optimal) assignment
 * instead of the exact optimum.
 *
 * The spiral output is usually already the optimum (on the paper
 * devices and on grid8x8 to grid32x32 it is), so the refinement first
 * tries to certify it: when it can prove that the identity assignment
 * is the unique min-cost assignment over those arcs (integer costs,
 * llround of the Manhattan distance), the identity is returned without
 * building a flow network, after a few linear passes over the arcs.
 * Any exact solver would return that same unique optimum, so the
 * certificate never changes a result. Only when it fails (a cheaper
 * assignment, a tie, or no proof within a fixed pass budget) does the
 * min-cost flow (math/min_cost_flow) run over the same arcs.
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
 * sites plus item i's own site i) above it. The identity when it is
 * certified to be the unique optimum, else a min-cost flow solve; the
 * own-site arc makes that flow saturate for any input.
 *
 * @return site index per item.
 */
std::vector<int> refineAssignment(const std::vector<Vec2> &desired,
                                  const std::vector<Vec2> &sites,
                                  const FlowRefineOptions &options);

} // namespace qplacer

#endif // QPLACER_LEGAL_FLOW_REFINE_HPP
