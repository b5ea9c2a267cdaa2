/**
 * @file
 * Spectral Poisson solver on a rectangular grid with Neumann boundary
 * conditions (the electrostatics of ePlace, Eq. under Sec. IV-C1).
 *
 * Given a charge density map rho, solves
 *     laplacian(psi) = -rho
 * by expanding rho in the cosine eigenbasis cos(w_u x) cos(w_v y),
 * dividing by (w_u^2 + w_v^2), and evaluating the field
 * xi = -grad(psi) via the DCT/DST kernels of math/dct_plan. The density
 * force only ever moves instances along xi, so the potential psi itself
 * is never synthesized: a solve is one forward 2-D DCT plus one mixed
 * sine/cosine series per field component (6 row/column passes).
 *
 * The solver grabs the cached DctPlans for its row/column lengths at
 * construction and runs every transform pass through them with owned,
 * reusable scratch (see math/dct_plan). The passes transform eight
 * lines at a time in split-format lanes: a column pass reads eight
 * adjacent columns as contiguous row segments of the map, with no
 * strided gather, and a row pass transposes eight rows into a block.
 * Each lane repeats the single-line kernel's operations in its order,
 * so batching changes no bit. Its input and output maps are
 * solver-owned too, so after the first solve nothing allocates. The
 * plan-free solve that also synthesizes psi is the tests' oracle
 * (tests/oracles/spectral); the field maps match it bit for bit.
 */

#ifndef QPLACER_CORE_POISSON_HPP
#define QPLACER_CORE_POISSON_HPP

#include <memory>
#include <vector>

#include "math/dct_plan.hpp"

namespace qplacer {

class ThreadPool;

/** Solves the screened-free Poisson problem on an nx x ny grid. */
class PoissonSolver
{
  public:
    /**
     * @param nx, ny    Grid dimensions (powers of two).
     * @param width     Physical region width (um).
     * @param height    Physical region height (um).
     * @param pool      Worker pool for the row/column transform passes
     *                  (null = serial). Not owned; must outlive the
     *                  solver. Results are bitwise-identical for any
     *                  thread count (rows/columns are independent).
     */
    PoissonSolver(int nx, int ny, double width, double height,
                  ThreadPool *pool = nullptr);

    /** Result maps, row-major (index = iy*nx + ix). */
    struct Solution
    {
        std::vector<double> fieldX; ///< xi_x = -d(psi)/dx.
        std::vector<double> fieldY; ///< xi_y = -d(psi)/dy.
    };

    /**
     * Solve for the given density map (row-major, size nx*ny): copies
     * it into input() and runs solve(). The mean (DC) component is
     * dropped, as standard: only deviations from the average density
     * generate forces.
     *
     * The returned maps are solver-owned and stay valid until the next
     * solve. Concurrent solve() calls on the same instance must be
     * externally synchronized (distinct instances are independent).
     */
    const Solution &solve(const std::vector<double> &density) const;

    /**
     * Solve for the density map already written into input(); the
     * transform consumes input() in place.
     */
    const Solution &solve() const;

    /**
     * The density map the argument-free solve() reads (row-major, size
     * nx*ny). Callers that build the density anyway write it here and
     * skip the copy.
     */
    std::vector<double> &input() { return input_; }

    int nx() const { return nx_; }
    int ny() const { return ny_; }

  private:
    int nx_;
    int ny_;
    double width_;
    double height_;
    ThreadPool *pool_; ///< Transform worker pool (null = serial).
    std::vector<double> wu_; ///< Eigen-frequencies along x.
    std::vector<double> wv_; ///< Eigen-frequencies along y.
    std::shared_ptr<const DctPlan> rowPlan_; ///< Plan for length nx.
    std::shared_ptr<const DctPlan> colPlan_; ///< Plan for length ny.
    mutable DctScratch scratch_; ///< Per-chunk transform workspaces.
    /** Density in, eigenbasis coefficients after the forward pass. */
    mutable std::vector<double> input_;
    mutable Solution solution_; ///< Field maps of the last solve.
};

} // namespace qplacer

#endif // QPLACER_CORE_POISSON_HPP
