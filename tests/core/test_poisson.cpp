#include <gtest/gtest.h>

#include "core/poisson.hpp"

namespace qplacer {
namespace {

TEST(Poisson, FieldPointsAwayFromCharge)
{
    const int n = 32;
    PoissonSolver solver(n, n, 1000, 1000);
    std::vector<double> rho(n * n, 0.0);
    rho[(n / 2) * n + n / 2] = 1.0;
    const auto &sol = solver.solve(rho);
    // Right of the charge the x-field is positive (repulsive).
    EXPECT_GT(sol.fieldX[(n / 2) * n + n / 2 + 4], 0.0);
    EXPECT_LT(sol.fieldX[(n / 2) * n + n / 2 - 4], 0.0);
    EXPECT_GT(sol.fieldY[(n / 2 + 4) * n + n / 2], 0.0);
    EXPECT_LT(sol.fieldY[(n / 2 - 4) * n + n / 2], 0.0);
}

TEST(Poisson, RejectsBadInputs)
{
    EXPECT_THROW(PoissonSolver(12, 32, 100, 100), std::logic_error);
    PoissonSolver solver(16, 16, 100, 100);
    EXPECT_THROW(solver.solve(std::vector<double>(10, 0.0)),
                 std::logic_error);
}

} // namespace
} // namespace qplacer
