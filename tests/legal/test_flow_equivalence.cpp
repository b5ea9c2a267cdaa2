/**
 * @file
 * The certified flow refinement against the cold solver it replaced
 * (tests/oracles/flow): refineAssignment must reach the oracle's
 * optimum cost on every instance and return the oracle's assignment
 * bit for bit wherever that optimum is unique, and on the committed
 * ties. Instances cover both candidate-arc shapes (dense, and sparse k
 * nearest plus the own site) and both paths (identity certified,
 * solver fallback).
 */

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "legal/flow_refine.hpp"
#include "oracles/flow.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

constexpr double kPitchUm = 800.0;

/** Every size exact and dense. */
constexpr int kDense = std::numeric_limits<int>::max();
/** Sparse wherever n > 6. */
constexpr int kSparse = 6;

struct Instance
{
    std::vector<Vec2> desired;
    std::vector<Vec2> sites;
};

std::vector<int>
identity(std::size_t n)
{
    std::vector<int> out(n);
    std::iota(out.begin(), out.end(), 0);
    return out;
}

/** n lattice sites at kPitchUm, @p cols per row, row-major. */
std::vector<Vec2>
lattice(int n, int cols)
{
    std::vector<Vec2> sites;
    for (int i = 0; i < n; ++i)
        sites.emplace_back(kPitchUm * (i % cols), kPitchUm * (i / cols));
    return sites;
}

/** Each item within @p jitter pitches (per axis) of its lattice site. */
Instance
jittered(int n, int cols, double jitter, std::uint64_t seed)
{
    Rng rng(seed);
    Instance inst;
    inst.sites = lattice(n, cols);
    for (const Vec2 &s : inst.sites)
        inst.desired.push_back(
            s + Vec2(rng.uniform(-jitter, jitter) * kPitchUm,
                     rng.uniform(-jitter, jitter) * kPitchUm));
    return inst;
}

/**
 * Spiral-like output: each item within a quarter pitch (per axis) of
 * its own lattice site. The own site is at most half a pitch away and
 * every other one at least three quarters, so the identity is the
 * unique optimum.
 */
Instance
nearIdentity(int n, int cols, std::uint64_t seed)
{
    return jittered(n, cols, 0.25, seed);
}

/**
 * A spiral that left work undone: nearIdentity with @p swaps random
 * pairs of horizontally adjacent sites exchanged, so the identity is
 * beaten and the solver must undo the swaps.
 */
Instance
displaced(int n, int cols, int swaps, std::uint64_t seed)
{
    Instance inst = nearIdentity(n, cols, seed);
    Rng rng(seed + 1000);
    for (int k = 0; k < swaps; ++k) {
        const auto i = static_cast<int>(rng.below(n - 1));
        if ((i + 1) % cols != 0)
            std::swap(inst.sites[i], inst.sites[i + 1]);
    }
    return inst;
}

/** Items and sites uniform over a box: the identity rarely wins. */
Instance
scattered(int n, std::uint64_t seed)
{
    Rng rng(seed);
    const double side = kPitchUm * std::sqrt(static_cast<double>(n));
    Instance inst;
    for (int i = 0; i < n; ++i) {
        inst.desired.emplace_back(rng.uniform(0, side), rng.uniform(0, side));
        inst.sites.emplace_back(rng.uniform(0, side), rng.uniform(0, side));
    }
    return inst;
}

/** Items and sites on a coarse 4x4 grid of points: ties abound. */
Instance
coarse(int n, std::uint64_t seed)
{
    Rng rng(seed);
    const auto point = [&rng] {
        return Vec2(100.0 * static_cast<double>(rng.below(4)),
                    100.0 * static_cast<double>(rng.below(4)));
    };
    Instance inst;
    for (int i = 0; i < n; ++i) {
        inst.desired.push_back(point());
        inst.sites.push_back(point());
    }
    return inst;
}

/** Whether the identity is the unique optimum, by the oracle's check. */
bool
identityIsUnique(const Instance &inst, int neighbors)
{
    return oracle::isUniqueOptimum(
        inst.desired, inst.sites,
        oracle::candidateSitesReference(inst.desired, inst.sites, neighbors),
        identity(inst.desired.size()));
}

/**
 * refineAssignment against the cold oracle on @p inst: a permutation
 * over the candidate arcs, at the oracle's cost, and equal to it bit
 * for bit when the oracle's optimum is unique.
 *
 * @return whether that optimum was unique.
 */
bool
expectEquivalent(const Instance &inst, int neighbors, const std::string &what)
{
    const std::vector<int> fast =
        refineAssignment(inst.desired, inst.sites, neighbors);
    const std::vector<int> cold =
        oracle::refineAssignmentCold(inst.desired, inst.sites, neighbors);
    const oracle::Candidates candidates =
        oracle::candidateSitesReference(inst.desired, inst.sites, neighbors);

    EXPECT_EQ(fast.size(), inst.desired.size()) << what;
    EXPECT_EQ(std::set<int>(fast.begin(), fast.end()).size(), fast.size())
        << what;
    for (std::size_t i = 0; i < fast.size(); ++i) {
        const auto &cand = candidates[i];
        EXPECT_NE(std::find(cand.begin(), cand.end(), fast[i]), cand.end())
            << what << ": item " << i << " took a non-candidate site";
    }
    EXPECT_EQ(oracle::assignmentCost(inst.desired, inst.sites, fast),
              oracle::assignmentCost(inst.desired, inst.sites, cold))
        << what;

    const bool unique =
        oracle::isUniqueOptimum(inst.desired, inst.sites, candidates, cold);
    if (unique) {
        EXPECT_EQ(fast, cold) << what;
    }
    return unique;
}

TEST(FlowEquivalence, NearIdentityKeepsTheSpiralAssignment)
{
    // The certificate path: the identity is the unique optimum.
    for (const int k : {kDense, kSparse}) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            for (const auto &[n, cols] :
                 {std::pair{9, 3}, {40, 7}, {100, 10}}) {
                const std::string what =
                    "seed " + std::to_string(seed) + " n " +
                    std::to_string(n) + " k " + std::to_string(k);
                const Instance inst = nearIdentity(n, cols, seed);
                ASSERT_TRUE(identityIsUnique(inst, k)) << what;
                EXPECT_TRUE(expectEquivalent(inst, k, what));
                EXPECT_EQ(refineAssignment(inst.desired, inst.sites, k),
                          identity(n))
                    << what;
            }
        }
    }
}

TEST(FlowEquivalence, ScatteredFallsBackToTheSolver)
{
    int unique = 0;
    int moved = 0;
    for (const int k : {kDense, kSparse}) {
        for (std::uint64_t seed = 1; seed <= 30; ++seed) {
            const int n = 4 + static_cast<int>(seed % 12);
            const std::string what = "seed " + std::to_string(seed) +
                                     " k " + std::to_string(k);
            const Instance inst = scattered(n, seed);
            unique += expectEquivalent(inst, k, what);
            moved += oracle::refineAssignmentCold(inst.desired, inst.sites,
                                                  k) != identity(n);
        }
    }
    // The identity loses on (nearly) every instance, so the solver
    // runs. Manhattan costs tie often (two items on the same side of
    // two sites pay the same either way round), yet enough optima are
    // unique for the bitwise half of the check to run.
    EXPECT_GE(moved, 55);
    EXPECT_GE(unique, 30);
}

TEST(FlowEquivalence, CoarseGridTiesKeepTheOptimumCost)
{
    int tied = 0;
    for (const int k : {kDense, kSparse}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            const std::string what = "seed " + std::to_string(seed) +
                                     " k " + std::to_string(k);
            tied += !expectEquivalent(coarse(12, seed), k, what);
        }
    }
    EXPECT_GT(tied, 0); // the cost-only half of the check ran too
}

TEST(FlowEquivalence, UniqueDenseOptimumSurvivesSparseArcs)
{
    // Why one candidate rule at every size keeps the layouts: the k
    // nearest sites plus the own site are a subgraph of the dense
    // exchange graph, so an identity that is the unique optimum over
    // all n^2 arcs is also the unique optimum over the sparse arcs,
    // and the sparse refinement must return it. Each scattered and
    // coarse instance (plus lattices with items up to 0.6 pitch off
    // their sites, large enough for k = 16 to be sparse too) gets its
    // sites relabelled by the dense optimum, which makes the identity
    // optimal.
    std::vector<Instance> instances;
    for (std::uint64_t seed = 1; seed <= 30; ++seed)
        instances.push_back(scattered(4 + static_cast<int>(seed % 12), seed));
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        instances.push_back(coarse(12, seed));
    for (int n = 20; n <= 56; n += 4)
        instances.push_back(jittered(n, 6, 0.6, n));

    int unique = 0;
    int checked16 = 0;
    for (std::size_t c = 0; c < instances.size(); ++c) {
        Instance inst = instances[c];
        const std::vector<int> dense =
            oracle::refineAssignmentCold(inst.desired, inst.sites, kDense);
        const std::vector<Vec2> sites = inst.sites;
        for (std::size_t i = 0; i < dense.size(); ++i)
            inst.sites[i] = sites[dense[i]];
        const int n = static_cast<int>(inst.desired.size());
        if (!identityIsUnique(inst, kDense))
            continue;
        ++unique;
        for (const int k : {2, 6, 16}) {
            if (n <= k)
                continue;
            checked16 += k == 16;
            EXPECT_EQ(refineAssignment(inst.desired, inst.sites, k),
                      identity(n))
                << "instance " << c << " n " << n << " k " << k;
        }
    }
    // Manhattan ties leave many scattered and coarse optima shared;
    // enough are unique for the check to run at every k.
    EXPECT_GE(unique, 25);
    EXPECT_GE(checked16, 8);
}

TEST(FlowEquivalence, ThousandQubitShape)
{
    // The classic-1k legalizer's shape: 1,024 qubits on a 32x32 grid,
    // with the legalizer's arcs (16 nearest plus own site).
    const int k = 16;

    const Instance clean = nearIdentity(1024, 32, 7);
    ASSERT_TRUE(identityIsUnique(clean, k));
    EXPECT_TRUE(expectEquivalent(clean, k, "clean"));
    EXPECT_EQ(refineAssignment(clean.desired, clean.sites, k), identity(1024));

    const Instance swapped = displaced(1024, 32, 40, 7);
    ASSERT_FALSE(identityIsUnique(swapped, k));
    EXPECT_TRUE(expectEquivalent(swapped, k, "swapped"));
    EXPECT_NE(refineAssignment(swapped.desired, swapped.sites, k),
              identity(1024));
}

TEST(FlowEquivalence, EquidistantSwapTie)
{
    // Both items are 100 um from both sites: the identity and the swap
    // tie, so the certificate must decline and leave the tie to the
    // solver, which breaks it as the cold solver does. (Two items have
    // no sparse shape with both arcs: one neighbour plus the own site
    // leaves item 0 a single choice.)
    Instance inst;
    inst.desired = {{0, 0}, {100, 0}};
    inst.sites = {{50, 50}, {50, -50}};
    EXPECT_FALSE(expectEquivalent(inst, kDense, "swap"));
    const std::vector<int> fast =
        refineAssignment(inst.desired, inst.sites, kDense);
    EXPECT_EQ(fast,
              oracle::refineAssignmentCold(inst.desired, inst.sites, kDense));
    EXPECT_EQ(oracle::assignmentCost(inst.desired, inst.sites, fast), 200);
}

TEST(FlowEquivalence, SquareOfFourTie)
{
    // Items on the edge midpoints of a square, sites on its corners:
    // item i is 50 um from corners i and i + 1, so the identity ties
    // with the rotation by one corner.
    Instance inst;
    inst.desired = {{50, 0}, {100, 50}, {50, 100}, {0, 50}};
    inst.sites = {{0, 0}, {100, 0}, {100, 100}, {0, 100}};
    for (const int k : {kDense, 2}) {
        EXPECT_FALSE(expectEquivalent(inst, k, "square"));
        const std::vector<int> fast =
            refineAssignment(inst.desired, inst.sites, k);
        EXPECT_EQ(fast, oracle::refineAssignmentCold(inst.desired,
                                                     inst.sites, k));
        EXPECT_EQ(oracle::assignmentCost(inst.desired, inst.sites, fast), 200);
    }
}

TEST(FlowEquivalence, OneSidedTieFollowsTheColdSolver)
{
    // Every item lies left of every site, so all assignments cost the
    // same, and the cold solver's tie-break is not the identity (its
    // first, cheapest path gives the nearest site to the last item).
    // A certificate that let a tie through would keep the identity.
    Instance inst;
    for (int i = 0; i < 4; ++i) {
        inst.desired.emplace_back(10.0 * i, 0.0);
        inst.sites.emplace_back(100.0 * (i + 1), 0.0);
    }
    for (const int k : {kDense, 3}) {
        EXPECT_FALSE(expectEquivalent(inst, k, "one-sided"));
        const std::vector<int> fast =
            refineAssignment(inst.desired, inst.sites, k);
        EXPECT_EQ(fast, oracle::refineAssignmentCold(inst.desired,
                                                     inst.sites, k));
        EXPECT_NE(fast, identity(4));
    }
}

TEST(FlowEquivalence, ChainBeyondThePassBudgetStaysExact)
{
    // Item i sits on its site's x, 200 (n - i) um above it: every
    // permutation pays the same vertical sum, so the identity is the
    // unique optimum, yet item i + 1 is nearer site i than item i is.
    // With 3 neighbours the exchange graph is a chain of negative arcs
    // against the index order, whose potentials settle one node per
    // pass: the certificate runs out of passes, declines, and the
    // solver must still return the identity. Dense, the direct arc
    // from the last item settles them in one pass.
    const int n = 100;
    Instance inst;
    for (int i = 0; i < n; ++i) {
        inst.sites.emplace_back(100.0 * i, 0.0);
        inst.desired.emplace_back(100.0 * i, 200.0 * (n - i));
    }
    for (const int k : {kDense, 3}) {
        ASSERT_TRUE(identityIsUnique(inst, k));
        EXPECT_TRUE(expectEquivalent(inst, k, "chain"));
        EXPECT_EQ(refineAssignment(inst.desired, inst.sites, k), identity(n));
    }
}

} // namespace
} // namespace qplacer
