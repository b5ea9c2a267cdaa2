/**
 * @file
 * Multi-start portfolio contract (ctest -L anneal):
 *
 *  - portfolio.seeds = 1 degrades to the exact single-seed flow,
 *  - replaying the winning seed through a serial flow reproduces the
 *    portfolio's layout bit for bit, and the winner does not depend on
 *    the intra-placement thread count,
 *  - portfolio + detailed placement never loses to the plain
 *    single-seed flow on the golden topologies (the base seed is
 *    exempt from pruning and the annealer never worsens HPWL, so this
 *    holds deterministically, not just in expectation),
 *  - disabling the detailed stage and running it with iters = 0 are
 *    the same flow, bitwise.
 */

#include <gtest/gtest.h>

#include "legal/anneal.hpp"
#include "pipeline/session.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

FlowParams
quickParams(std::uint64_t seed, int max_iters)
{
    FlowParams params;
    params.placer.seed = seed;
    params.placer.maxIters = max_iters;
    params.placer.threads = 1;
    return params;
}

TEST(Portfolio, SeedsOneIsExactlyTheSingleSeedFlow)
{
    const Topology topo = makeGrid(4, 4);
    const FlowParams params = quickParams(5, 150);

    PlacementSession session;
    const FlowResult plain = session.run(topo, params);
    const FlowResult portfolio = session.runPortfolio(topo, params, 1);

    ASSERT_TRUE(plain.status.ok());
    ASSERT_TRUE(portfolio.status.ok());
    EXPECT_FALSE(portfolio.portfolioStats.portfolio);
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, portfolio.netlist));
    EXPECT_EQ(plain.place.finalHpwl, portfolio.place.finalHpwl);
    EXPECT_EQ(plain.hotspots.phPercent, portfolio.hotspots.phPercent);
}

TEST(Portfolio, WinnerReplayIsBitwiseIdenticalToSerialRun)
{
    const Topology topo = makeGrid(4, 4);
    FlowParams params = quickParams(1, 200);
    params.detailed.enabled = true;
    params.detailed.iters = 10;

    SessionParams sparams;
    sparams.workers = 2;
    PlacementSession session(sparams);
    const FlowResult result = session.runPortfolio(topo, params, 4);
    ASSERT_TRUE(result.status.ok());
    ASSERT_TRUE(result.portfolioStats.portfolio);

    // Replay the winning seed through an independent serial flow with
    // the same knobs: the portfolio's layout must reproduce bit for
    // bit (every candidate runs single-threaded for exactly this).
    FlowParams replay = params;
    replay.placer.seed = result.portfolioStats.winnerSeed;
    const FlowResult serial = QplacerFlow(replay).run(topo);
    ASSERT_TRUE(serial.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(serial.netlist, result.netlist));
    EXPECT_EQ(serial.place.finalHpwl, result.place.finalHpwl);
}

TEST(Portfolio, SerialWorkersWinnerIsThreadCountInvariant)
{
    // With workers = 1 the probes and full runs keep the requested
    // intra-placement thread count. A layout depends only on
    // (topology, params, seed), so 4 threads return the 1-thread
    // winner bit for bit. grid8x8 is above the parallel grains, so the
    // 4-thread run really is chunked.
    const Topology topo = makeGrid(8, 8);
    SessionParams sparams;
    sparams.workers = 1;

    FlowParams params = quickParams(1, 120);
    PlacementSession serial_session(sparams);
    const FlowResult serial = serial_session.runPortfolio(topo, params, 3);

    params.placer.threads = 4;
    PlacementSession threaded_session(sparams);
    const FlowResult threaded =
        threaded_session.runPortfolio(topo, params, 3);

    ASSERT_TRUE(serial.status.ok());
    ASSERT_TRUE(threaded.status.ok());
    EXPECT_EQ(serial.portfolioStats.winnerSeed,
              threaded.portfolioStats.winnerSeed);
    EXPECT_TRUE(bitwiseSameLayout(serial.netlist, threaded.netlist));
    EXPECT_EQ(serial.place.finalHpwl, threaded.place.finalHpwl);
}

TEST(Portfolio, StatsDescribeEveryCandidate)
{
    const Topology topo = makeGrid(4, 4);
    const FlowParams params = quickParams(1, 200);

    PlacementSession session;
    const FlowResult result = session.runPortfolio(topo, params, 4);
    ASSERT_TRUE(result.status.ok());

    const PortfolioStats &stats = result.portfolioStats;
    EXPECT_EQ(stats.seeds, 4);
    ASSERT_EQ(stats.candidates.size(), 4u);
    int winners = 0;
    for (std::size_t i = 0; i < stats.candidates.size(); ++i) {
        const PortfolioCandidate &cand = stats.candidates[i];
        EXPECT_EQ(cand.seed, 1 + static_cast<std::uint64_t>(i));
        if (cand.winner) {
            ++winners;
            EXPECT_TRUE(cand.ranFull);
            EXPECT_EQ(cand.seed, stats.winnerSeed);
        }
        if (!cand.ranFull) {
            EXPECT_GT(cand.prunedAtIters, 0);
        }
    }
    EXPECT_EQ(winners, 1);
    // The base seed never gets pruned: the portfolio dominance
    // guarantee rests on it always running to completion.
    EXPECT_TRUE(stats.candidates[0].ranFull);
}

void
checkPortfolioDominatesSingleSeed(const Topology &topo, int max_iters)
{
    const FlowParams single_params = quickParams(1, max_iters);
    PlacementSession session;
    const FlowResult single = session.run(topo, single_params);
    ASSERT_TRUE(single.status.ok());

    FlowParams portfolio_params = single_params;
    portfolio_params.detailed.enabled = true;
    portfolio_params.detailed.iters = 15;
    const FlowResult portfolio =
        session.runPortfolio(topo, portfolio_params, 3);
    ASSERT_TRUE(portfolio.status.ok());

    EXPECT_TRUE(portfolio.legal.legal);
    EXPECT_LE(layoutHpwl(portfolio.netlist), layoutHpwl(single.netlist));
}

TEST(Portfolio, DominatesSingleSeedOnGrid8x8)
{
    checkPortfolioDominatesSingleSeed(makeGrid(8, 8), /*max_iters=*/300);
}

TEST(Portfolio, DominatesSingleSeedOnHeavyHex3x5)
{
    checkPortfolioDominatesSingleSeed(makeHeavyHex(3, 5),
                                      /*max_iters=*/250);
}

TEST(Portfolio, DetailedDisabledEqualsZeroItersBitwise)
{
    // FlowParams::normalized contract: detailed.iters = 0 must be a
    // true no-op -- the same flow as detailed.enabled = false.
    const Topology topo = makeGrid(4, 4);
    FlowParams off = quickParams(9, 150);
    off.detailed.enabled = false;

    FlowParams zero = quickParams(9, 150);
    zero.detailed.enabled = true;
    zero.detailed.iters = 0;

    PlacementSession session;
    const FlowResult a = session.run(topo, off);
    const FlowResult b = session.run(topo, zero);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(a.netlist, b.netlist));
    EXPECT_FALSE(a.detailed.ran);
    EXPECT_FALSE(b.detailed.ran);
    EXPECT_EQ(a.place.finalHpwl, b.place.finalHpwl);
}

TEST(Portfolio, InvalidKnobsAreRejectedUpFront)
{
    const Topology topo = makeGrid(3, 3);
    PlacementSession session;

    FlowParams bad_frac = quickParams(1, 100);
    bad_frac.portfolio.seeds = 4;
    bad_frac.portfolio.keepFrac = 0.0;
    EXPECT_EQ(session.runPortfolio(topo, bad_frac).status.code,
              FlowCode::InvalidParams);

    FlowParams bad_decay = quickParams(1, 100);
    bad_decay.detailed.enabled = true;
    bad_decay.detailed.tempDecay = 1.5;
    EXPECT_EQ(session.run(topo, bad_decay).status.code,
              FlowCode::InvalidParams);
}

} // namespace
} // namespace qplacer
