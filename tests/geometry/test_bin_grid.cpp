#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "geometry/bin_grid.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

TEST(BinGrid, Construction)
{
    BinGrid g(Rect(0, 0, 100, 50), 10, 5);
    EXPECT_EQ(g.nx(), 10);
    EXPECT_EQ(g.ny(), 5);
    EXPECT_DOUBLE_EQ(g.binWidth(), 10.0);
    EXPECT_DOUBLE_EQ(g.binHeight(), 10.0);
    EXPECT_DOUBLE_EQ(g.binArea(), 100.0);
    EXPECT_DOUBLE_EQ(g.total(), 0.0);
}

TEST(BinGrid, SplatConservesCharge)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    g.splat(Rect(15, 15, 45, 35), 7.0);
    EXPECT_NEAR(g.total(), 7.0, 1e-9);
}

TEST(BinGrid, SplatWithinOneBin)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    g.splat(Rect(12, 12, 18, 18), 3.0);
    EXPECT_NEAR(g.at(1, 1), 3.0, 1e-9);
    EXPECT_NEAR(g.total(), 3.0, 1e-9);
}

TEST(BinGrid, SplatSplitsProportionally)
{
    BinGrid g(Rect(0, 0, 20, 10), 2, 1);
    // Rect spans 25% in the left bin, 75% in the right bin.
    g.splat(Rect(7.5, 0, 17.5, 10), 4.0);
    EXPECT_NEAR(g.at(0, 0), 1.0, 1e-9);
    EXPECT_NEAR(g.at(1, 0), 3.0, 1e-9);
}

TEST(BinGrid, OutOfRegionChargeIsShiftedIn)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    g.splat(Rect(-20, 40, 0, 60), 5.0); // entirely left of the region
    EXPECT_NEAR(g.total(), 5.0, 1e-9);
}

TEST(BinGrid, ClampIndices)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    EXPECT_EQ(g.clampX(-5), 0);
    EXPECT_EQ(g.clampX(105), 9);
    EXPECT_EQ(g.clampY(55), 5);
}

TEST(BinGrid, SampleAveragesOverFootprint)
{
    const BinGrid g(Rect(0, 0, 20, 10), 2, 1);
    const double map_x[] = {2.0, 6.0};
    const double map_y[] = {-1.0, 3.0};
    // Rect centered on the boundary: equal-weight average.
    const Vec2 mid = g.sample(Rect(5, 0, 15, 10), map_x, map_y);
    EXPECT_NEAR(mid.x, 4.0, 1e-9);
    EXPECT_NEAR(mid.y, 1.0, 1e-9);
    // Rect inside one bin: that bin's value.
    const Vec2 left = g.sample(Rect(1, 1, 5, 5), map_x, map_y);
    EXPECT_NEAR(left.x, 2.0, 1e-9);
    EXPECT_NEAR(left.y, -1.0, 1e-9);
    // Three-quarters in the right bin: a 1:3 weighting.
    const Vec2 right = g.sample(Rect(8, 0, 16, 10), map_x, map_y);
    EXPECT_NEAR(right.x, 5.0, 1e-9);
    EXPECT_NEAR(right.y, 2.0, 1e-9);
}

TEST(BinGrid, ClearResets)
{
    BinGrid g(Rect(0, 0, 10, 10), 2, 2);
    g.splat(Rect(0, 0, 10, 10), 4.0);
    g.clear();
    EXPECT_DOUBLE_EQ(g.total(), 0.0);
}

TEST(BinGrid, AtOutOfRangePanics)
{
    BinGrid g(Rect(0, 0, 10, 10), 2, 2);
    EXPECT_THROW(g.at(2, 0), std::logic_error);
    EXPECT_THROW(g.at(0, -1), std::logic_error);
}

// --- Separable weights against the per-bin rectangle intersection ---

/** A charge to splat: a rect and its amount. */
struct Charge
{
    Rect rect;
    double amount;
};

/**
 * splat() of every charge as it was defined before the weights were
 * made separable: each bin's weight is its own rectangle's overlap
 * area with the footprint.
 */
std::vector<double>
referenceSplat(const BinGrid &g, const std::vector<Charge> &charges)
{
    std::vector<double> data(static_cast<std::size_t>(g.nx()) * g.ny(),
                             0.0);
    for (const Charge &c : charges) {
        const BinGrid::Footprint fp = g.footprint(c.rect);
        const Rect &r = fp.rect;
        if (r.empty() || r.area() <= 0.0)
            continue;
        for (int iy = fp.iy0; iy <= fp.iy1; ++iy) {
            for (int ix = fp.ix0; ix <= fp.ix1; ++ix) {
                const double w = g.binRect(ix, iy).overlapArea(r) / r.area();
                if (w > 0.0)
                    data[static_cast<std::size_t>(iy) * g.nx() + ix] +=
                        c.amount * w;
            }
        }
    }
    return data;
}

/** sample() with per-bin rectangle weights. */
Vec2
referenceSample(const BinGrid &g, const Rect &rect, const double *mapX,
                const double *mapY)
{
    const BinGrid::Footprint fp = g.footprint(rect);
    if (fp.rect.empty())
        return Vec2();
    double acc_x = 0.0;
    double acc_y = 0.0;
    double wsum = 0.0;
    for (int iy = fp.iy0; iy <= fp.iy1; ++iy) {
        for (int ix = fp.ix0; ix <= fp.ix1; ++ix) {
            const double w = g.binRect(ix, iy).overlapArea(fp.rect);
            const std::size_t k = static_cast<std::size_t>(iy) * g.nx() + ix;
            acc_x += w * mapX[k];
            acc_y += w * mapY[k];
            wsum += w;
        }
    }
    return wsum > 0.0 ? Vec2(acc_x / wsum, acc_y / wsum) : Vec2();
}

/** Bins inside the charges' footprints that the rect does not overlap. */
int
zeroWeightBins(const BinGrid &g, const std::vector<Charge> &charges)
{
    int zeros = 0;
    for (const Charge &c : charges) {
        const BinGrid::Footprint fp = g.footprint(c.rect);
        if (fp.rect.empty())
            continue;
        for (int iy = fp.iy0; iy <= fp.iy1; ++iy)
            for (int ix = fp.ix0; ix <= fp.ix1; ++ix)
                zeros += g.binRect(ix, iy).overlapArea(fp.rect) == 0.0;
    }
    return zeros;
}

/** Splat and sample every charge; both must match the reference bits. */
void
expectMatchesReference(const Rect &region, int bins,
                       const std::vector<Charge> &charges)
{
    BinGrid g(region, bins, bins);
    for (const Charge &c : charges)
        g.splat(c.rect, c.amount);
    const std::vector<double> want = referenceSplat(g, charges);
    ASSERT_EQ(want.size(), g.data().size());
    EXPECT_EQ(0, std::memcmp(want.data(), g.data().data(),
                             want.size() * sizeof(double)));

    Rng rng(bins);
    std::vector<double> map_x(want.size());
    std::vector<double> map_y(want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        map_x[k] = rng.uniform(-3.0, 3.0);
        map_y[k] = rng.uniform(-3.0, 3.0);
    }
    for (const Charge &c : charges) {
        const Vec2 got = g.sample(c.rect, map_x.data(), map_y.data());
        const Vec2 ref =
            referenceSample(g, c.rect, map_x.data(), map_y.data());
        EXPECT_EQ(0, std::memcmp(&got.x, &ref.x, sizeof(double)));
        EXPECT_EQ(0, std::memcmp(&got.y, &ref.y, sizeof(double)));
    }
}

TEST(BinGridSeparable, RandomFootprintsMatchPerBinWeights)
{
    const Rect region(-1500.0, 200.0, 6500.0, 4200.0);
    Rng rng(7);
    std::vector<Charge> charges;
    for (int i = 0; i < 500; ++i) {
        const Vec2 c(rng.uniform(-2000.0, 7000.0),
                     rng.uniform(-300.0, 4700.0));
        charges.push_back({Rect::fromCenter(c, rng.uniform(1.0, 600.0),
                                            rng.uniform(1.0, 600.0)),
                           rng.uniform(0.5, 5.0)});
    }
    expectMatchesReference(region, 64, charges);
    expectMatchesReference(region, 256, charges);
}

TEST(BinGridSeparable, EdgesOnBinEdgesMatchPerBinWeights)
{
    // Bins of 160 um starting at the origin; at these coordinates an
    // ulp exceeds the footprint's 1e-12 upper clamp, so a rect ending
    // on a bin edge reaches into the next bin with dx == 0.
    const Rect region(0.0, 0.0, 40960.0, 40960.0);
    std::vector<Charge> charges;
    for (int i = 0; i < 40; ++i) {
        const double x0 = 160.0 * (100 + 3 * i);
        const double y0 = 160.0 * (120 + 2 * i);
        charges.push_back(
            {Rect(x0, y0, x0 + 160.0 * (1 + i % 4), y0 + 160.0 * (1 + i % 3)),
             1.0 + i});
    }
    ASSERT_GT(zeroWeightBins(BinGrid(region, 256, 256), charges), 0);
    expectMatchesReference(region, 256, charges);
}

TEST(BinGridSeparable, UpperClampMatchesPerBinWeights)
{
    // Upper edges a hair past a bin edge: the - 1e-12 clamp leaves the
    // sliver bin out of the footprint, or keeps it if the hair is wider.
    const Rect region(0.0, 0.0, 64.0, 64.0);
    std::vector<Charge> charges;
    for (const double hair : {1e-13, 5e-13, 1e-12, 2e-12, 1e-9}) {
        charges.push_back({Rect(3.0, 5.0, 8.0 + hair, 12.0 + hair), 2.0});
        charges.push_back({Rect(8.0 - hair, 4.0, 16.0, 16.0 + hair), 3.0});
    }
    expectMatchesReference(region, 8, charges);
    expectMatchesReference(region, 64, charges);
}

TEST(BinGridSeparable, RectLargerThanRegionIsClipped)
{
    const Rect region(0.0, 0.0, 100.0, 50.0);
    const std::vector<Charge> charges = {
        {Rect(-30.0, -10.0, 140.0, 75.0), 9.0},
        {Rect(-5.0, 10.0, 105.0, 20.0), 4.0},
        {Rect(40.0, -80.0, 45.5, 90.0), 2.5},
    };
    expectMatchesReference(region, 16, charges);
}

TEST(BinGridSeparable, BandedSplatEqualsWholeSplat)
{
    // Splatting row band by row band writes the bits of one whole-grid
    // splat, for any band split.
    const Rect region(0.0, 0.0, 1000.0, 1000.0);
    const int bins = 32;
    Rng rng(11);
    std::vector<BinGrid::Footprint> fps;
    std::vector<double> amounts;
    BinGrid whole(region, bins, bins);
    for (int i = 0; i < 200; ++i) {
        const Rect r = Rect::fromCenter(
            {rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0)},
            rng.uniform(5.0, 300.0), rng.uniform(5.0, 300.0));
        fps.push_back(whole.footprint(r));
        amounts.push_back(rng.uniform(0.5, 2.0));
        whole.splat(r, amounts.back());
    }
    for (const std::vector<int> &cuts :
         {std::vector<int>{0, 32}, std::vector<int>{0, 11, 32},
          std::vector<int>{0, 1, 8, 9, 20, 31, 32}}) {
        BinGrid banded(region, bins, bins);
        for (std::size_t b = 0; b + 1 < cuts.size(); ++b)
            for (std::size_t i = 0; i < fps.size(); ++i)
                banded.splat(fps[i], amounts[i], cuts[b], cuts[b + 1]);
        EXPECT_EQ(0, std::memcmp(whole.data().data(), banded.data().data(),
                                 whole.data().size() * sizeof(double)));
    }
}

} // namespace
} // namespace qplacer
