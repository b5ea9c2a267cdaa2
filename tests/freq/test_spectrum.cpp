#include <gtest/gtest.h>

#include "freq/spectrum.hpp"

namespace qplacer {
namespace {

TEST(Spectrum, BandBasics)
{
    const FrequencyBand band(4.8e9, 5.2e9);
    EXPECT_DOUBLE_EQ(band.span(), 0.4e9);
    EXPECT_TRUE(band.contains(5.0e9));
    EXPECT_TRUE(band.contains(4.8e9));
    EXPECT_FALSE(band.contains(5.3e9));
    EXPECT_THROW(FrequencyBand(5e9, 5e9), std::runtime_error);
}

TEST(Spectrum, PaperBands)
{
    EXPECT_DOUBLE_EQ(FrequencyBand::qubitBand().loHz, 4.8e9);
    EXPECT_DOUBLE_EQ(FrequencyBand::qubitBand().hiHz, 5.2e9);
    EXPECT_DOUBLE_EQ(FrequencyBand::resonatorBand().loHz, 6.0e9);
    EXPECT_DOUBLE_EQ(FrequencyBand::resonatorBand().hiHz, 7.0e9);
}

TEST(Spectrum, MaxSlotsAtThresholdSpacing)
{
    // 0.4 GHz span / 0.1 GHz spacing -> 5 slots (Section III-B).
    EXPECT_EQ(FrequencyBand::qubitBand().maxSlots(0.1e9), 5);
    // 1.0 GHz resonator band -> 11 slots.
    EXPECT_EQ(FrequencyBand::resonatorBand().maxSlots(0.1e9), 11);
}

TEST(Spectrum, SlotsAreEvenlySpacedAndInBand)
{
    const FrequencyBand band(6.0e9, 7.0e9);
    const auto slots = band.slots(11);
    EXPECT_EQ(slots.size(), 11u);
    EXPECT_DOUBLE_EQ(slots.front(), 6.0e9);
    EXPECT_DOUBLE_EQ(slots.back(), 7.0e9);
    for (std::size_t i = 0; i + 1 < slots.size(); ++i)
        EXPECT_NEAR(slots[i + 1] - slots[i], 0.1e9, 1.0);
    for (double s : slots)
        EXPECT_TRUE(band.contains(s));
}

TEST(Spectrum, SingleSlotIsBandCenter)
{
    const FrequencyBand band(4.8e9, 5.2e9);
    const auto slots = band.slots(1);
    EXPECT_DOUBLE_EQ(slots[0], 5.0e9);
}

TEST(Spectrum, ResonanceIndicatorIsStrict)
{
    // tau activates strictly below the threshold: slots spaced exactly
    // at Delta_c count as detuned.
    EXPECT_TRUE(isResonant(5.0e9, 5.0e9));
    EXPECT_TRUE(isResonant(5.0e9, 5.05e9));
    EXPECT_FALSE(isResonant(5.0e9, 5.1e9));
    EXPECT_FALSE(isResonant(5.0e9, 5.2e9));
}

TEST(Spectrum, QubitNeverResonantWithResonatorBand)
{
    // The bands are disjoint by more than the threshold.
    EXPECT_FALSE(isResonant(5.2e9, 6.0e9));
}

TEST(Spectrum, CollisionRuleTruthTable)
{
    constexpr int kQubit = -1;
    const double dc = kDetuningThresholdHz;
    // Exactly Delta_c apart is detuned, whatever the groups.
    EXPECT_FALSE(mayCollide(6.5e9, 3, 6.5e9 + dc, 4));
    EXPECT_FALSE(mayCollide(5.0e9, kQubit, 5.0e9 + dc, kQubit));
    EXPECT_FALSE(mayCollide(6.5e9, 3, 6.5e9 + dc, 3));
    // Resonant pairs of different resonators, or a segment and a
    // qubit, collide.
    EXPECT_TRUE(mayCollide(6.5e9, 3, 6.5e9, 4));
    EXPECT_TRUE(mayCollide(6.5e9, 3, 6.5e9 + 0.5 * dc, 4));
    EXPECT_TRUE(mayCollide(5.0e9, kQubit, 5.0e9, 0));
    EXPECT_TRUE(mayCollide(5.0e9, 0, 5.0e9, kQubit));
    // Segments of one resonator are excluded (the Kronecker delta).
    EXPECT_FALSE(mayCollide(6.5e9, 3, 6.5e9, 3));
    EXPECT_FALSE(mayCollide(6.5e9, 0, 6.5e9, 0));
    // Two qubits (group -1) are never excluded as "one resonator".
    EXPECT_TRUE(mayCollide(5.0e9, kQubit, 5.0e9, kQubit));
    // The threshold argument is honoured.
    EXPECT_FALSE(mayCollide(5.0e9, kQubit, 5.05e9, kQubit, 0.05e9));
    EXPECT_TRUE(mayCollide(5.0e9, kQubit, 5.05e9, kQubit, 0.06e9));
}

} // namespace
} // namespace qplacer
