/**
 * @file
 * Tests for the linear and equalized quantizer fits (paper Sec. III-B)
 * and the boundary semantics every fitted quantizer shares.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "quant/quantizer.hpp"
#include "util/rng.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd::quant;
using lookhd::util::Rng;
using Sample = std::vector<double>;

std::vector<double>
lognormalSample(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(count);
    for (auto &x : v)
        x = std::exp(rng.nextGaussian());
    return v;
}

TEST(LinearQuantizer, EqualWidthBins)
{
    const Quantizer q = fitLinear(Sample{0.0, 10.0}, 4);
    EXPECT_EQ(q.level(0.0), 0u);
    EXPECT_EQ(q.level(2.4), 0u);
    EXPECT_EQ(q.level(2.6), 1u);
    EXPECT_EQ(q.level(5.1), 2u);
    EXPECT_EQ(q.level(9.9), 3u);
    EXPECT_EQ(q.level(10.0), 3u);
}

TEST(LinearQuantizer, OutOfRangeClamps)
{
    const Quantizer q = fitLinear(Sample{-1.0, 1.0}, 8);
    EXPECT_EQ(q.level(-100.0), 0u);
    EXPECT_EQ(q.level(100.0), 7u);
    // Far out of range clamps too; there is no float-to-integer
    // conversion that could overflow.
    EXPECT_EQ(q.level(1e300), 7u);
    EXPECT_EQ(q.level(-1e300), 0u);
    const Quantizer unit = fitLinear(Sample{0.0, 1.0}, 4);
    EXPECT_EQ(unit.level(1e300), 3u);
    EXPECT_EQ(unit.level(-1e300), 0u);
    EXPECT_EQ(unit.level(std::numeric_limits<double>::infinity()), 3u);
}

TEST(LinearQuantizer, BoundariesEvenlySpaced)
{
    const Quantizer q = fitLinear(Sample{0.0, 10.0}, 5);
    const auto b = q.boundaries();
    ASSERT_EQ(b.size(), 4u);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_NEAR(b[i], 2.0 * (i + 1), 1e-12);
}

TEST(LinearQuantizer, ConstantSampleMapsToLevelZero)
{
    const Quantizer q = fitLinear(Sample{3.0, 3.0, 3.0}, 4);
    EXPECT_EQ(q.level(3.0), 0u);
    EXPECT_EQ(q.level(99.0), 0u);
    // The boundaries alone carry that behaviour, so a quantizer
    // rebuilt from them (what a model load does) agrees.
    const auto bounds = q.boundaries();
    const Quantizer restored =
        Quantizer::fromBounds(Sample(bounds.begin(), bounds.end()));
    EXPECT_EQ(restored.level(3.0), 0u);
    EXPECT_EQ(restored.level(99.0), 0u);
    EXPECT_EQ(restored.level(-1e300), 0u);
    EXPECT_EQ(restored.level(1e300), 0u);
}

TEST(Quantizer, LinearLevelIsBinOfBoundariesAtEveryBoundary)
{
    // A fitted quantizer is its boundaries: at each boundary and its
    // neighbouring doubles, level() is exactly binOf(boundaries()).
    const double inf = std::numeric_limits<double>::infinity();
    for (const std::size_t levels : {3u, 4u, 5u, 7u, 8u, 16u}) {
        for (const Sample &sample :
             {Sample{0.0, 1.0}, Sample{-3.7, 12.9}, Sample{0.1, 0.3}}) {
            const Quantizer q = fitLinear(sample, levels);
            const auto bounds = q.boundaries();
            ASSERT_EQ(bounds.size(), levels - 1);
            for (const double b : bounds) {
                for (const double v : {std::nextafter(b, -inf), b,
                                       std::nextafter(b, inf)}) {
                    EXPECT_EQ(q.level(v), binOf(bounds, v))
                        << "q=" << levels << " value " << v;
                }
                // A value equal to a boundary opens the upper bin.
                EXPECT_EQ(q.level(b),
                          static_cast<std::size_t>(
                              std::upper_bound(bounds.begin(),
                                               bounds.end(), b) -
                              bounds.begin()));
            }
        }
    }
}

TEST(LinearQuantizer, ErrorsOnMisuse)
{
    EXPECT_THROW(fitLinear(Sample{0.0, 1.0}, 1),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(fitLinear(Sample{}, 4), lookhd::util::ContractViolation);
    EXPECT_THROW(
        fitLinear(Sample{0.0, std::numeric_limits<double>::quiet_NaN()},
                  4),
        lookhd::util::ContractViolation);
}

TEST(EqualizedQuantizer, UniformOccupancyOnSkewedData)
{
    // The defining property: every level receives roughly the same
    // share of the (heavily skewed) fit sample.
    const auto sample = lognormalSample(20000, 1);
    const Quantizer q = fitEqualized(sample, 4);
    std::vector<std::size_t> counts(4, 0);
    for (double v : sample)
        ++counts[q.level(v)];
    for (auto c : counts) {
        EXPECT_GT(c, sample.size() / 4 - sample.size() / 40);
        EXPECT_LT(c, sample.size() / 4 + sample.size() / 40);
    }
}

TEST(EqualizedQuantizer, LinearCrowdsSkewedDataEqualizedDoesNot)
{
    // On log-normal data, linear quantization dumps most values into
    // the first bin; equalized does not. This is Fig. 3 in a test.
    const auto sample = lognormalSample(20000, 2);
    const Quantizer lin = fitLinear(sample, 8);
    const Quantizer eq = fitEqualized(sample, 8);

    std::vector<std::size_t> lin_counts(8, 0), eq_counts(8, 0);
    for (double v : sample) {
        ++lin_counts[lin.level(v)];
        ++eq_counts[eq.level(v)];
    }
    const auto lin_max =
        *std::max_element(lin_counts.begin(), lin_counts.end());
    const auto eq_max =
        *std::max_element(eq_counts.begin(), eq_counts.end());
    EXPECT_GT(lin_max, sample.size() / 2);
    EXPECT_LT(eq_max, sample.size() / 4);
}

TEST(EqualizedQuantizer, BoundariesAreAscending)
{
    const auto sample = lognormalSample(5000, 3);
    const Quantizer q = fitEqualized(sample, 16);
    const auto b = q.boundaries();
    ASSERT_EQ(b.size(), 15u);
    for (std::size_t i = 1; i < b.size(); ++i)
        EXPECT_GE(b[i], b[i - 1]);
}

TEST(EqualizedQuantizer, MonotoneInValue)
{
    const auto sample = lognormalSample(5000, 4);
    const Quantizer q = fitEqualized(sample, 8);
    std::size_t prev = 0;
    for (double v = 0.01; v < 20.0; v *= 1.3) {
        const std::size_t lvl = q.level(v);
        EXPECT_GE(lvl, prev);
        prev = lvl;
    }
}

TEST(EqualizedQuantizer, HandlesMassiveTies)
{
    // Half the sample is the same value; bins collapse but level()
    // stays well-defined and in range.
    std::vector<double> sample(1000, 5.0);
    for (std::size_t i = 0; i < 1000; ++i)
        sample.push_back(static_cast<double>(i));
    const Quantizer q = fitEqualized(sample, 4);
    for (double v : sample)
        EXPECT_LT(q.level(v), 4u);
}

TEST(EqualizedQuantizer, ErrorsOnMisuse)
{
    EXPECT_THROW(fitEqualized(Sample{0.0, 1.0}, 0),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(fitEqualized(Sample{}, 4),
                 lookhd::util::ContractViolation);
}

TEST(Quantizer, LevelsOfVector)
{
    const Quantizer q = fitLinear(Sample{0.0, 1.0}, 2);
    const auto lvls = q.levelsOf(Sample{0.1, 0.9, 0.4});
    EXPECT_EQ(lvls, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(Quantizer, FromBoundsRejectsNaNAndDescending)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(Quantizer::fromBounds({nan, 0.5, 1.0}),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(Quantizer::fromBounds({0.0, nan}),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(Quantizer::fromBounds({1.0, 0.5}),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(Quantizer::fromBounds({}),
                 lookhd::util::ContractViolation);
    // Ties and infinities are legal: collapsed bins never fire.
    EXPECT_EQ(Quantizer::fromBounds({-inf, 0.0, 0.0, inf}).levels(), 5u);
}

TEST(Quantizer, BinOfMatchesUpperBoundOnEveryEdgeCase)
{
    // binOf is a branch-free compare-count; it must agree with
    // std::upper_bound for every double, including the values a
    // binary search treats specially.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const std::vector<std::vector<double>> boundSets = {
        {0.0},
        {-1.0, 0.0, 1.0},
        {-0.0, 0.0},                 // signed zeros compare equal
        {1.0, 1.0, 1.0},             // fully collapsed bins
        {-2.0, 0.5, 0.5, 0.5, 3.0},  // duplicate bounds mid-range
        {-inf, 0.0, inf},            // infinite bounds
        {-inf, -inf, inf, inf},
        {tiny, 2.0 * tiny},
    };
    std::vector<double> probes = {
        -inf, inf, nan, -nan, 0.0, -0.0, tiny, -tiny, 2.0 * tiny,
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::max(), -3.0, 3.5};
    for (const auto &bounds : boundSets) {
        for (const double b : bounds) {
            probes.push_back(b);
            probes.push_back(std::nextafter(b, -inf));
            probes.push_back(std::nextafter(b, inf));
        }
    }
    for (const auto &bounds : boundSets) {
        for (const double v : probes) {
            const auto expected = static_cast<std::size_t>(
                std::upper_bound(bounds.begin(), bounds.end(), v) -
                bounds.begin());
            EXPECT_EQ(binOf(bounds, v), expected)
                << "value " << v << " over " << bounds.size()
                << " bounds starting at " << bounds.front();
        }
    }
    // Spot values: a value equal to a bound falls into the upper bin,
    // NaN lands past the last bound, and an empty bound set is bin 0.
    EXPECT_EQ(binOf(Sample{-1.0, 0.0, 1.0}, 0.0), 2u);
    EXPECT_EQ(binOf(Sample{-1.0, 0.0, 1.0}, -0.0), 2u);
    EXPECT_EQ(binOf(Sample{-1.0, 0.0, 1.0}, nan), 3u);
    EXPECT_EQ(binOf(Sample{1.0, 1.0, 1.0}, 1.0), 3u);
    EXPECT_EQ(binOf(Sample{}, 5.0), 0u);
}

/** Parameterized sweep over q for both quantizer kinds. */
class QuantizerSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(QuantizerSweep, AllLevelsReachableEqualized)
{
    const std::size_t q = GetParam();
    const auto sample = lognormalSample(20000, 40 + q);
    const Quantizer quant = fitEqualized(sample, q);
    std::vector<bool> seen(q, false);
    for (double v : sample)
        seen[quant.level(v)] = true;
    for (std::size_t l = 0; l < q; ++l)
        EXPECT_TRUE(seen[l]) << "level " << l << " of q=" << q;
}

TEST_P(QuantizerSweep, LinearLevelsWithinRange)
{
    const std::size_t q = GetParam();
    const auto sample = lognormalSample(5000, 80 + q);
    const Quantizer quant = fitLinear(sample, q);
    for (double v : sample)
        EXPECT_LT(quant.level(v), q);
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizerSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

} // namespace
