/**
 * @file
 * Tests for the record-based (ID-value binding) encoder, including an
 * equal-footing comparison against the permutation encoder.
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/record_encoder.hpp"
#include "hdc/similarity.hpp"
#include "hdc/trainer.hpp"
#include "quant/quantizer.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

struct Fixture
{
    std::shared_ptr<LevelMemory> levels;
    quant::Quantizer quantizer;
    std::unique_ptr<RecordEncoder> encoder;
    util::Rng rng;

    Fixture(Dim dim, std::size_t q, std::size_t n,
            std::uint64_t seed = 1)
        : quantizer(quant::fitLinear(std::vector<double>{0.0, 1.0}, q)),
          rng(seed)
    {
        levels = std::make_shared<LevelMemory>(dim, q, rng);
        encoder = std::make_unique<RecordEncoder>(levels, quantizer,
                                                  n, rng);
    }
};

TEST(RecordEncoder, MatchesManualBindSum)
{
    Fixture fx(256, 4, 3);
    const std::vector<double> features{0.1, 0.6, 0.9};
    IntHv manual(256, 0);
    for (std::size_t f = 0; f < 3; ++f) {
        const BipolarHv &lvl =
            fx.levels->at(fx.quantizer.level(features[f]));
        const BipolarHv &id = fx.encoder->ids().at(f);
        for (std::size_t i = 0; i < 256; ++i)
            manual[i] += id[i] * lvl[i];
    }
    EXPECT_EQ(fx.encoder->encode(features), manual);
}

TEST(RecordEncoder, ElementsBoundedByFeatureCount)
{
    Fixture fx(128, 4, 20);
    const IntHv h =
        fx.encoder->encode(std::vector<double>(20, 0.5));
    for (auto v : h)
        EXPECT_LE(std::abs(v), 20);
}

TEST(RecordEncoder, PositionMattersViaIds)
{
    Fixture fx(4000, 4, 6, 3);
    const std::vector<double> a{0.9, 0.1, 0.9, 0.1, 0.9, 0.1};
    const std::vector<double> b{0.1, 0.9, 0.1, 0.9, 0.1, 0.9};
    EXPECT_LT(cosine(fx.encoder->encode(a), fx.encoder->encode(b)),
              0.6);
}

TEST(RecordEncoder, SimilarInputsSimilarEncodings)
{
    Fixture fx(4000, 8, 50, 5);
    std::vector<double> a(50), c(50);
    for (std::size_t i = 0; i < 50; ++i) {
        a[i] = fx.rng.nextDouble();
        c[i] = fx.rng.nextDouble();
    }
    std::vector<double> b = a;
    b[10] = std::min(1.0, b[10] + 0.05);
    const IntHv ha = fx.encoder->encode(a);
    EXPECT_GT(cosine(ha, fx.encoder->encode(b)),
              cosine(ha, fx.encoder->encode(c)) + 0.15);
}

TEST(RecordEncoder, Validation)
{
    Fixture fx(128, 4, 5);
    EXPECT_THROW(fx.encoder->encode(std::vector<double>(4, 0.0)),
                 util::ContractViolation);
    util::Rng rng(1);
    const auto eightLevels =
        quant::fitLinear(std::vector<double>{0.0, 1.0}, 8);
    EXPECT_THROW(RecordEncoder(fx.levels, eightLevels, 5, rng),
                 util::ContractViolation);
    EXPECT_THROW(RecordEncoder(fx.levels, fx.quantizer, 0, rng),
                 util::ContractViolation);
}

TEST(RecordEncoder, ComparableAccuracyToPermutationEncoding)
{
    // Both canonical encodings solve the same problem to within a few
    // points when everything else is held fixed.
    data::SyntheticSpec spec;
    spec.numFeatures = 40;
    spec.numClasses = 4;
    spec.classSeparation = 0.9;
    spec.informativeFraction = 0.6;
    spec.seed = 7;
    auto [train, test] = data::makeTrainTest(spec, 400, 200);

    util::Rng rng(11);
    auto levels = std::make_shared<LevelMemory>(2000, 4, rng);
    const auto quantizer = quant::fitEqualized(train.allValues(), 4);

    RecordEncoder record(levels, quantizer, 40, rng);
    BaselineEncoder permutation(levels, quantizer);

    auto accuracy = [&](auto &encoder) {
        ClassModel model(2000, 4);
        for (std::size_t i = 0; i < train.size(); ++i)
            model.accumulate(train.label(i),
                             encoder.encode(train.row(i)));
        model.normalize();
        std::size_t ok = 0;
        for (std::size_t i = 0; i < test.size(); ++i)
            ok += model.predict(encoder.encode(test.row(i))) ==
                  test.label(i);
        return static_cast<double>(ok) /
               static_cast<double>(test.size());
    };

    const double rec = accuracy(record);
    const double perm = accuracy(permutation);
    EXPECT_GT(rec, 0.8);
    EXPECT_NEAR(rec, perm, 0.07);
}

} // namespace
