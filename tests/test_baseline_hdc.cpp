/**
 * @file
 * Tests for the baseline HDC encoder, class model and training loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
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
    std::unique_ptr<BaselineEncoder> encoder;

    Fixture(Dim dim, std::size_t q, std::uint64_t seed = 1)
    {
        util::Rng rng(seed);
        levels = std::make_shared<LevelMemory>(dim, q, rng);
        refit(std::vector<double>{0.0, 1.0});
    }

    /** Rebuild the encoder around a linear fit of @p values. */
    void refit(std::span<const double> values)
    {
        encoder = std::make_unique<BaselineEncoder>(
            levels, quant::fitLinear(values, levels->levels()));
    }
};

TEST(BaselineEncoder, MatchesManualEquationOne)
{
    // H = L(f1) + rho L(f2) + rho^2 L(f3): check element by element.
    Fixture fx(512, 4);
    const std::vector<double> features{0.1, 0.6, 0.9};
    const IntHv encoded = fx.encoder->encode(features);

    const auto lvls = fx.encoder->quantizer().levelsOf(features);
    IntHv manual(512, 0);
    for (std::size_t i = 0; i < lvls.size(); ++i) {
        const BipolarHv rotated = rotate(fx.levels->at(lvls[i]), i);
        for (std::size_t d = 0; d < manual.size(); ++d)
            manual[d] += rotated[d];
    }
    EXPECT_EQ(encoded, manual);
}

TEST(BaselineEncoder, EncodeLevelsAgreesWithEncode)
{
    Fixture fx(256, 8);
    const std::vector<double> features{0.05, 0.5, 0.95, 0.3};
    const auto lvls = fx.encoder->quantizer().levelsOf(features);
    EXPECT_EQ(fx.encoder->encode(features),
              fx.encoder->encodeLevels(lvls));
}

TEST(BaselineEncoder, ElementsBoundedByFeatureCount)
{
    Fixture fx(128, 4);
    std::vector<double> features(20, 0.5);
    const IntHv encoded = fx.encoder->encode(features);
    for (auto v : encoded)
        EXPECT_LE(std::abs(v), 20);
}

TEST(BaselineEncoder, SimilarInputsSimilarHypervectors)
{
    // The locality property that makes HDC classification work.
    Fixture fx(4000, 8);
    std::vector<double> a(50), b(50), c(50);
    util::Rng rng(3);
    for (std::size_t i = 0; i < 50; ++i) {
        a[i] = rng.nextDouble();
        b[i] = std::min(1.0, a[i] + 0.05); // near-copy
        c[i] = rng.nextDouble();           // unrelated
    }
    const IntHv ha = fx.encoder->encode(a);
    const IntHv hb = fx.encoder->encode(b);
    const IntHv hc = fx.encoder->encode(c);
    EXPECT_GT(cosine(ha, hb), cosine(ha, hc) + 0.15);
}

TEST(BaselineEncoder, PositionMatters)
{
    // Same multiset of values, different order -> different encoding.
    Fixture fx(4000, 4);
    std::vector<double> a{0.9, 0.1, 0.9, 0.1, 0.9, 0.1};
    std::vector<double> b{0.1, 0.9, 0.1, 0.9, 0.1, 0.9};
    const IntHv ha = fx.encoder->encode(a);
    const IntHv hb = fx.encoder->encode(b);
    EXPECT_LT(cosine(ha, hb), 0.9);
}

TEST(BaselineEncoder, RejectsMismatchedQuantizer)
{
    util::Rng rng(1);
    auto levels = std::make_shared<LevelMemory>(128, 4, rng);
    EXPECT_THROW(
        BaselineEncoder(levels,
                        quant::fitLinear(std::vector<double>{0.0, 1.0}, 8)),
        util::ContractViolation);
}

TEST(ClassModelTest, AccumulateAndPredict)
{
    ClassModel model(64, 2);
    IntHv a(64, 0), b(64, 0);
    for (std::size_t i = 0; i < 64; ++i) {
        a[i] = i < 32 ? 3 : -1;
        b[i] = i < 32 ? -1 : 3;
    }
    model.accumulate(0, a);
    model.accumulate(1, b);
    model.normalize();
    EXPECT_EQ(model.predict(a), 0u);
    EXPECT_EQ(model.predict(b), 1u);
}

TEST(ClassModelTest, PredictRequiresNormalize)
{
    ClassModel model(8, 2);
    IntHv q(8, 1);
    EXPECT_THROW(model.predict(q), std::logic_error);
    model.normalize();
    EXPECT_NO_THROW(model.predict(q));
    // Mutation invalidates the cache.
    model.accumulate(0, q);
    EXPECT_THROW(model.predict(q), std::logic_error);
}

TEST(ClassModelTest, UpdateMovesDecisionBoundary)
{
    ClassModel model(128, 2);
    util::Rng rng(5);
    const BipolarHv proto = randomBipolar(128, rng);
    IntHv h(proto.begin(), proto.end());
    // Start with the point in the wrong class.
    model.accumulate(1, h);
    model.normalize();
    ASSERT_EQ(model.predict(h), 1u);
    model.update(0, 1, h);
    model.update(0, 1, h);
    model.normalize();
    EXPECT_EQ(model.predict(h), 0u);
}

TEST(ClassModelTest, SizeBytes)
{
    ClassModel model(2000, 26);
    EXPECT_EQ(model.sizeBytes(), 26u * 2000u * 4u);
    EXPECT_EQ(model.sizeBytes(2), 26u * 2000u * 2u);
}

TEST(BaselineTrainerTest, LearnsSeparableProblem)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 40;
    spec.numClasses = 4;
    spec.classSeparation = 1.2;
    spec.skew = 0.0; // linear quantizer under test; keep marginals mild
    spec.seed = 11;
    auto [train, test] = data::makeTrainTest(spec, 400, 100);

    Fixture fx(2000, 8, 2);
    // Refit the quantizer on the real value range.
    const auto vals = train.allValues();
    fx.refit(vals);

    BaselineTrainer trainer(*fx.encoder);
    TrainOptions opts;
    opts.retrainEpochs = 5;
    const TrainResult result = trainer.train(train, opts);
    const double acc = trainer.evaluate(result.model, test);
    EXPECT_GT(acc, 0.8);
}

TEST(BaselineTrainerTest, RetrainingImprovesTrainAccuracy)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 30;
    spec.numClasses = 5;
    spec.classSeparation = 0.6;
    spec.skew = 0.0; // mild marginals: the linear quantizer is a prop
    spec.seed = 13;
    auto [train, test] = data::makeTrainTest(spec, 300, 1);

    Fixture fx(1000, 4, 3);
    const auto vals = train.allValues();
    fx.refit(vals);

    BaselineTrainer trainer(*fx.encoder);
    TrainOptions opts;
    opts.retrainEpochs = 8;
    const TrainResult result = trainer.train(train, opts);
    ASSERT_GE(result.accuracyHistory.size(), 2u);
    EXPECT_GT(result.accuracyHistory.back(),
              result.accuracyHistory.front());
}

TEST(BaselineTrainerTest, EarlyStopHaltsBeforeMaxEpochs)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 10;
    spec.numClasses = 2;
    spec.classSeparation = 3.0; // trivially separable
    spec.seed = 17;
    auto [train, test] = data::makeTrainTest(spec, 100, 1);

    Fixture fx(500, 4, 4);
    const auto vals = train.allValues();
    fx.refit(vals);

    BaselineTrainer trainer(*fx.encoder);
    TrainOptions opts;
    opts.retrainEpochs = 50;
    opts.earlyStopDelta = 0.0;
    opts.earlyStopPatience = 2;
    const TrainResult result = trainer.train(train, opts);
    EXPECT_LT(result.epochsRun, 50u);
}

TEST(BaselineTrainerTest, EncodedPathMatchesDatasetPath)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 19;
    auto [train, test] = data::makeTrainTest(spec, 60, 1);

    Fixture fx(256, 4, 5);
    const auto vals = train.allValues();
    fx.refit(vals);

    BaselineTrainer trainer(*fx.encoder);
    TrainOptions opts;
    opts.retrainEpochs = 2;
    const TrainResult a = trainer.train(train, opts);
    const TrainResult b = trainer.trainEncoded(
        trainer.encodeAll(train), train.labels(), train.numClasses(),
        opts);
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(a.model.classHv(c), b.model.classHv(c));
}

} // namespace
