/**
 * @file
 * Classifier-level tests for quantized serving: precision routing
 * through scores()/scoresBatch(), batch-vs-single bit identity,
 * cross-impl bit identity of the quantized paths, agreement of the
 * quantized predictions with the float path, and the attach /
 * on-demand-build lifecycle. The BinaryModel cases check the sign
 * rows as the Sec. VII binary baseline, the QuantizedModel cases the
 * b-bit study form (fromClassModelBits()).
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "hdc/trainer.hpp"
#include "lookhd/classifier.hpp"
#include "quant/quantizer.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
namespace kernels = lookhd::hdc::kernels;

data::TrainTest
problem(std::uint64_t seed = 7)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 23;
    spec.numClasses = 5;
    spec.classSeparation = 1.2;
    spec.informativeFraction = 0.7;
    spec.seed = seed;
    return data::makeTrainTest(spec, 300, 120);
}

ClassifierConfig
config(bool compress = true)
{
    ClassifierConfig cfg;
    cfg.dim = 1000;
    cfg.quantLevels = 4;
    cfg.chunkSize = 5;
    cfg.retrainEpochs = 3;
    cfg.compressModel = compress;
    return cfg;
}

std::vector<std::span<const double>>
rowsOf(const data::Dataset &ds, std::size_t count)
{
    std::vector<std::span<const double>> rows;
    for (std::size_t i = 0; i < count && i < ds.size(); ++i)
        rows.push_back(ds.row(i));
    return rows;
}

TEST(QuantizedServing, PrecisionRoutingAndLifecycle)
{
    const auto tt = problem();
    Classifier clf(config());
    EXPECT_THROW(clf.setServingPrecision(Precision::kInt8),
                 util::ContractViolation); // unfitted
    clf.fit(tt.train);

    EXPECT_EQ(clf.servingPrecision(), Precision::kFloat64);
    EXPECT_FALSE(clf.hasQuantized());

    // Selecting a quantized precision builds the forms on demand.
    clf.setServingPrecision(Precision::kInt8);
    EXPECT_TRUE(clf.hasQuantized());
    EXPECT_EQ(clf.servingPrecision(), Precision::kInt8);

    clf.setServingPrecision(Precision::kBinary);
    EXPECT_EQ(clf.servingPrecision(), Precision::kBinary);

    // Back to float: quantized forms stay attached but unused.
    clf.setServingPrecision(Precision::kFloat64);
    EXPECT_TRUE(clf.hasQuantized());
    EXPECT_EQ(clf.servingPrecision(), Precision::kFloat64);
}

TEST(QuantizedServing, QuantizedScoresDifferFromFloatButAgree)
{
    const auto tt = problem(11);
    Classifier clf(config());
    clf.fit(tt.train);

    const auto floatScores = clf.scores(tt.test.row(0));
    std::vector<std::size_t> floatPred;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        floatPred.push_back(clf.predict(tt.test.row(i)));

    // int8: small quantization error, predictions should almost
    // always agree with the float path on a separable problem.
    clf.setServingPrecision(Precision::kInt8);
    const auto i8Scores = clf.scores(tt.test.row(0));
    ASSERT_EQ(i8Scores.size(), floatScores.size());
    std::size_t i8Agree = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        i8Agree += clf.predict(tt.test.row(i)) == floatPred[i];
    EXPECT_GE(static_cast<double>(i8Agree) /
                  static_cast<double>(tt.test.size()),
              0.95)
        << i8Agree << "/" << tt.test.size();

    // binary drops magnitude information; still close on this
    // problem but allowed a wider band.
    clf.setServingPrecision(Precision::kBinary);
    std::size_t binAgree = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        binAgree += clf.predict(tt.test.row(i)) == floatPred[i];
    EXPECT_GE(static_cast<double>(binAgree) /
                  static_cast<double>(tt.test.size()),
              0.80)
        << binAgree << "/" << tt.test.size();
}

TEST(QuantizedServing, BatchMatchesSingleBitwise)
{
    for (const bool compress : {true, false}) {
        const auto tt = problem(13);
        Classifier clf(config(compress));
        clf.fit(tt.train);
        const auto rows = rowsOf(tt.test, 32);

        for (const Precision p :
             {Precision::kInt8, Precision::kBinary}) {
            clf.setServingPrecision(p);
            for (const std::size_t threads : {1UL, 2UL, 4UL}) {
                const auto batch = clf.scoresBatch(rows, threads);
                ASSERT_EQ(batch.size(), rows.size());
                for (std::size_t i = 0; i < rows.size(); ++i)
                    EXPECT_EQ(batch[i], clf.scores(rows[i]))
                        << "compress=" << compress
                        << " precision=" << precisionName(p)
                        << " threads=" << threads << " row " << i;
            }
        }
    }
}

TEST(QuantizedServing, QuantizedScoresBitIdenticalAcrossImpls)
{
    const auto tt = problem(17);
    Classifier clf(config());
    clf.fit(tt.train);
    const auto rows = rowsOf(tt.test, 8);

    for (const Precision p :
         {Precision::kInt8, Precision::kBinary}) {
        clf.setServingPrecision(p);
        kernels::forceImpl(kernels::Impl::kScalar);
        const auto reference = clf.scoresBatch(rows);
        kernels::clearForcedImpl();
        for (const kernels::Impl impl :
             {kernels::Impl::kScalar, kernels::Impl::kAvx2,
              kernels::Impl::kAvx512, kernels::Impl::kNeon}) {
            if (!kernels::implAvailable(impl))
                continue;
            kernels::forceImpl(impl);
            const auto got = clf.scoresBatch(rows);
            kernels::clearForcedImpl();
            EXPECT_EQ(got, reference)
                << "precision=" << precisionName(p)
                << " impl=" << kernels::implName(impl);
        }
    }
}

TEST(QuantizedServing, PredictBatchConsistentWithScores)
{
    const auto tt = problem(19);
    Classifier clf(config());
    clf.fit(tt.train);
    clf.setServingPrecision(Precision::kInt8);
    const auto rows = rowsOf(tt.test, 16);
    const auto preds = clf.predictBatch(rows);
    ASSERT_EQ(preds.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(preds[i], clf.predict(rows[i])) << "row " << i;
}

TEST(QuantizedServing, AttachValidatesShapes)
{
    const auto tt = problem(23);
    Classifier clf(config());
    clf.fit(tt.train);
    clf.quantize();
    const QuantizedServingModel &good = clf.quantizedModel();

    // Wrong dimensionality.
    {
        const hdc::Dim wrongDim = good.dim() + 64;
        std::vector<std::int8_t> rows(
            good.numClasses() * wrongDim, 1);
        std::vector<hdc::PackedHv> binary(good.numClasses(),
                                          hdc::PackedHv(wrongDim));
        auto bad = std::make_shared<const QuantizedServingModel>(
            wrongDim, std::move(rows),
            std::vector<double>(good.numClasses(), 1.0),
            std::move(binary));
        EXPECT_THROW(clf.attachQuantized(bad),
                     util::ContractViolation);
    }
    // Wrong class count.
    {
        const std::size_t wrongK = good.numClasses() + 1;
        std::vector<std::int8_t> rows(wrongK * good.dim(), 1);
        std::vector<hdc::PackedHv> binary(wrongK,
                                          hdc::PackedHv(good.dim()));
        auto bad = std::make_shared<const QuantizedServingModel>(
            good.dim(), std::move(rows),
            std::vector<double>(wrongK, 1.0), std::move(binary));
        EXPECT_THROW(clf.attachQuantized(bad),
                     util::ContractViolation);
    }
    // Null.
    EXPECT_THROW(clf.attachQuantized(nullptr),
                 util::ContractViolation);
}

TEST(QuantizedServing, UncompressedModelQuantizes)
{
    const auto tt = problem(29);
    Classifier clf(config(/*compress=*/false));
    clf.fit(tt.train);
    clf.setServingPrecision(Precision::kInt8);
    ASSERT_TRUE(clf.hasQuantized());
    EXPECT_EQ(clf.quantizedModel().dim(), clf.config().dim);

    // Predictions still mostly agree with the float path.
    clf.setServingPrecision(Precision::kFloat64);
    std::vector<std::size_t> floatPred;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        floatPred.push_back(clf.predict(tt.test.row(i)));
    clf.setServingPrecision(Precision::kInt8);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        agree += clf.predict(tt.test.row(i)) == floatPred[i];
    EXPECT_GE(static_cast<double>(agree) /
                  static_cast<double>(tt.test.size()),
              0.95)
        << agree << "/" << tt.test.size();
}

TEST(QuantizedServing, PrecisionNamesRoundTrip)
{
    for (const Precision p : {Precision::kFloat64, Precision::kInt8,
                              Precision::kBinary}) {
        const auto back = precisionFromName(precisionName(p));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, p);
    }
    EXPECT_FALSE(precisionFromName("float32").has_value());
    EXPECT_FALSE(precisionFromName("").has_value());
    EXPECT_FALSE(precisionFromName("INT8").has_value());
}

/** Scores of one query on the binary (sign) rows. */
std::vector<double>
binaryScores(const QuantizedServingModel &qm, const hdc::IntHv &query)
{
    const hdc::IntHv *qp = &query;
    return qm.scoresBatchBinary(&qp, 1);
}

/** Scores of one query on the int8 (level) rows. */
std::vector<double>
levelScores(const QuantizedServingModel &qm, const hdc::IntHv &query)
{
    const hdc::IntHv *qp = &query;
    return qm.scoresBatchI8(&qp, 1);
}

/** A normalized model with the given integer class rows. */
hdc::ClassModel
modelOf(hdc::Dim dim, const std::vector<hdc::IntHv> &classes)
{
    hdc::ClassModel model(dim, classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c)
        model.classHv(c) = classes[c];
    model.normalize();
    return model;
}

TEST(BinaryModel, BinarizesSigns)
{
    const auto qm = QuantizedServingModel::fromClassModel(
        modelOf(4, {{3, -2, 0, 7}, {-1, 1, -9, 2}}));
    EXPECT_EQ(qm.binaryRows()[0].unpack(), (hdc::BipolarHv{1, -1, 1, 1}));
    EXPECT_EQ(qm.binaryRows()[1].unpack(),
              (hdc::BipolarHv{-1, 1, -1, 1}));
}

TEST(BinaryModel, PredictsObviousQueries)
{
    hdc::IntHv a(64), b(64);
    for (std::size_t i = 0; i < 64; ++i) {
        a[i] = i % 2 ? 5 : -5;
        b[i] = i % 2 ? -5 : 5;
    }
    const auto qm = QuantizedServingModel::fromClassModel(modelOf(64, {a, b}));
    EXPECT_EQ(hdc::argmax(binaryScores(qm, a)), 0u);
    EXPECT_EQ(hdc::argmax(binaryScores(qm, b)), 1u);
}

TEST(BinaryModel, ScoresAreHammingFractions)
{
    // A score is the +-1 dot 2 * matches - D, so it ranks like the
    // Hamming fraction matches / D = (score + D) / 2D.
    const auto qm = QuantizedServingModel::fromClassModel(
        modelOf(8, {{1, 1, 1, 1, -1, -1, -1, -1},
                    {1, 1, 1, 1, 1, 1, -1, -1}}));
    const auto s = binaryScores(qm, {1, 1, 1, 1, 1, 1, 1, 1});
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ((s[0] + 8.0) / 16.0, 0.5);
    EXPECT_DOUBLE_EQ((s[1] + 8.0) / 16.0, 0.75);
    EXPECT_EQ(hdc::argmax(s), 1u);
}

TEST(BinaryModel, SizeIsOneBitPerDimension)
{
    hdc::ClassModel model(2000, 26);
    model.normalize();
    const auto qm = QuantizedServingModel::fromClassModel(model);
    EXPECT_EQ(qm.binarySizeBytes(), (26u * 2000u + 7u) / 8u);
    for (const hdc::PackedHv &row : qm.binaryRows())
        EXPECT_EQ(row.words(), (2000u + 63u) / 64u);
    // 32x smaller than the int32 model.
    EXPECT_LT(qm.binarySizeBytes() * 30, model.sizeBytes());
}

TEST(BinaryModel, LosesAccuracyVersusNonBinaryOnHardProblem)
{
    // Sec. VII: binary models give up accuracy on practical (noisy,
    // weakly separated) workloads.
    data::SyntheticSpec spec;
    spec.numFeatures = 60;
    spec.numClasses = 6;
    spec.classSeparation = 0.35;
    spec.labelNoise = 0.05;
    spec.seed = 23;
    auto [train, test] = data::makeTrainTest(spec, 600, 300);

    util::Rng rng(29);
    auto levels = std::make_shared<hdc::LevelMemory>(2000, 4, rng);
    hdc::BaselineEncoder encoder(
        levels, quant::fitEqualized(train.allValues(), 4));

    hdc::BaselineTrainer trainer(encoder);
    hdc::TrainOptions opts;
    opts.retrainEpochs = 5;
    const hdc::TrainResult result = trainer.train(train, opts);

    const double full_acc = trainer.evaluate(result.model, test);
    const auto qm = QuantizedServingModel::fromClassModel(result.model);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
        correct += hdc::argmax(binaryScores(
                       qm, encoder.encode(test.row(i)))) ==
                   test.label(i);
    const double bin_acc =
        static_cast<double>(correct) / static_cast<double>(test.size());
    EXPECT_LE(bin_acc, full_acc + 0.02);
}

/** A trained uncompressed model plus its test data. */
struct Trained
{
    data::Dataset test;
    Classifier clf;

    explicit Trained(std::uint64_t seed) : test(1, 1), clf([] {
        ClassifierConfig cfg;
        cfg.dim = 1000;
        cfg.quantLevels = 4;
        cfg.compressModel = false;
        cfg.retrainEpochs = 3;
        return cfg;
    }())
    {
        data::SyntheticSpec spec;
        spec.numFeatures = 40;
        spec.numClasses = 5;
        spec.classSeparation = 0.9;
        spec.informativeFraction = 0.6;
        spec.seed = seed;
        data::SyntheticProblem problem(spec);
        const data::Dataset train = problem.sample(400);
        test = problem.sample(200);
        clf.fit(train);
    }

    QuantizedServingModel
    bits(std::size_t b) const
    {
        return QuantizedServingModel::fromClassModelBits(
            clf.uncompressedModel(), b);
    }

    double
    accuracy(const QuantizedServingModel &model) const
    {
        std::size_t ok = 0;
        for (std::size_t i = 0; i < test.size(); ++i)
            ok += hdc::argmax(levelScores(
                      model, clf.encoder().encode(test.row(i)))) ==
                  test.label(i);
        return static_cast<double>(ok) /
               static_cast<double>(test.size());
    }
};

TEST(QuantizedModel, ElementsWithinLevelRange)
{
    Trained t(1);
    for (std::size_t bits : {1u, 2u, 4u, 8u}) {
        const QuantizedServingModel qm = t.bits(bits);
        const int max_level = bits == 1 ? 1 : (1 << (bits - 1)) - 1;
        for (const std::int8_t v : qm.int8Rows()) {
            EXPECT_GE(v, -max_level);
            EXPECT_LE(v, max_level);
        }
    }
}

TEST(QuantizedModel, HighBitsMatchFullModel)
{
    Trained t(3);
    const QuantizedServingModel qm = t.bits(8);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < t.test.size(); ++i) {
        const hdc::IntHv q = t.clf.encoder().encode(t.test.row(i));
        agree += hdc::argmax(levelScores(qm, q)) ==
                 t.clf.uncompressedModel().predict(q);
    }
    EXPECT_GT(static_cast<double>(agree) /
                  static_cast<double>(t.test.size()),
              0.98);
}

TEST(QuantizedModel, AccuracyMonotoneInBitsRoughly)
{
    Trained t(5);
    const double a1 = t.accuracy(t.bits(1));
    const double a4 = t.accuracy(t.bits(4));
    const double a8 = t.accuracy(t.bits(8));
    EXPECT_GE(a4, a1 - 0.03);
    EXPECT_GE(a8, a4 - 0.03);
    EXPECT_GT(a8, 0.8);
}

TEST(QuantizedModel, SizeShrinksWithBits)
{
    Trained t(7);
    const hdc::ClassModel &full = t.clf.uncompressedModel();
    const QuantizedServingModel q8 = t.bits(8);
    const QuantizedServingModel q2 = t.bits(2);
    EXPECT_LT(q8.sizeBytes(), full.sizeBytes());
    EXPECT_LT(q2.sizeBytes(), q8.sizeBytes());
    // 2-bit is ~16x smaller than int32 (plus tiny per-class scales).
    EXPECT_LT(q2.sizeBytes(), full.sizeBytes() / 10);
}

TEST(QuantizedModel, OneBitRanksLikeBinaryModel)
{
    Trained t(9);
    const QuantizedServingModel q1 = t.bits(1);
    for (const std::int8_t v : q1.int8Rows())
        EXPECT_TRUE(v == 1 || v == -1);
    // The 1-bit levels are the sign rows.
    for (std::size_t c = 0; c < q1.numClasses(); ++c)
        for (std::size_t i = 0; i < q1.dim(); ++i)
            EXPECT_EQ(q1.int8Rows()[c * q1.dim() + i],
                      q1.binaryRows()[c].at(i));
}

TEST(QuantizedModel, Validation)
{
    Trained t(11);
    EXPECT_THROW(t.bits(0), util::ContractViolation);
    EXPECT_THROW(t.bits(9), util::ContractViolation);
    const QuantizedServingModel qm = t.bits(4);
    EXPECT_THROW(levelScores(qm, hdc::IntHv(10, 0)),
                 util::ContractViolation);
}

} // namespace
