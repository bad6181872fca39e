/**
 * @file
 * Tests for lookhd::ScoreTable, the feature-space serving path: the
 * int8 table's sums are the exact integer dots of the encoding, the
 * float64 table reproduces the encode-path scores, results do not
 * depend on kernel Impl, batch size or thread count, over-budget and
 * overflow-prone tables fall back to the encode path, scores survive
 * save/load, a table-only load leaves the chunk tables to the first
 * encode, and the fused pass keeps the level-saturation counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "data/apps.hpp"
#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace {

using namespace lookhd;
namespace kernels = lookhd::hdc::kernels;

struct Fitted
{
    data::TrainTest data;
    Classifier clf;
};

/** A scaled-down paper app, fitted at D = 512. */
Fitted
fitApp(const std::string &name, std::size_t chunk, bool perFeature,
       bool compress = true, std::size_t budget = std::size_t{64} << 20)
{
    const data::AppSpec app =
        data::scaledDown(data::appByName(name), 10 * 12, 30);
    ClassifierConfig cfg;
    cfg.dim = 512;
    cfg.quantLevels = app.lookhdQ;
    cfg.chunkSize = chunk;
    cfg.perFeatureQuantization = perFeature;
    cfg.compressModel = compress;
    cfg.retrainEpochs = 2;
    cfg.encoder.materializeBudgetBytes = budget;
    cfg.seed = 5;
    Fitted out{data::makeTrainTest(app.synthetic(3), app.trainCount,
                                   app.testCount),
               Classifier(cfg)};
    out.clf.fit(out.data.train);
    return out;
}

std::vector<std::span<const double>>
rowsOf(const data::Dataset &ds)
{
    std::vector<std::span<const double>> rows;
    for (std::size_t i = 0; i < ds.size(); ++i)
        rows.push_back(ds.row(i));
    return rows;
}

/** sum_d row_c[d] * H_d over the int8 class rows, exact. */
std::vector<std::int64_t>
exactSums(const QuantizedServingModel &qm, const hdc::IntHv &query)
{
    const std::size_t d = qm.dim();
    std::vector<std::int64_t> out(qm.numClasses(), 0);
    for (std::size_t c = 0; c < out.size(); ++c)
        for (std::size_t i = 0; i < d; ++i)
            out[c] += static_cast<std::int64_t>(qm.int8Rows()[c * d + i]) *
                      query[i];
    return out;
}

/** Encode-path scores at the classifier's serving precision. */
std::vector<double>
encodePathScores(const Classifier &clf, std::span<const double> row)
{
    const hdc::IntHv query = clf.encoder().encode(row);
    const hdc::IntHv *q = &query;
    switch (clf.servingPrecision()) {
    case Precision::kInt8:
        return clf.quantizedModel().scoresBatchI8(&q, 1);
    case Precision::kBinary:
        return clf.quantizedModel().scoresBatchBinary(&q, 1);
    case Precision::kFloat64:
        break;
    }
    return clf.config().compressModel
               ? clf.compressedModel().scores(query)
               : clf.uncompressedModel().scores(query);
}

std::uint64_t
counterValue(const char *name)
{
    return obs::MetricRegistry::global().counter(name).value();
}

TEST(ScoreTable, Int8SumsAreExactDotsOfTheEncoding)
{
    struct Case
    {
        const char *app;
        std::size_t chunk;
    };
    // SPEECH has 617 (prime) features, ACTIVITY 561 = 3 * 187,
    // PHYSICAL 52 = 4 * 13: each app gets a uniform and a ragged
    // (n % r != 0) chunking.
    const Case cases[] = {{"SPEECH", 5},   {"SPEECH", 1},
                          {"ACTIVITY", 3}, {"ACTIVITY", 5},
                          {"PHYSICAL", 4}, {"PHYSICAL", 5}};
    for (const Case &c : cases) {
        for (const bool perFeature : {false, true}) {
            Fitted fx = fitApp(c.app, c.chunk, perFeature);
            fx.clf.setServingPrecision(Precision::kInt8);
            const ScoreTable *table = fx.clf.servingTable();
            ASSERT_NE(table, nullptr);
            EXPECT_EQ(table->precision(), Precision::kInt8);
            const QuantizedServingModel &qm = fx.clf.quantizedModel();
            for (std::size_t i = 0; i < fx.data.test.size(); ++i) {
                const auto row = fx.data.test.row(i);
                const std::vector<std::int64_t> exact =
                    exactSums(qm, fx.clf.encoder().encode(row));
                ASSERT_EQ(table->integerSums(row), exact)
                    << c.app << " r=" << c.chunk
                    << " perFeature=" << perFeature << " row " << i;
                const std::vector<double> got = fx.clf.scores(row);
                for (std::size_t k = 0; k < exact.size(); ++k)
                    EXPECT_EQ(got[k], static_cast<double>(exact[k]) *
                                          qm.scales()[k]);
            }
        }
    }
}

TEST(ScoreTable, Float64MatchesTheEncodePath)
{
    for (const char *app : {"SPEECH", "PHYSICAL", "ACTIVITY"}) {
        for (const bool compress : {true, false}) {
            Fitted fx = fitApp(app, 5, false, compress);
            ASSERT_NE(fx.clf.servingTable(), nullptr);
            EXPECT_EQ(fx.clf.servingTable()->precision(),
                      Precision::kFloat64);
            for (std::size_t i = 0; i < fx.data.test.size(); ++i) {
                const auto row = fx.data.test.row(i);
                const std::vector<double> want =
                    encodePathScores(fx.clf, row);
                const std::vector<double> got = fx.clf.scores(row);
                ASSERT_EQ(got.size(), want.size());
                double scale = 0.0;
                for (const double v : want)
                    scale = std::max(scale, std::abs(v));
                for (std::size_t k = 0; k < want.size(); ++k)
                    EXPECT_LE(std::abs(got[k] - want[k]), 1e-9 * scale)
                        << app << " compress=" << compress << " row "
                        << i << " class " << k;
                EXPECT_EQ(hdc::argmax(got), hdc::argmax(want))
                    << app << " compress=" << compress << " row " << i;
            }
        }
    }
}

TEST(ScoreTable, BitIdenticalAcrossImplsBatchSizesAndThreads)
{
    // ACTIVITY's 561 x 4 x 6 x 512 multiply-adds are enough for the
    // build to use every requested thread.
    Fitted fx = fitApp("ACTIVITY", 5, false);
    fx.clf.quantize();
    const auto rows = rowsOf(fx.data.test);
    std::vector<hdc::RealHv> real;
    for (std::size_t c = 0; c < fx.clf.compressedModel().numClasses(); ++c)
        real.push_back(fx.clf.compressedModel().effectiveRow(c));

    auto scoreAll = [&](const ScoreTable &table) {
        std::vector<std::vector<double>> out;
        for (const auto row : rows)
            out.push_back(table.scores(row));
        return out;
    };
    kernels::forceImpl(kernels::Impl::kScalar);
    const auto refI8 = scoreAll(*ScoreTable::fromInt8Rows(
        fx.clf.encoder(), fx.clf.quantizedModel(), 1 << 30, 1));
    const auto refF64 = scoreAll(
        *ScoreTable::fromRealRows(fx.clf.encoder(), real, 1 << 30, 1));
    kernels::clearForcedImpl();
    for (const kernels::Impl impl :
         {kernels::Impl::kScalar, kernels::Impl::kAvx2,
          kernels::Impl::kAvx512, kernels::Impl::kNeon}) {
        if (!kernels::implAvailable(impl))
            continue;
        kernels::forceImpl(impl);
        for (const std::size_t threads : {1UL, 2UL, 4UL}) {
            EXPECT_EQ(scoreAll(*ScoreTable::fromInt8Rows(
                          fx.clf.encoder(), fx.clf.quantizedModel(),
                          1 << 30, threads)),
                      refI8)
                << kernels::implName(impl) << " threads=" << threads;
            EXPECT_EQ(scoreAll(*ScoreTable::fromRealRows(
                          fx.clf.encoder(), real, 1 << 30, threads)),
                      refF64)
                << kernels::implName(impl) << " threads=" << threads;
        }
        kernels::clearForcedImpl();
    }

    // Through the classifier: every batch size and thread count
    // returns scores() bit for bit.
    for (const Precision p : {Precision::kFloat64, Precision::kInt8}) {
        fx.clf.setServingPrecision(p);
        for (const std::size_t batch : {1UL, 3UL, rows.size()}) {
            for (const std::size_t threads : {1UL, 2UL, 4UL}) {
                for (std::size_t lo = 0; lo < rows.size(); lo += batch) {
                    const std::size_t hi =
                        std::min(rows.size(), lo + batch);
                    const auto got = fx.clf.scoresBatch(
                        std::span(rows).subspan(lo, hi - lo), threads);
                    for (std::size_t i = lo; i < hi; ++i)
                        ASSERT_EQ(got[i - lo], fx.clf.scores(rows[i]))
                            << precisionName(p) << " batch=" << batch
                            << " threads=" << threads << " row " << i;
                }
            }
        }
    }
}

TEST(ScoreTable, OverBudgetTableFallsBackToTheEncodePath)
{
    // A 1 KiB budget holds neither table (nor the chunk tables, which
    // then encode on the fly); scores are the encode path's exactly.
    Fitted fx = fitApp("PHYSICAL", 5, false, true, 1024);
    for (const Precision p :
         {Precision::kFloat64, Precision::kInt8, Precision::kBinary}) {
        fx.clf.setServingPrecision(p);
        EXPECT_EQ(fx.clf.servingTable(), nullptr) << precisionName(p);
        const auto rows = rowsOf(fx.data.test);
        const auto batch = fx.clf.scoresBatch(rows, 2);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(fx.clf.scores(rows[i]),
                      encodePathScores(fx.clf, rows[i]))
                << precisionName(p) << " row " << i;
            EXPECT_EQ(batch[i], fx.clf.scores(rows[i]));
        }
    }
}

TEST(ScoreTable, Int32OverflowRiskFallsBackToTheEncodePath)
{
    // n * ||row||_1 = 1100 * 16384 * 127 > INT32_MAX: the int8 sums
    // could wrap, so no int8 table is built (the float64 one is).
    const hdc::Dim dim = 16384;
    const std::size_t n = 1100;
    util::Rng rng(3);
    auto levels = std::make_shared<hdc::LevelMemory>(dim, 2, rng);
    auto encoder = std::make_unique<LookupEncoder>(
        levels, quant::Quantizer::fromBounds({0.0}), ChunkSpec(n, 5), rng);
    hdc::ClassModel model(dim, 2);
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < dim; ++i)
            model.classHv(c)[i] = rng.nextSign() * static_cast<int>(i % 7);
    std::vector<std::int8_t> rows(2 * dim);
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = static_cast<std::int8_t>(rng.nextSign() * 127);
    auto qm = std::make_shared<const QuantizedServingModel>(
        dim, rows, std::vector<double>{0.5, 0.25},
        std::vector<hdc::PackedHv>(2, hdc::PackedHv(dim)));
    EXPECT_FALSE(ScoreTable::fromInt8Rows(*encoder, *qm,
                                          std::size_t{1} << 40, 1));

    ClassifierConfig cfg;
    cfg.dim = dim;
    cfg.quantLevels = 2;
    cfg.chunkSize = 5;
    cfg.compressModel = false;
    Classifier clf = Classifier::restore(cfg, levels, std::move(encoder),
                                         std::move(model), std::nullopt,
                                         {});
    clf.attachQuantized(qm);
    clf.setServingPrecision(Precision::kInt8);
    EXPECT_EQ(clf.servingTable(), nullptr);
    for (int trial = 0; trial < 2; ++trial) {
        std::vector<double> features(n);
        for (double &v : features)
            v = 2.0 * rng.nextDouble() - 1.0;
        EXPECT_EQ(clf.scores(features), encodePathScores(clf, features));
    }
}

TEST(ScoreTable, ScoresSurviveSaveAndLoad)
{
    Fitted fx = fitApp("ACTIVITY", 5, true);
    fx.clf.quantize();
    std::stringstream buf;
    saveClassifier(fx.clf, buf);
    Classifier loaded = loadClassifier(buf);
    for (const Precision p : {Precision::kFloat64, Precision::kInt8}) {
        fx.clf.setServingPrecision(p);
        loaded.setServingPrecision(p);
        ASSERT_NE(loaded.servingTable(), nullptr);
        for (std::size_t i = 0; i < fx.data.test.size(); ++i)
            EXPECT_EQ(loaded.scores(fx.data.test.row(i)),
                      fx.clf.scores(fx.data.test.row(i)))
                << precisionName(p) << " row " << i;
    }
}

TEST(ScoreTable, TableOnlyLoadBuildsChunkTablesOnFirstEncode)
{
    Fitted fx = fitApp("SPEECH", 5, false);
    fx.clf.quantize();
    std::stringstream buf;
    saveClassifier(fx.clf, buf);

    const std::uint64_t builds = counterValue("lookhd.table.builds");
    Classifier loaded = loadClassifier(buf);
    loaded.setServingPrecision(Precision::kInt8);
    const auto rows = rowsOf(fx.data.test);
    (void)loaded.scoresBatch(rows);
    if (obs::kObsCompiled) {
        EXPECT_EQ(counterValue("lookhd.table.builds"), builds)
            << "serving from the score table built the chunk tables";
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(loaded.encoder().encode(rows[i]),
                  fx.clf.encoder().encode(rows[i]))
            << "row " << i;
    if (obs::kObsCompiled) {
        EXPECT_EQ(counterValue("lookhd.table.builds"), builds + 1);
    }
}

TEST(ScoreTable, FusedPassCountsLevelSaturation)
{
    if (!obs::kObsCompiled)
        GTEST_SKIP() << "observability compiled out";
    Fitted fx = fitApp("PHYSICAL", 4, false);
    fx.clf.setServingPrecision(Precision::kFloat64);
    ASSERT_NE(fx.clf.servingTable(), nullptr);
    const std::size_t top = fx.clf.config().quantLevels - 1;
    std::uint64_t values = 0;
    std::uint64_t saturated = 0;
    for (std::size_t i = 0; i < fx.data.test.size(); ++i) {
        for (const std::size_t l :
             fx.clf.quantizer().levelsOf(fx.data.test.row(i))) {
            ++values;
            saturated += l == 0 || l == top;
        }
    }
    const std::uint64_t v0 = counterValue("quant.level.values");
    const std::uint64_t s0 = counterValue("quant.level.saturated");
    (void)fx.clf.scoresBatch(rowsOf(fx.data.test));
    EXPECT_EQ(counterValue("quant.level.values") - v0, values);
    EXPECT_EQ(counterValue("quant.level.saturated") - s0, saturated);
}

} // namespace
