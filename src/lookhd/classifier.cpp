#include "lookhd/classifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"

#include "hdc/similarity.hpp"

namespace lookhd {

Classifier::Classifier(ClassifierConfig config)
    : config_(std::move(config))
{
    LOOKHD_CHECK(config_.dim > 0, "classifier dim must be nonzero");
    LOOKHD_CHECK(config_.quantLevels >= 2,
                 "classifier needs at least 2 quantization levels");
    LOOKHD_CHECK(config_.chunkSize > 0,
                 "classifier chunk size must be nonzero");
    resetTable(Precision::kFloat64);
    resetTable(Precision::kInt8);
}

Classifier
Classifier::restore(ClassifierConfig config,
                    std::shared_ptr<const hdc::LevelMemory> levels,
                    std::unique_ptr<LookupEncoder> encoder,
                    std::optional<hdc::ClassModel> model,
                    std::optional<CompressedModel> compressed,
                    std::vector<double> retrain_history)
{
    LOOKHD_CHECK(levels && encoder, "restore needs levels and encoder");
    LOOKHD_CHECK(encoder->quantizer().perFeature() ==
                     config.perFeatureQuantization,
                 "quantization source does not match configuration");
    LOOKHD_CHECK(model || compressed, "restore needs a model");

    Classifier clf(std::move(config));
    clf.levels_ = std::move(levels);
    clf.encoder_ = std::move(encoder);
    clf.model_ = std::move(model);
    if (clf.model_)
        clf.model_->normalize();
    clf.compressed_ = std::move(compressed);
    clf.retrainHistory_ = std::move(retrain_history);
    return clf;
}

void
Classifier::fit(const data::Dataset &train)
{
    LOOKHD_CHECK(!train.empty(), "cannot fit on an empty dataset");
    resetTable(Precision::kFloat64);
    resetTable(Precision::kInt8);

    LOOKHD_SPAN("classifier.fit", "train");
    LOOKHD_COUNT_ADD("classifier.fit.calls", 1);
    LOOKHD_GAUGE_SET("classifier.config.dim", config_.dim);
    LOOKHD_GAUGE_SET("classifier.config.quant_levels",
                     config_.quantLevels);
    LOOKHD_GAUGE_SET("classifier.config.chunk_size", config_.chunkSize);
    LOOKHD_GAUGE_SET("classifier.fit.samples", train.size());

    util::Rng rng(config_.seed);
    util::Rng level_rng = rng.split();
    util::Rng encoder_rng = rng.split();
    util::Rng key_rng = rng.split();

    // 1. Quantizer calibration: one global quantizer over every
    // training value, or one per feature column.
    quant::Quantizer quantizer = [&] {
        LOOKHD_SPAN("classifier.fit.quantize", "train");
        return quant::fit(config_.quantization, train,
                          config_.quantLevels,
                          config_.perFeatureQuantization);
    }();

    // 2. Item memories and the lookup encoder.
    {
        LOOKHD_SPAN("classifier.fit.build_encoder", "train");
        levels_ = std::make_shared<hdc::LevelMemory>(
            config_.dim, config_.quantLevels, level_rng,
            config_.levelGen);
        const ChunkSpec chunks(train.numFeatures(), config_.chunkSize);
        encoder_ = std::make_unique<LookupEncoder>(
            levels_, std::move(quantizer), chunks, encoder_rng,
            config_.encoder);
    }

    // 3. Counter-based initial training.
    {
        LOOKHD_SPAN("classifier.fit.count_train", "train");
        CounterTrainer trainer(*encoder_, config_.counters);
        model_.emplace(trainer.train(train));
    }

    retrainHistory_.clear();
    RetrainOptions opts = config_.retrain;
    opts.epochs = config_.retrainEpochs;

    if (config_.compressModel) {
        // 4. Compress, then retrain in the compressed domain.
        {
            LOOKHD_SPAN("classifier.fit.compress", "train");
            compressed_.emplace(*model_, key_rng, config_.compression);
        }
        LOOKHD_SPAN("classifier.fit.retrain", "retrain");
        Retrainer retrainer(*encoder_);
        const RetrainResult rr =
            retrainer.retrain(*compressed_, train, opts);
        retrainHistory_ = rr.accuracyHistory;
    } else {
        // 4'. Exact mode: perceptron retraining on the uncompressed
        // model with lookup-encoded queries.
        LOOKHD_SPAN("classifier.fit.retrain", "retrain");
        compressed_.reset();
        std::vector<hdc::IntHv> encoded;
        encoded.reserve(train.size());
        for (std::size_t i = 0; i < train.size(); ++i)
            encoded.push_back(encoder_->encode(train.row(i)));

        model_->normalize();
        retrainHistory_.push_back(hdc::evaluateEncoded(
            *model_, encoded, train.labels()));
        for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
            for (std::size_t i = 0; i < encoded.size(); ++i) {
                const std::size_t pred = model_->predict(encoded[i]);
                if (pred != train.label(i)) {
                    model_->update(train.label(i), pred, encoded[i]);
                    model_->normalize();
                }
            }
            retrainHistory_.push_back(hdc::evaluateEncoded(
                *model_, encoded, train.labels()));
        }
    }
}

std::size_t
Classifier::predict(std::span<const double> features) const
{
    return hdc::argmax(scores(features));
}

std::vector<double>
Classifier::scores(std::span<const double> features) const
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    LOOKHD_SPAN("classifier.predict", "search");
    LOOKHD_COUNT_ADD("classifier.predict.calls", 1);
    std::vector<double> out = rowScores(servingTable(), features);
    LOOKHD_QUALITY_MARGIN("classifier.predict", out);
    return out;
}

std::vector<double>
Classifier::rowScores(const ScoreTable *table,
                      std::span<const double> features) const
{
    if (table)
        return table->scores(features);
    const hdc::IntHv query = encoder_->encode(features);
    const hdc::IntHv *q = &query;
    switch (precision_) {
    case Precision::kInt8:
        return quantized_->scoresBatchI8(&q, 1);
    case Precision::kBinary:
        return quantized_->scoresBatchBinary(&q, 1);
    case Precision::kFloat64:
        break;
    }
    return compressed_ ? compressed_->scores(query)
                       : model_->scores(query);
}

std::vector<std::vector<double>>
Classifier::scoresBatch(std::span<const std::span<const double>> rows,
                        std::size_t threads) const
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    LOOKHD_SPAN("classifier.predict.batch", "search");
    LOOKHD_COUNT_ADD("classifier.predict.calls", rows.size());
    const ScoreTable *table = servingTable();
    std::vector<std::vector<double>> out(rows.size());
    // Rows are scored independently, so any split over threads (1 =
    // inline, 0 = one per hardware thread) returns the same bits.
    auto body = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            out[i] = rowScores(table, rows[i]);
            LOOKHD_QUALITY_MARGIN("classifier.predict", out[i]);
        }
    };
    const std::size_t resolved = std::min(
        par::resolveThreads(threads), std::max<std::size_t>(rows.size(), 1));
    if (resolved <= 1) {
        body(0, rows.size());
    } else {
        par::ThreadPool pool(resolved);
        pool.parallelFor(0, rows.size(), body);
    }
    return out;
}

std::vector<std::size_t>
Classifier::predictBatch(std::span<const std::span<const double>> rows,
                         std::size_t threads) const
{
    const std::vector<std::vector<double>> all =
        scoresBatch(rows, threads);
    std::vector<std::size_t> labels(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        labels[i] = hdc::argmax(all[i]);
    return labels;
}

double
Classifier::evaluate(const data::Dataset &test) const
{
    LOOKHD_CHECK(!test.empty(), "empty test set");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        const std::vector<double> s = scores(test.row(i));
        LOOKHD_QUALITY_OUTCOME("classifier.evaluate", test.label(i), s);
        correct += hdc::argmax(s) == test.label(i);
    }
    return static_cast<double>(correct) / static_cast<double>(test.size());
}

data::ConfusionMatrix
Classifier::evaluateDetailed(const data::Dataset &test) const
{
    LOOKHD_CHECK(!test.empty(), "empty test set");
    return data::confusionOf(
        test, [this](auto row) { return predict(row); });
}

std::size_t
Classifier::modelSizeBytes() const
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    if (compressed_)
        return compressed_->sizeBytes();
    return model_->sizeBytes();
}

void
Classifier::quantize()
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    // Quantize the uncompressed normalized prototypes whenever they
    // exist: sign-binarizing a key-bound compressed-group product
    // throws away the magnitude structure that cancels the other
    // grouped classes' interference, costing tens of accuracy
    // points, while the per-class prototypes quantize within the
    // 1% budget (gated by bench_quantized_predict). The compressed
    // fallback only serves models restored without prototypes.
    resetTable(Precision::kInt8);
    if (model_) {
        model_->normalize();
        quantized_ = std::make_shared<const QuantizedServingModel>(
            QuantizedServingModel::fromClassModel(*model_));
        return;
    }
    quantized_ = std::make_shared<const QuantizedServingModel>(
        QuantizedServingModel::fromCompressedModel(*compressed_));
}

const QuantizedServingModel &
Classifier::quantizedModel() const
{
    LOOKHD_CHECK(quantized_, "no quantized serving forms attached");
    return *quantized_;
}

void
Classifier::attachQuantized(std::shared_ptr<const QuantizedServingModel> q)
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    LOOKHD_CHECK(q != nullptr, "cannot attach a null quantized model");
    LOOKHD_CHECK(q->dim() == config_.dim,
                 "quantized model dimensionality mismatch");
    const std::size_t k = compressed_ ? compressed_->numClasses()
                                      : model_->numClasses();
    LOOKHD_CHECK(q->numClasses() == k,
                 "quantized model class count mismatch");
    resetTable(Precision::kInt8);
    quantized_ = std::move(q);
}

void
Classifier::setServingPrecision(Precision p)
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    if (p != Precision::kFloat64 && !quantized_)
        quantize();
    precision_ = p;
}

const ScoreTable *
Classifier::servingTable() const
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    if (precision_ == Precision::kBinary)
        return nullptr;
    const bool int8 = precision_ == Precision::kInt8;
    TableSlot &slot = *tables_[int8 ? 1 : 0];
    std::call_once(slot.built, [&] {
        const std::size_t budget = config_.encoder.materializeBudgetBytes;
        if (int8) {
            slot.table =
                ScoreTable::fromInt8Rows(*encoder_, *quantized_, budget);
        } else if (compressed_) {
            std::vector<hdc::RealHv> rows;
            rows.reserve(compressed_->numClasses());
            for (std::size_t c = 0; c < compressed_->numClasses(); ++c)
                rows.push_back(compressed_->effectiveRow(c));
            slot.table = ScoreTable::fromRealRows(*encoder_, rows, budget);
        } else {
            slot.table = ScoreTable::fromRealRows(
                *encoder_, model_->normalizedClasses(), budget);
        }
    });
    return slot.table ? &*slot.table : nullptr;
}

void
Classifier::resetTable(Precision p)
{
    tables_[p == Precision::kInt8 ? 1 : 0] =
        std::make_unique<TableSlot>();
}

const LookupEncoder &
Classifier::encoder() const
{
    LOOKHD_CHECK(encoder_, "classifier not fitted");
    return *encoder_;
}

const hdc::ClassModel &
Classifier::uncompressedModel() const
{
    LOOKHD_CHECK(model_, "classifier not fitted");
    return *model_;
}

const CompressedModel &
Classifier::compressedModel() const
{
    LOOKHD_CHECK(compressed_, "no compressed model");
    return *compressed_;
}

const quant::Quantizer &
Classifier::quantizer() const
{
    return encoder().quantizer();
}

} // namespace lookhd
