#include "replay.hpp"

#include <memory>
#include <stdexcept>
#include <string_view>

#include "common.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/serialize.hpp"
#include "obs/json.hpp"
#include "obs/reqtrace.hpp"
#include "serve/jsonin.hpp"

namespace perfbench {

namespace {

using lookhd::Precision;
using lookhd::hdc::IntHv;

/**
 * The server's request parse (InferenceServer::handleRequestLine):
 * DOM parse, id / scores / trace lookups, checked feature copy.
 */
std::vector<double>
parseRequest(std::string_view line)
{
    std::string error;
    const std::unique_ptr<lookhd::serve::JsonValue> doc =
        lookhd::serve::parseJson(line, error);
    if (!doc)
        throw std::runtime_error("replay parse: " + error);
    doc->find("id");
    doc->find("scores");
    doc->find("trace");
    const lookhd::serve::JsonValue *features = doc->find("features");
    if (features == nullptr || !features->isArray())
        throw std::runtime_error("replay parse: no features");
    std::vector<double> row;
    row.reserve(features->array.size());
    for (const lookhd::serve::JsonValue &v : features->array) {
        if (!v.isNumber())
            throw std::runtime_error("replay parse: non-numeric");
        row.push_back(v.number);
    }
    return row;
}

/** Flat k-per-query scores at @p clf's serving precision, through
 * the same model object Classifier::scoresBatch would use. Covers
 * the precisions the workloads serve: int8, and float64 on the
 * compressed model. */
std::vector<double>
scoreBatch(const lookhd::Classifier &clf, const IntHv *const *queries,
           std::size_t n)
{
    if (clf.servingPrecision() == Precision::kInt8)
        return clf.quantizedModel().scoresBatchI8(queries, n);
    if (clf.servingPrecision() == Precision::kFloat64 &&
        clf.config().compressModel)
        return clf.compressedModel().scoresBatch(queries, n);
    throw std::runtime_error("replay covers int8 and compressed float64 "
                             "scoring only");
}

std::size_t
argmaxOf(const double *scores, std::size_t k)
{
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c)
        if (scores[c] > scores[best])
            best = c;
    return best;
}

/** µs per request of the CPU time since @p startNs. */
double
usPer(std::uint64_t startNs, std::size_t requests)
{
    return static_cast<double>(threadCpuNs() - startNs) / 1e3 /
           static_cast<double>(requests);
}

} // namespace

LayerCosts
replayLayers(const lookhd::Classifier &clf, const RequestSet &set,
             std::size_t batch, std::size_t passes)
{
    const std::size_t n = set.lines.size();
    const lookhd::LookupEncoder &encoder = clf.encoder();
    const lookhd::obs::TraceId trace = lookhd::obs::makeTraceId();
    std::vector<double> parse, addr, encode, score, predict, serialize;
    std::vector<std::vector<double>> rows(n);
    std::vector<IntHv> encoded(n);
    std::size_t sink = 0;

    for (std::size_t pass = 0; pass < passes; ++pass) {
        std::uint64_t t = threadCpuNs();
        for (std::size_t i = 0; i < n; ++i) {
            std::string_view line = set.lines[i];
            line.remove_suffix(1); // the wire newline
            rows[i] = parseRequest(line);
        }
        parse.push_back(usPer(t, n));

        t = threadCpuNs();
        for (std::size_t i = 0; i < n; ++i)
            sink += encoder.chunkAddresses(rows[i]).size();
        addr.push_back(usPer(t, n));

        t = threadCpuNs();
        for (std::size_t i = 0; i < n; ++i)
            encoded[i] = encoder.encode(rows[i]);
        encode.push_back(usPer(t, n));

        std::vector<std::size_t> preds(n);
        t = threadCpuNs();
        for (std::size_t lo = 0; lo < n; lo += batch) {
            const std::size_t hi = std::min(n, lo + batch);
            std::vector<const IntHv *> queries;
            for (std::size_t i = lo; i < hi; ++i)
                queries.push_back(&encoded[i]);
            const std::vector<double> flat =
                scoreBatch(clf, queries.data(), queries.size());
            const std::size_t k = flat.size() / queries.size();
            for (std::size_t i = lo; i < hi; ++i)
                preds[i] = argmaxOf(flat.data() + (i - lo) * k, k);
        }
        score.push_back(usPer(t, n));

        std::vector<std::size_t> batchPreds(n);
        t = threadCpuNs();
        for (std::size_t lo = 0; lo < n; lo += batch) {
            const std::size_t hi = std::min(n, lo + batch);
            std::vector<std::span<const double>> spans;
            for (std::size_t i = lo; i < hi; ++i)
                spans.emplace_back(rows[i]);
            const std::vector<std::vector<double>> all =
                clf.scoresBatch(spans);
            for (std::size_t i = lo; i < hi; ++i)
                batchPreds[i] = lookhd::hdc::argmax(all[i - lo]);
        }
        predict.push_back(usPer(t, n));

        t = threadCpuNs();
        for (std::size_t i = 0; i < n; ++i) {
            lookhd::obs::JsonWriter w;
            w.beginObject();
            w.kv("id", static_cast<double>(i));
            w.kv("trace", lookhd::obs::traceIdHex(trace));
            w.kv("pred", static_cast<std::uint64_t>(preds[i]));
            w.endObject();
            sink += w.str().size();
        }
        serialize.push_back(usPer(t, n));

        for (std::size_t i = 0; i < n; ++i)
            if (preds[i] != set.oracle[i] || batchPreds[i] != preds[i])
                throw std::runtime_error(
                    "replayed prediction differs from the oracle at "
                    "row " + std::to_string(i));
    }
    if (sink == 0)
        throw std::runtime_error("replay produced nothing");

    LayerCosts costs;
    costs.parseUs = median(parse);
    costs.addrUs = median(addr);
    costs.encodeUs = median(encode);
    costs.scoreUs = median(score);
    costs.predictBatchUs = median(predict);
    costs.serializeUs = median(serialize);
    return costs;
}

TrainCosts
trainBreakdown(const lookhd::ClassifierConfig &config,
               const lookhd::data::Dataset &train,
               const lookhd::Classifier &fitted, const std::string &path)
{
    TrainCosts costs;
    std::uint64_t t = threadCpuNs();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < train.size(); ++i)
        sink += fitted.encoder().encode(train.row(i)).size();
    costs.encodeUsPerRow = usPer(t, train.size());

    lookhd::ClassifierConfig countOnly = config;
    countOnly.retrainEpochs = 0;
    lookhd::Classifier counted(countOnly);
    const double start = wallSeconds();
    counted.fit(train);
    costs.countS = wallSeconds() - start;

    std::vector<double> save, load;
    for (int rep = 0; rep < 3; ++rep) {
        double t0 = wallSeconds();
        lookhd::saveClassifierFile(fitted, path);
        save.push_back((wallSeconds() - t0) * 1e3);
        t0 = wallSeconds();
        sink += lookhd::loadClassifierFile(path).modelSizeBytes();
        load.push_back((wallSeconds() - t0) * 1e3);
    }
    if (sink == 0)
        throw std::runtime_error("train breakdown produced nothing");
    costs.saveMs = median(save);
    costs.loadMs = median(load);
    return costs;
}

} // namespace perfbench
