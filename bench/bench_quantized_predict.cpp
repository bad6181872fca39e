/**
 * @file
 * Quantized serving vs the double-accumulation float path on the
 * fig04-gated workload (SPEECH: 617 features, 26 classes, D=2000).
 *
 * Scored modes over the same pre-encoded test queries:
 *
 *   float64             the batched double-accumulation path over the
 *                       normalized class prototypes - the rows int8
 *                       and binary are quantized from;
 *   float64 compressed  the compressed model (Sec. IV), which float64
 *                       serving scores by default: its own model, so
 *                       its own pinned accuracy;
 *   int8                per-row-scaled int8 class rows, one
 *                       scoresBatchI8 kernel pass, score = raw dot x
 *                       the two scales;
 *   binary              sign-packed rows, matchCountWords popcounts.
 *
 * Then the score-table path (score_table.hpp) that Classifier serves
 * float64 and int8 with, on the raw test rows.
 *
 * Reported and gated (bench/baselines/thresholds.json):
 *
 *   accuracy_float64 / accuracy_float64_compressed / accuracy_int8 /
 *       accuracy_binary  test-set accuracy of each mode
 *       (deterministic: seeded data, seeded training, exact integer
 *       scoring);
 *   accuracy_delta_int8 / accuracy_delta_binary  float64 accuracy of
 *       the prototypes minus quantized accuracy of the same
 *       prototypes; the 1% budget is enforced both here (hard
 *       process failure past 0.01) and as a gated direction=lower
 *       threshold;
 *   table_agrees_int8 / table_agrees_float64  fraction of test rows
 *       whose table-path prediction equals the encode path's (int8
 *       rows; the compressed model float64 serves); gated exactly
 *       at 1;
 *   score_table_us_per_row  int8 table path per raw row, quantize
 *       included (informational);
 *   speedup_int8_vs_float64 / speedup_binary_vs_float64  single-
 *       thread scoring throughput ratios (informational: timing
 *       noise, not correctness);
 *   results_identical  1 when every quantized score is bit-identical
 *       across all compiled-in kernel Impls (hard-gated exact).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common.hpp"
#include "hdc/kernels.hpp"
#include "lookhd/quantized_inference.hpp"
#include "util/timer.hpp"

namespace {

using namespace lookhd;
namespace kernels = hdc::kernels;

std::string
fmt(double value, const char *spec = "%.4f")
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), spec, value);
    return buffer;
}

/** Wall-clock seconds of the fastest of `passes` runs of fn(). */
template <typename Fn>
double
minSeconds(std::size_t passes, Fn &&fn)
{
    double best = 0.0;
    for (std::size_t p = 0; p < passes; ++p) {
        const util::Timer timer;
        fn();
        const double s = timer.seconds();
        if (p == 0 || s < best)
            best = s;
    }
    return best;
}

std::size_t
argmax(const double *scores, std::size_t k)
{
    return static_cast<std::size_t>(
        std::max_element(scores, scores + k) - scores);
}

double
accuracyOfScores(const std::vector<double> &flat, std::size_t k,
                 const data::Dataset &test)
{
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
        hits += argmax(flat.data() + i * k, k) == test.label(i);
    return static_cast<double>(hits) /
           static_cast<double>(test.size());
}

std::vector<kernels::Impl>
availableImpls()
{
    std::vector<kernels::Impl> impls;
    for (kernels::Impl impl :
         {kernels::Impl::kScalar, kernels::Impl::kAvx2,
          kernels::Impl::kAvx512, kernels::Impl::kNeon})
        if (kernels::implAvailable(impl))
            impls.push_back(impl);
    return impls;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("quantized_predict", argc, argv);
    bench::banner("Quantized serving (int8 dot / packed popcount) vs "
                  "the float64 path (SPEECH, 26 classes)");

    const auto &app = data::appByName("SPEECH");
    const auto tt = bench::appData(app, 23);
    ClassifierConfig cfg = bench::appConfig(app);
    Classifier clf(cfg);
    clf.fit(tt.train);
    clf.quantize();
    const QuantizedServingModel &qm = clf.quantizedModel();
    const std::size_t k = qm.numClasses();

    // Pre-encode once: this bench isolates the scoring arithmetic
    // (the encoder is identical on every precision).
    std::vector<hdc::IntHv> queries;
    std::vector<const hdc::IntHv *> qptrs;
    queries.reserve(tt.test.size());
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        queries.push_back(clf.encoder().encode(tt.test.row(i)));
    for (const hdc::IntHv &q : queries)
        qptrs.push_back(&q);

    const std::size_t passes = rep.quick() ? 3 : 10;

    // float64: the batched double-accumulation baseline over the
    // normalized prototypes quantize() built the int8/binary rows
    // from, so the accuracy deltas compare one model.
    std::vector<double> floatScores;
    const double tFloat = minSeconds(passes, [&] {
        floatScores = clf.uncompressedModel().scoresBatch(
            qptrs.data(), qptrs.size());
    });
    const std::vector<double> compressedScores =
        clf.compressedModel().scoresBatch(qptrs.data(), qptrs.size());

    // int8 and binary through the quantized forms.
    std::vector<double> i8Scores;
    const double tI8 = minSeconds(passes, [&] {
        i8Scores = qm.scoresBatchI8(qptrs.data(), qptrs.size());
    });
    std::vector<double> binScores;
    const double tBin = minSeconds(passes, [&] {
        binScores = qm.scoresBatchBinary(qptrs.data(), qptrs.size());
    });

    // Cross-impl bit identity of both quantized paths: every
    // compiled-in Impl must reproduce the best-impl scores exactly.
    bool identical = true;
    for (const kernels::Impl impl : availableImpls()) {
        kernels::forceImpl(impl);
        identical = identical &&
                    qm.scoresBatchI8(qptrs.data(), qptrs.size()) ==
                        i8Scores &&
                    qm.scoresBatchBinary(qptrs.data(),
                                         qptrs.size()) == binScores;
        kernels::clearForcedImpl();
        if (!identical) {
            std::fprintf(stderr,
                         "bench_quantized_predict: impl %s diverges "
                         "- quantized determinism contract broken\n",
                         kernels::implName(impl));
            return 1;
        }
    }

    // The table path on the raw rows: predictions must match the
    // encode path's at both table precisions.
    std::vector<std::span<const double>> rows;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        rows.push_back(tt.test.row(i));
    auto tableAgreement = [&](Precision p,
                              const std::vector<double> &encoded) {
        clf.setServingPrecision(p);
        if (clf.servingTable() == nullptr) {
            std::fprintf(stderr, "bench_quantized_predict: no %s score "
                                 "table\n",
                         precisionName(p));
            std::exit(1);
        }
        const std::vector<std::size_t> preds = clf.predictBatch(rows);
        std::size_t agree = 0;
        for (std::size_t i = 0; i < preds.size(); ++i)
            agree += preds[i] == argmax(encoded.data() + i * k, k);
        return static_cast<double>(agree) /
               static_cast<double>(preds.size());
    };
    const double agreeF64 =
        tableAgreement(Precision::kFloat64, compressedScores);
    const double agreeI8 = tableAgreement(Precision::kInt8, i8Scores);
    const double tTable = minSeconds(passes, [&] {
        (void)clf.scoresBatch(rows);
    });
    const double tableUsPerRow =
        1e6 * tTable / static_cast<double>(rows.size());

    const double accFloat =
        accuracyOfScores(floatScores, k, tt.test);
    const double accCompressed =
        accuracyOfScores(compressedScores, k, tt.test);
    const double accI8 = accuracyOfScores(i8Scores, k, tt.test);
    const double accBin = accuracyOfScores(binScores, k, tt.test);
    const double deltaI8 = accFloat - accI8;
    const double deltaBin = accFloat - accBin;

    // The issue's accuracy budget, enforced in-process: quantized
    // serving loses at most one point on the fig04 workload.
    const double kBudget = 0.01;
    if (deltaI8 > kBudget || deltaBin > kBudget) {
        std::fprintf(stderr,
                     "bench_quantized_predict: accuracy delta past "
                     "the %.0f%% budget (int8 %.4f, binary %.4f)\n",
                     100.0 * kBudget, deltaI8, deltaBin);
        return 1;
    }

    const double speedupI8 = tFloat / std::max(tI8, 1e-12);
    const double speedupBin = tFloat / std::max(tBin, 1e-12);

    util::Table table({"precision", "kernel", "ms/pass", "accuracy",
                       "speedup vs float64"});
    const char *best = kernels::implName(kernels::activeImpl());
    table.addRow({"float64", best, fmt(1e3 * tFloat, "%.2f"),
                  fmt(accFloat), "1.00x"});
    table.addRow({"float64 compressed", best, "-", fmt(accCompressed),
                  "-"});
    table.addRow({"int8", best, fmt(1e3 * tI8, "%.2f"), fmt(accI8),
                  fmt(speedupI8, "%.2f") + "x"});
    table.addRow({"binary", best, fmt(1e3 * tBin, "%.2f"),
                  fmt(accBin), fmt(speedupBin, "%.2f") + "x"});
    std::printf("%s", table.render().c_str());
    std::printf("\nQuantized scores bit-identical across every "
                "compiled-in kernel impl; accuracy deltas within "
                "the %.0f%% budget.\n",
                100.0 * kBudget);
    std::printf("Score table: %.2f us/row (int8, quantize included); "
                "predictions agree with the encode path on %.4f "
                "(int8) and %.4f (float64) of the rows.\n",
                tableUsPerRow, agreeI8, agreeF64);

    rep.config("app", app.name);
    rep.config("kernel", best);
    rep.config("dim", static_cast<double>(cfg.dim));
    rep.config("classes", static_cast<double>(k));
    rep.config("features", static_cast<double>(app.numFeatures));
    rep.config("rows", static_cast<double>(tt.test.size()));
    rep.config("passes", static_cast<double>(passes));
    rep.metric("score_float64_ms", 1e3 * tFloat);
    rep.metric("score_int8_ms", 1e3 * tI8);
    rep.metric("score_binary_ms", 1e3 * tBin);
    rep.metric("accuracy_float64", accFloat);
    rep.metric("accuracy_float64_compressed", accCompressed);
    rep.metric("accuracy_int8", accI8);
    rep.metric("accuracy_binary", accBin);
    rep.metric("accuracy_delta_int8", deltaI8);
    rep.metric("accuracy_delta_binary", deltaBin);
    rep.metric("speedup_int8_vs_float64", speedupI8);
    rep.metric("speedup_binary_vs_float64", speedupBin);
    rep.metric("results_identical", identical ? 1.0 : 0.0);
    rep.metric("table_agrees_int8", agreeI8);
    rep.metric("table_agrees_float64", agreeF64);
    rep.metric("score_table_us_per_row", tableUsPerRow);
    rep.write();
    return 0;
}
