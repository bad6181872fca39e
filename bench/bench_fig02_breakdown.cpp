/**
 * @file
 * Regenerates paper Fig. 2: the execution-time breakdown of baseline
 * HDC during training (encoding vs model update) and inference
 * (encoding vs associative search), both from the embedded-CPU cost
 * model and from measurements of this library's own kernels.
 *
 * The measured side comes from the obs span rollups - the same
 * instrumentation that ships in the library hot paths - rather than
 * timers placed in the bench, so the emitted BENCH_ JSON attributes
 * runtime exactly as production telemetry would. When the library is
 * built with -DLOOKHD_OBS=OFF the bench falls back to wall-clock
 * timers so the smoke test stays meaningful.
 */

#include <memory>

#include "common.hpp"
#include "hdc/encoder.hpp"
#include "hdc/trainer.hpp"
#include "hw/cpu_model.hpp"
#include "hw/report.hpp"
#include "quant/quantizer.hpp"
#include "util/timer.hpp"

namespace {

using namespace lookhd;

/** Measured breakdown of our baseline kernels on one app. */
struct Measured
{
    double encodeFracTrain;
    double searchFracInfer;
};

#if LOOKHD_OBS_ENABLED
/** Span-rollup delta of one name across a measured phase. */
std::uint64_t
spanDeltaNs(const std::vector<obs::SpanStats> &before,
            const std::vector<obs::SpanStats> &after,
            const std::string &name)
{
    return obs::totalNsOf(after, name) - obs::totalNsOf(before, name);
}
#endif

Measured
measure(const data::AppSpec &app)
{
    auto tt = bench::appData(app);
    util::Rng rng(3);
    auto levels =
        std::make_shared<hdc::LevelMemory>(2000, app.paperQ, rng);
    hdc::BaselineEncoder encoder(
        levels, quant::fitLinear(tt.train.allValues(), app.paperQ));

#if LOOKHD_OBS_ENABLED
    // Phase boundaries are span-rollup snapshots; the phase times are
    // whatever the in-library spans (hdc.encode, hdc.train.accumulate,
    // hdc.search) accumulated in between.
    const auto snap0 = obs::spanRollup();
#else
    util::Timer timer;
#endif

    // Training: encoding vs class accumulation.
    std::vector<hdc::IntHv> encoded;
    encoded.reserve(tt.train.size());
    for (std::size_t i = 0; i < tt.train.size(); ++i)
        encoded.push_back(encoder.encode(tt.train.row(i)));

#if LOOKHD_OBS_ENABLED
    const auto snap1 = obs::spanRollup();
#else
    const double t_encode = timer.seconds();
    timer.reset();
#endif

    hdc::ClassModel model(2000, app.numClasses);
    for (std::size_t i = 0; i < tt.train.size(); ++i)
        model.accumulate(tt.train.label(i), encoded[i]);
    model.normalize();

#if LOOKHD_OBS_ENABLED
    const auto snap2 = obs::spanRollup();
#else
    const double t_accumulate = timer.seconds();
    timer.reset();
#endif

    // Inference: encoding vs associative search.
    std::vector<hdc::IntHv> queries;
    queries.reserve(tt.test.size());
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        queries.push_back(encoder.encode(tt.test.row(i)));

#if LOOKHD_OBS_ENABLED
    const auto snap3 = obs::spanRollup();
#else
    const double t_query_encode = timer.seconds();
    timer.reset();
#endif

    std::size_t correct = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        correct += model.predict(queries[i]) == tt.test.label(i);

#if LOOKHD_OBS_ENABLED
    const auto snap4 = obs::spanRollup();
    const auto t_encode = static_cast<double>(
        spanDeltaNs(snap0, snap1, "hdc.encode"));
    const auto t_accumulate = static_cast<double>(
        spanDeltaNs(snap1, snap2, "hdc.train.accumulate"));
    const auto t_query_encode = static_cast<double>(
        spanDeltaNs(snap2, snap3, "hdc.encode"));
    const auto t_search = static_cast<double>(
        spanDeltaNs(snap3, snap4, "hdc.search"));
#else
    const double t_search = timer.seconds();
#endif

    return {t_encode / (t_encode + t_accumulate),
            t_search / (t_query_encode + t_search)};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("fig02_breakdown", argc, argv);
    bench::banner("Fig. 2: baseline HDC time breakdown (train: "
                  "encoding share; infer: search share)");
    rep.config("dim", 2000.0);
    rep.config("train_per_class",
               static_cast<double>(bench::gScale.trainPerClass));
    rep.config("test_per_class",
               static_cast<double>(bench::gScale.testPerClass));

    hw::CpuModel cpu;
    util::Table table({"Application", "train enc% (model)",
                       "train enc% (measured)", "infer search% (model)",
                       "infer search% (measured)"});
    double model_enc = 0.0, model_search = 0.0;
    double meas_enc = 0.0, meas_search = 0.0;
    for (const auto &app : data::paperApps()) {
        const hw::AppParams p =
            hw::appParamsFor(app, 2000, app.paperQ, 5);
        const Measured m = measure(app);
        const double enc = cpu.baselineTrainEncodingFraction(p);
        const double search = cpu.baselineInferSearchFraction(p);
        model_enc += enc;
        model_search += search;
        meas_enc += m.encodeFracTrain;
        meas_search += m.searchFracInfer;
        table.addRow({app.name, util::fmtPercent(enc),
                      util::fmtPercent(m.encodeFracTrain),
                      util::fmtPercent(search),
                      util::fmtPercent(m.searchFracInfer)});
        rep.metric(std::string(app.name) + ".train_encode_frac",
                   m.encodeFracTrain);
        rep.metric(std::string(app.name) + ".infer_search_frac",
                   m.searchFracInfer);
    }
    table.addRow({"average", util::fmtPercent(model_enc / 5.0),
                  util::fmtPercent(meas_enc / 5.0),
                  util::fmtPercent(model_search / 5.0),
                  util::fmtPercent(meas_search / 5.0)});
    std::printf("%s", table.render().c_str());
    rep.metric("avg.train_encode_frac.model", model_enc / 5.0);
    rep.metric("avg.train_encode_frac.measured", meas_enc / 5.0);
    rep.metric("avg.infer_search_frac.model", model_search / 5.0);
    rep.metric("avg.infer_search_frac.measured", meas_search / 5.0);

#if LOOKHD_OBS_ENABLED
    // Whole-run attribution from the final rollup: the paper's claim
    // is that encoding dominates total baseline-HDC runtime.
    const auto rollup = obs::spanRollup();
    const auto enc_ns = static_cast<double>(
        obs::totalNsOf(rollup, "hdc.encode"));
    const auto other_ns = static_cast<double>(
        obs::totalNsOf(rollup, "hdc.train.accumulate") +
        obs::totalNsOf(rollup, "hdc.search"));
    const double overall =
        enc_ns > 0.0 ? enc_ns / (enc_ns + other_ns) : 0.0;
    rep.metric("span.encode_frac_overall", overall);
    std::printf("\nSpan rollup: encoding is %.1f%% of measured "
                "baseline-HDC kernel time (encode vs accumulate + "
                "search).\n",
                100.0 * overall);
#endif

    std::printf("\nPaper: encoding ~80%% of training (90%% for SPEECH);"
                " associative search ~83%% of inference on average.\n"
                "Our x86 kernels vectorize the search better than the "
                "paper's A53 float path, so the measured search share "
                "is lower; the trend (search share grows with k, "
                "encoding dominates training) reproduces.\n");
    rep.write();
    return 0;
}
