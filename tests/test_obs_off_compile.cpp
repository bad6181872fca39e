/**
 * @file
 * Compile-surface test for the observability gate: this TU includes
 * every obs header and touches every instrumentation macro, so both
 * CI configurations prove the same source builds - with
 * -DLOOKHD_OBS=OFF every macro must collapse to a true no-op that
 * never evaluates its arguments, and with the gate on the same
 * sites must actually record.
 */

#include <gtest/gtest.h>

#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lookhd;

int
touchAll(int &evals)
{
    auto touch = [&evals]() {
        ++evals;
        return std::uint64_t{1};
    };
    const std::vector<double> scores{2.0, 1.0};

    LOOKHD_SPAN("obsgate.span", "test");
    LOOKHD_COUNT_ADD("obsgate.counter", touch());
    LOOKHD_GAUGE_SET("obsgate.gauge", touch());
    LOOKHD_LATENCY_NS("obsgate.latency", touch());
    LOOKHD_QUALITY_MARGIN("obsgate.margin",
                          (touch(), scores));
    LOOKHD_QUALITY_OUTCOME("obsgate.outcome", touch() - 1, scores);
    (void)touch;  // silence unused warnings in the OFF build,
    (void)scores; // where no macro evaluates its arguments
    return evals;
}

#if LOOKHD_OBS_ENABLED

TEST(ObsGate, MacrosEvaluateAndRecordWhenOn)
{
    auto &q = obs::QualityTelemetry::global();
    const std::uint64_t margins_before =
        q.margins("obsgate.margin").count();
    int evals = 0;
    touchAll(evals);
    EXPECT_EQ(evals, 5);
    EXPECT_EQ(q.margins("obsgate.margin").count(),
              margins_before + 1);
    EXPECT_GE(q.confusion("obsgate.outcome").total(), 1u);
}

#else // !LOOKHD_OBS_ENABLED

TEST(ObsGate, MacrosAreTrueNoopsWhenOff)
{
    int evals = 0;
    touchAll(evals);
    // Compiled-out macros must not evaluate their arguments.
    EXPECT_EQ(evals, 0);
}

TEST(ObsGate, ObsClassesStillLinkWhenOff)
{
    // The classes stay compiled (BenchReporter and the CLI tools
    // emit their empty JSON sections even in OFF builds); only the
    // macro instrumentation disappears.
    obs::MarginHistogram h;
    h.record(0.5);
    EXPECT_EQ(h.count(), 1u);

    obs::JsonWriter w;
    obs::QualityTelemetry::global().writeJson(w);
    EXPECT_NE(w.str().find("\"margins\""), std::string::npos);

    EXPECT_NO_THROW(obs::QualityTelemetry::global().toJson());
}

#endif // LOOKHD_OBS_ENABLED

} // namespace
