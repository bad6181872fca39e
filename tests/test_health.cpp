/**
 * @file
 * Tests for the health evaluators (obs/health.hpp): Page-Hinkley and
 * PSI units, the deterministic margin-shift drift trip, and the
 * multi-window SLO burn engine with its clear hysteresis. Every test
 * drives a local registry/telemetry with a synthetic clock; no
 * threads, no wall time.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "serve/jsonin.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::obs;

constexpr std::uint64_t kSecondNs = 1'000'000'000ULL;

// ----------------------------------------------------------- PageHinkley

TEST(PageHinkley, StableSignalNeverTrips)
{
    PageHinkley::Config cfg;
    cfg.delta = 0.01;
    cfg.lambda = 0.05;
    PageHinkley ph(cfg);
    ASSERT_TRUE(ph.enabled());
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(ph.observe(0.5));
    EXPECT_EQ(ph.statistic(), 0.0);
}

TEST(PageHinkley, DownwardShiftTripsAndRearms)
{
    PageHinkley::Config cfg;
    cfg.delta = 0.01;
    cfg.lambda = 0.05;
    PageHinkley ph(cfg);
    for (int i = 0; i < 20; ++i)
        ph.observe(0.8);
    bool tripped = false;
    int windowsToTrip = 0;
    for (int i = 0; i < 50 && !tripped; ++i) {
        tripped = ph.observe(0.1);
        ++windowsToTrip;
    }
    EXPECT_TRUE(tripped);
    EXPECT_LT(windowsToTrip, 10);
    // The trip reset the detector: the statistic re-accumulates
    // against the new level instead of re-tripping every sample.
    EXPECT_EQ(ph.statistic(), 0.0);
    EXPECT_FALSE(ph.observe(0.1));
}

TEST(PageHinkley, DisabledByDefaultAndIgnoresNaN)
{
    PageHinkley ph;
    EXPECT_FALSE(ph.enabled());
    EXPECT_FALSE(ph.observe(0.0));

    PageHinkley::Config cfg;
    cfg.lambda = 0.05;
    PageHinkley armed(cfg);
    EXPECT_FALSE(armed.observe(std::nan("")));
    EXPECT_EQ(armed.statistic(), 0.0);
}

// ------------------------------------------------------------------- PSI

TEST(Psi, IdenticalDistributionsScoreNearZero)
{
    const std::vector<double> ref = {0.25, 0.25, 0.25, 0.25};
    EXPECT_NEAR(populationStabilityIndex(ref, ref), 0.0, 1e-12);
}

TEST(Psi, ShiftedDistributionScoresAboveDriftBand)
{
    const std::vector<double> ref = {0.7, 0.2, 0.1, 0.0};
    const std::vector<double> live = {0.05, 0.1, 0.25, 0.6};
    EXPECT_GT(populationStabilityIndex(ref, live), 0.25);
}

TEST(Psi, EmptyOrMismatchedSidesScoreZero)
{
    EXPECT_EQ(populationStabilityIndex({}, {}), 0.0);
    EXPECT_EQ(populationStabilityIndex({0.5, 0.5}, {1.0}), 0.0);
}

TEST(Psi, BucketFractionsNormalize)
{
    const std::uint64_t counts[4] = {1, 1, 2, 0};
    const std::vector<double> f = bucketFractions(counts, 4);
    ASSERT_EQ(f.size(), 4u);
    EXPECT_DOUBLE_EQ(f[0], 0.25);
    EXPECT_DOUBLE_EQ(f[2], 0.5);
    EXPECT_DOUBLE_EQ(f[3], 0.0);

    const std::uint64_t zeros[2] = {0, 0};
    for (const double v : bucketFractions(zeros, 2))
        EXPECT_EQ(v, 0.0);
}

// --------------------------------------------------------- HealthMonitor

class HealthTest : public ::testing::Test
{
  protected:
    MetricRegistry reg;
    QualityTelemetry quality;
    std::uint64_t nowNs = 0;

    /** Advance the synthetic clock one window and sample. */
    WindowStats tick(HealthMonitor &mon)
    {
        nowNs += kSecondNs;
        return mon.sample(nowNs);
    }

    void recordMargins(double value, int n)
    {
        MarginHistogram &m = quality.margins("serve.predict");
        for (int i = 0; i < n; ++i)
            m.record(value);
    }

    double counterValue(const std::string &name)
    {
        const RegistrySnapshot snap = reg.snapshot();
        const auto it = snap.counters.find(name);
        return it == snap.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    }

    double gaugeValue(const std::string &name)
    {
        const RegistrySnapshot snap = reg.snapshot();
        const auto it = snap.gauges.find(name);
        return it == snap.gauges.end() ? 0.0 : it->second;
    }
};

TEST_F(HealthTest, MarginShiftTripsDriftDeterministically)
{
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    cfg.drift.psiThreshold = 0.25;
    cfg.drift.warmupWindows = 2;
    cfg.drift.minMarginCount = 10;
    HealthMonitor mon(reg, quality, cfg);

    // Warm-up traffic: confident margins around 0.8.
    for (int w = 0; w < 2; ++w) {
        recordMargins(0.8, 100);
        tick(mon);
    }
    DriftState d = mon.driftState();
    EXPECT_TRUE(d.referenceReady);
    EXPECT_EQ(d.referenceSource, "warmup");
    EXPECT_EQ(d.referenceCount, 200u);
    EXPECT_FALSE(d.violated);

    // Matching traffic after warm-up stays clean.
    recordMargins(0.8, 100);
    tick(mon);
    d = mon.driftState();
    EXPECT_FALSE(d.violated);
    EXPECT_LT(d.psi, 0.1);
    EXPECT_TRUE(mon.verdict().ready);

    // Collapsed margins: the whole distribution jumps to the
    // negative bucket, PSI blows through the threshold, and the
    // trip counter increments exactly once while violated holds.
    recordMargins(-0.5, 100);
    tick(mon);
    d = mon.driftState();
    EXPECT_TRUE(d.violated);
    EXPECT_GT(d.psi, 0.25);
    EXPECT_EQ(d.trips, 1u);
    EXPECT_EQ(counterValue("serve.health.drift_trips"), 1.0);
    EXPECT_FALSE(mon.verdict().ready);
    EXPECT_EQ(mon.verdict().reason, "drift");
    EXPECT_EQ(gaugeValue("serve.health.ok"), 0.0);
    EXPECT_EQ(gaugeValue("drift.violated"), 1.0);

    recordMargins(-0.5, 100);
    tick(mon);
    EXPECT_EQ(mon.driftState().trips, 1u) << "still one episode";

    // Distribution returns to the reference: violated clears, and a
    // second shift is a second, separately counted episode.
    recordMargins(0.8, 100);
    tick(mon);
    EXPECT_FALSE(mon.driftState().violated);
    EXPECT_TRUE(mon.verdict().ready);

    recordMargins(-0.5, 100);
    tick(mon);
    EXPECT_EQ(mon.driftState().trips, 2u);
    EXPECT_EQ(counterValue("serve.health.drift_trips"), 2.0);
}

TEST_F(HealthTest, SparseWindowsAreSkippedNotJudged)
{
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    cfg.drift.warmupWindows = 1;
    cfg.drift.minMarginCount = 50;
    HealthMonitor mon(reg, quality, cfg);

    recordMargins(0.8, 100);
    tick(mon);
    ASSERT_TRUE(mon.driftState().referenceReady);

    // 10 wildly-shifted margins are below minMarginCount: no
    // evaluation, no violation.
    recordMargins(-0.9, 10);
    tick(mon);
    EXPECT_FALSE(mon.driftState().violated);
    EXPECT_EQ(mon.driftState().evaluatedWindows, 0u);
}

TEST_F(HealthTest, FileReferencePreemptsWarmup)
{
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    cfg.drift.minMarginCount = 10;
    // Reference mass concentrated in the high-margin buckets.
    std::vector<double> ref(MarginHistogram::kNumBuckets, 0.0);
    ref[MarginHistogram::kNumBuckets - 2] = 1.0;
    cfg.drift.referenceFractions = ref;
    HealthMonitor mon(reg, quality, cfg);

    DriftState d = mon.driftState();
    EXPECT_TRUE(d.referenceReady);
    EXPECT_EQ(d.referenceSource, "file");

    // The very first window is judged against the file reference --
    // no warm-up grace for a drifted deployment.
    recordMargins(-0.5, 100);
    tick(mon);
    EXPECT_TRUE(mon.driftState().violated);
    EXPECT_EQ(mon.driftState().trips, 1u);
}

TEST_F(HealthTest, ErrorBurnTripsOnlyWhenBothWindowsBurn)
{
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    cfg.slo.errorRate = 0.1;
    cfg.slo.fastWindows = 1;
    cfg.slo.slowWindows = 3;
    cfg.slo.minRequests = 5;
    cfg.slo.clearWindows = 2;
    cfg.drift.psiThreshold = 0.0; // drift off; SLO only
    HealthMonitor mon(reg, quality, cfg);

    // Healthy traffic fills the slow window.
    reg.counter("serve.requests").add(100);
    tick(mon);
    EXPECT_TRUE(mon.verdict().ready);

    // One bad window: fast burn is high but the slow aggregate is
    // still diluted below the objective -> no trip (blip immunity).
    reg.counter("serve.requests.bad").add(5);
    reg.counter("serve.requests").add(25);
    tick(mon);
    EXPECT_TRUE(mon.verdict().ready) << "slow window must gate";

    // Sustained failure: both aggregates burn -> one trip.
    reg.counter("serve.requests.bad").add(90);
    reg.counter("serve.requests").add(10);
    tick(mon);
    EXPECT_FALSE(mon.verdict().ready);
    EXPECT_EQ(mon.verdict().reason, "slo_error_rate");
    EXPECT_EQ(counterValue("serve.health.slo.error_rate_trips"),
              1.0);

    // Recovery: clearWindows clean (here: idle) windows clear it.
    tick(mon);
    EXPECT_FALSE(mon.verdict().ready) << "one clean window too few";
    tick(mon);
    EXPECT_TRUE(mon.verdict().ready);
    EXPECT_EQ(counterValue("serve.health.slo.error_rate_trips"),
              1.0)
        << "recovery must not re-count";

    const std::vector<SloRuleState> rules = mon.ruleStates();
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].name, "error_rate");
    EXPECT_TRUE(rules[0].enabled);
    EXPECT_EQ(rules[0].trips, 1u);
    EXPECT_EQ(rules[1].name, "p99_latency");
    EXPECT_FALSE(rules[1].enabled);
}

TEST_F(HealthTest, LatencyBurnUsesWindowedP99)
{
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    cfg.slo.p99Ms = 1.0;
    cfg.slo.fastWindows = 1;
    cfg.slo.slowWindows = 2;
    cfg.slo.minRequests = 5;
    cfg.drift.psiThreshold = 0.0;
    HealthMonitor mon(reg, quality, cfg);

    LatencyHistogram &lat = reg.latency("serve.request.latency");
    // Fast traffic well under the 1ms objective.
    for (int i = 0; i < 100; ++i)
        lat.record(50'000);
    tick(mon);
    EXPECT_TRUE(mon.verdict().ready);

    // Latency regression: ~5ms p99 in both aggregates.
    for (int w = 0; w < 2; ++w) {
        for (int i = 0; i < 100; ++i)
            lat.record(5'000'000);
        tick(mon);
    }
    EXPECT_FALSE(mon.verdict().ready);
    EXPECT_EQ(mon.verdict().reason, "slo_p99_latency");
    EXPECT_EQ(counterValue("serve.health.slo.p99_latency_trips"),
              1.0);
    EXPECT_GE(gaugeValue("serve.health.p99_burn_fast"), 1.0);
}

TEST_F(HealthTest, PublishesWindowAndDriftGauges)
{
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    HealthMonitor mon(reg, quality, cfg);
    reg.counter("serve.requests").add(8);
    reg.counter("serve.requests.bad").add(2);
    tick(mon);

    EXPECT_EQ(gaugeValue("window.seq"), 1.0);
    EXPECT_EQ(gaugeValue("window.requests"), 10.0);
    EXPECT_DOUBLE_EQ(gaugeValue("window.error_ratio"), 0.2);
    EXPECT_EQ(gaugeValue("drift.reference_ready"), 0.0);
    EXPECT_EQ(gaugeValue("serve.health.ok"), 1.0);
    EXPECT_EQ(mon.windowsSampled(), 1u);
}

TEST_F(HealthTest, HealthAndWindowsJsonParse)
{
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    cfg.slo.errorRate = 0.05;
    HealthMonitor mon(reg, quality, cfg);
    reg.counter("serve.requests").add(20);
    tick(mon);
    tick(mon);

    JsonWriter hw;
    mon.writeHealthJson(hw);
    std::string error;
    const auto health = serve::parseJson(hw.str(), error);
    ASSERT_NE(health, nullptr) << error << "\n" << hw.str();
    ASSERT_NE(health->find("ready"), nullptr);
    EXPECT_NE(health->find("reason"), nullptr);
    const serve::JsonValue *rules = health->find("rules");
    ASSERT_NE(rules, nullptr);
    ASSERT_TRUE(rules->isArray());
    EXPECT_EQ(rules->array.size(), 2u);
    const serve::JsonValue *drift = health->find("drift");
    ASSERT_NE(drift, nullptr);
    EXPECT_NE(drift->find("psi"), nullptr);
    EXPECT_NE(drift->find("reference_source"), nullptr);

    JsonWriter ww;
    mon.writeWindowsJson(ww, 0.0);
    const auto windows = serve::parseJson(ww.str(), error);
    ASSERT_NE(windows, nullptr) << error << "\n" << ww.str();
    const serve::JsonValue *list = windows->find("windows");
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->isArray());
    EXPECT_EQ(list->array.size(), 2u);

    // lastSeconds clips to ceil(s / windowSeconds) newest windows.
    JsonWriter wc;
    mon.writeWindowsJson(wc, 1.0);
    const auto clipped = serve::parseJson(wc.str(), error);
    ASSERT_NE(clipped, nullptr) << error;
    EXPECT_EQ(clipped->find("windows")->array.size(), 1u);
    EXPECT_EQ(clipped->find("windows")->array[0].find("seq")->number,
              2.0);

    // Spans beyond size_t (or infinite) keep every window instead of
    // wrapping through a double->integer cast.
    for (const double huge :
         {std::numeric_limits<double>::infinity(), 1e300}) {
        JsonWriter wh;
        mon.writeWindowsJson(wh, huge);
        const auto all = serve::parseJson(wh.str(), error);
        ASSERT_NE(all, nullptr) << error;
        EXPECT_EQ(all->find("count")->number, 2.0) << huge;
        EXPECT_EQ(all->find("windows")->array.size(), 2u) << huge;
    }
}

TEST_F(HealthTest, DisabledRulesNeverUnready)
{
    // All-default config: no SLOs, PSI threshold present but no
    // margin traffic ever reaches minMarginCount.
    HealthConfig cfg;
    cfg.windowSeconds = 1.0;
    HealthMonitor mon(reg, quality, cfg);
    for (int i = 0; i < 10; ++i) {
        reg.counter("serve.requests.bad").add(100);
        tick(mon);
    }
    EXPECT_TRUE(mon.verdict().ready);
    EXPECT_EQ(mon.verdict().reason, "ok");
}

} // namespace
