#include "obs/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace lookhd::obs {

// ---------------------------------------------------------- PageHinkley

bool
PageHinkley::observe(double x)
{
    if (!enabled() || std::isnan(x))
        return false;
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
    cumulative_ = std::max(
        0.0, cumulative_ + (mean_ - x - config_.delta));
    if (cumulative_ > config_.lambda) {
        reset();
        return true;
    }
    return false;
}

void
PageHinkley::reset()
{
    n_ = 0;
    mean_ = 0.0;
    cumulative_ = 0.0;
}

// ------------------------------------------------------------------ PSI

double
populationStabilityIndex(const std::vector<double> &refFractions,
                         const std::vector<double> &liveFractions)
{
    if (refFractions.empty() ||
        refFractions.size() != liveFractions.size())
        return 0.0;
    // Epsilon smoothing keeps empty buckets from producing infinite
    // terms; with 22 buckets the floor contributes < 1e-3 total.
    constexpr double kEps = 1e-4;
    double psi = 0.0;
    for (std::size_t i = 0; i < refFractions.size(); ++i) {
        const double ref = std::max(refFractions[i], kEps);
        const double live = std::max(liveFractions[i], kEps);
        psi += (live - ref) * std::log(live / ref);
    }
    return psi;
}

std::vector<double>
bucketFractions(const std::uint64_t *counts, std::size_t n)
{
    std::vector<double> out(n, 0.0);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += counts[i];
    if (total == 0)
        return out;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(counts[i]) /
                 static_cast<double>(total);
    return out;
}

// -------------------------------------------------------- HealthMonitor

HealthMonitor::HealthMonitor(MetricRegistry &registry,
                             QualityTelemetry &quality,
                             HealthConfig config)
    : registry_(registry), config_(std::move(config)),
      collector_(registry, quality, config_.sources),
      ring_(config_.ringCapacity),
      pageHinkley_(config_.drift.pageHinkley),
      warmupCounts_(MarginHistogram::kNumBuckets, 0),
      driftTrips_(registry.counter("serve.health.drift_trips")),
      errorTrips_(registry.counter("serve.health.slo.error_rate_trips")),
      latencyTrips_(
          registry.counter("serve.health.slo.p99_latency_trips")),
      healthOk_(registry.gauge("serve.health.ok"))
{
    config_.slo.fastWindows =
        std::max<std::size_t>(config_.slo.fastWindows, 1);
    config_.slo.slowWindows = std::max(config_.slo.slowWindows,
                                       config_.slo.fastWindows);
    errorRule_.name = "error_rate";
    errorRule_.enabled = config_.slo.errorRate > 0.0;
    errorRule_.objective = config_.slo.errorRate;
    latencyRule_.name = "p99_latency";
    latencyRule_.enabled = config_.slo.p99Ms > 0.0;
    latencyRule_.objective = config_.slo.p99Ms;

    drift_.enabled = config_.drift.psiThreshold > 0.0 ||
                     pageHinkley_.enabled();
    if (!config_.drift.referenceFractions.empty() &&
        config_.drift.referenceFractions.size() ==
            MarginHistogram::kNumBuckets) {
        referenceFractions_ = config_.drift.referenceFractions;
        drift_.referenceReady = true;
        drift_.referenceSource = "file";
    }
    healthOk_.set(1.0);
}

WindowStats
HealthMonitor::sample(std::uint64_t nowNs, std::uint64_t wallMs)
{
    const util::MutexLock lock(mutex_);
    WindowStats w = collector_.sample(nowNs, wallMs);
    ring_.push(w);

    if (errorRule_.enabled) {
        std::uint64_t fastReqs = 0;
        std::uint64_t fastErrs = 0;
        std::uint64_t slowReqs = 0;
        std::uint64_t slowErrs = 0;
        const std::size_t slowTake =
            std::min(config_.slo.slowWindows, ring_.size());
        for (std::size_t i = ring_.size() - slowTake;
             i < ring_.size(); ++i) {
            const WindowStats &win = ring_.at(i);
            slowReqs += win.requests();
            slowErrs += win.errors();
            if (i + config_.slo.fastWindows >= ring_.size()) {
                fastReqs += win.requests();
                fastErrs += win.errors();
            }
        }
        const auto ratio = [](std::uint64_t errs,
                              std::uint64_t reqs) {
            return reqs == 0 ? 0.0
                             : static_cast<double>(errs) /
                                   static_cast<double>(reqs);
        };
        evaluateSlo(errorRule_, errorTrips_,
                    ratio(fastErrs, fastReqs),
                    ratio(slowErrs, slowReqs),
                    fastReqs >= config_.slo.minRequests);
    }
    if (latencyRule_.enabled) {
        const LatencySnapshot fastAgg =
            aggregateLatency(ring_, config_.slo.fastWindows,
                             collector_.latencyUpperNs());
        const LatencySnapshot slowAgg =
            aggregateLatency(ring_, config_.slo.slowWindows,
                             collector_.latencyUpperNs());
        evaluateSlo(latencyRule_, latencyTrips_,
                    fastAgg.percentileNs(0.99) * 1e-6,
                    slowAgg.percentileNs(0.99) * 1e-6,
                    fastAgg.count >= config_.slo.minRequests);
    }
    evaluateDrift(w);
    publish(w);
    return w;
}

void
HealthMonitor::evaluateSlo(SloRuleState &rule, Counter &tripCounter,
                           double valueFast, double valueSlow,
                           bool haveData)
{
    rule.valueFast = valueFast;
    rule.valueSlow = valueSlow;
    rule.burnFast =
        rule.objective > 0.0 ? valueFast / rule.objective : 0.0;
    rule.burnSlow =
        rule.objective > 0.0 ? valueSlow / rule.objective : 0.0;
    if (!haveData) {
        // No signal: an idle window argues neither way, but counts
        // toward recovery so a drained server does not stay unready
        // on stale slow-window evidence.
        if (rule.violated &&
            ++rule.cleanStreak >= config_.slo.clearWindows)
            rule.violated = false;
        return;
    }
    const bool violatedNow =
        rule.burnFast >= config_.slo.burnThreshold &&
        rule.burnSlow >= config_.slo.burnThreshold;
    if (violatedNow) {
        rule.cleanStreak = 0;
        if (!rule.violated) {
            rule.violated = true;
            ++rule.trips;
            tripCounter.add();
        }
    } else if (rule.violated &&
               ++rule.cleanStreak >= config_.slo.clearWindows) {
        rule.violated = false;
    }
}

void
HealthMonitor::evaluateDrift(const WindowStats &w)
{
    if (!drift_.enabled)
        return;
    if (w.marginCount < config_.drift.minMarginCount)
        return; // too little signal; hold current state
    drift_.lastWindowMean = w.marginMean;

    if (!drift_.referenceReady) {
        // Warm-up: fold live traffic into the reference. The
        // Page-Hinkley running mean trains on the same windows so a
        // later shift is judged against the warm-up level.
        for (std::size_t i = 0; i < warmupCounts_.size(); ++i)
            warmupCounts_[i] += w.marginBuckets[i];
        drift_.referenceCount += w.marginCount;
        pageHinkley_.observe(w.marginMean);
        drift_.pageHinkleyStat = pageHinkley_.statistic();
        if (++warmupSeen_ >= config_.drift.warmupWindows) {
            referenceFractions_ = bucketFractions(
                warmupCounts_.data(), warmupCounts_.size());
            drift_.referenceReady = true;
            drift_.referenceSource = "warmup";
        }
        return;
    }

    ++drift_.evaluatedWindows;
    bool psiViolated = false;
    if (config_.drift.psiThreshold > 0.0) {
        const std::vector<double> live = bucketFractions(
            w.marginBuckets.data(), w.marginBuckets.size());
        drift_.psi =
            populationStabilityIndex(referenceFractions_, live);
        psiViolated = drift_.psi >= config_.drift.psiThreshold;
    }
    if (pageHinkley_.observe(w.marginMean))
        pageHinkleyLatch_ = true;
    drift_.pageHinkleyStat = pageHinkley_.statistic();
    // The latch clears once the live distribution is comfortably
    // back inside the PSI band (half the trip threshold).
    if (pageHinkleyLatch_ && config_.drift.psiThreshold > 0.0 &&
        drift_.psi < config_.drift.psiThreshold * 0.5)
        pageHinkleyLatch_ = false;

    const bool violatedNow = psiViolated || pageHinkleyLatch_;
    if (violatedNow && !drift_.violated) {
        ++drift_.trips;
        driftTrips_.add();
    }
    drift_.violated = violatedNow;
}

void
HealthMonitor::publish(const WindowStats &w)
{
    const auto setGauge = [this](const std::string &name, double v) {
        registry_.gauge(name).set(v);
    };
    setGauge("window.seq", static_cast<double>(w.seq));
    setGauge("window.duration_s", w.durationS);
    setGauge("window.requests", static_cast<double>(w.requests()));
    setGauge("window.rate_per_s", w.ratePerS());
    setGauge("window.error_ratio", w.errorRatio());
    setGauge("window.p50_ns", w.p50Ns);
    setGauge("window.p90_ns", w.p90Ns);
    setGauge("window.p99_ns", w.p99Ns);
    setGauge("window.margin_count",
             static_cast<double>(w.marginCount));
    setGauge("window.margin_mean", w.marginMean);
    setGauge("window.margin_neg_frac", w.marginNegFrac);
    setGauge("drift.psi", drift_.psi);
    setGauge("drift.page_hinkley", drift_.pageHinkleyStat);
    setGauge("drift.reference_ready",
             drift_.referenceReady ? 1.0 : 0.0);
    setGauge("drift.violated", drift_.violated ? 1.0 : 0.0);
    setGauge("serve.health.error_burn_fast", errorRule_.burnFast);
    setGauge("serve.health.error_burn_slow", errorRule_.burnSlow);
    setGauge("serve.health.p99_burn_fast", latencyRule_.burnFast);
    setGauge("serve.health.p99_burn_slow", latencyRule_.burnSlow);
    healthOk_.set(verdictLocked().ready ? 1.0 : 0.0);
}

HealthVerdict
HealthMonitor::verdictLocked() const
{
    if (errorRule_.violated)
        return {false, "slo_error_rate"};
    if (latencyRule_.violated)
        return {false, "slo_p99_latency"};
    if (drift_.violated)
        return {false, "drift"};
    return {true, "ok"};
}

HealthVerdict
HealthMonitor::verdict() const
{
    const util::MutexLock lock(mutex_);
    return verdictLocked();
}

DriftState
HealthMonitor::driftState() const
{
    const util::MutexLock lock(mutex_);
    return drift_;
}

std::vector<SloRuleState>
HealthMonitor::ruleStates() const
{
    const util::MutexLock lock(mutex_);
    return {errorRule_, latencyRule_};
}

std::uint64_t
HealthMonitor::windowsSampled() const
{
    const util::MutexLock lock(mutex_);
    return ring_.size() == 0 ? 0 : ring_.newest().seq;
}

void
HealthMonitor::writeRuleJson(JsonWriter &w,
                             const SloRuleState &rule) const
{
    w.beginObject();
    w.kv("name", rule.name);
    w.kv("enabled", rule.enabled);
    w.kv("violated", rule.violated);
    w.kv("objective", rule.objective);
    w.kv("value_fast", rule.valueFast);
    w.kv("value_slow", rule.valueSlow);
    w.kv("burn_fast", rule.burnFast);
    w.kv("burn_slow", rule.burnSlow);
    w.kv("trips", rule.trips);
    w.kv("clean_streak",
         static_cast<std::uint64_t>(rule.cleanStreak));
    w.endObject();
}

void
HealthMonitor::writeHealthJson(JsonWriter &w) const
{
    const util::MutexLock lock(mutex_);
    const HealthVerdict v = verdictLocked();
    w.beginObject();
    w.kv("ready", v.ready);
    w.kv("reason", v.reason);
    w.kv("window_seconds", config_.windowSeconds);
    w.kv("windows_sampled",
         ring_.size() == 0 ? std::uint64_t{0} : ring_.newest().seq);
    w.key("rules").beginArray();
    writeRuleJson(w, errorRule_);
    writeRuleJson(w, latencyRule_);
    w.endArray();
    w.key("drift").beginObject();
    w.kv("enabled", drift_.enabled);
    w.kv("violated", drift_.violated);
    w.kv("psi", drift_.psi);
    w.kv("psi_threshold", config_.drift.psiThreshold);
    w.kv("page_hinkley", drift_.pageHinkleyStat);
    w.kv("page_hinkley_lambda", config_.drift.pageHinkley.lambda);
    w.kv("trips", drift_.trips);
    w.kv("reference_ready", drift_.referenceReady);
    w.kv("reference_source", drift_.referenceSource);
    w.kv("reference_count", drift_.referenceCount);
    w.kv("last_window_mean", drift_.lastWindowMean);
    w.kv("evaluated_windows", drift_.evaluatedWindows);
    w.kv("warmup_windows",
         static_cast<std::uint64_t>(config_.drift.warmupWindows));
    w.endObject();
    w.endObject();
}

void
HealthMonitor::writeWindowJson(JsonWriter &w,
                               const WindowStats &win) const
{
    w.beginObject();
    w.kv("seq", win.seq);
    w.kv("wall_ms", win.wallMs);
    w.kv("duration_s", win.durationS);
    w.kv("requests", win.requests());
    w.kv("ok", win.ok);
    w.kv("bad", win.bad);
    w.kv("overload", win.overload);
    w.kv("rate_per_s", win.ratePerS());
    w.kv("error_ratio", win.errorRatio());
    w.kv("latency_count", win.latencyCount);
    w.kv("p50_ns", win.p50Ns);
    w.kv("p90_ns", win.p90Ns);
    w.kv("p99_ns", win.p99Ns);
    w.kv("margin_count", win.marginCount);
    w.kv("margin_mean", win.marginMean);
    w.kv("margin_neg_frac", win.marginNegFrac);
    w.endObject();
}

void
HealthMonitor::writeWindowsJson(JsonWriter &w,
                                double lastSeconds) const
{
    const util::MutexLock lock(mutex_);
    std::size_t n = ring_.size();
    if (lastSeconds > 0.0 && config_.windowSeconds > 0.0) {
        // Compare in double: inf or 1e300 windows must not reach a
        // size_t cast (NaN fails the guard above: everything).
        const double want = std::max(
            std::ceil(lastSeconds / config_.windowSeconds), 1.0);
        if (want < static_cast<double>(n))
            n = static_cast<std::size_t>(want);
    }
    w.beginObject();
    w.kv("window_seconds", config_.windowSeconds);
    w.kv("count", static_cast<std::uint64_t>(n));
    w.key("windows").beginArray();
    for (const WindowStats &win : ring_.lastN(n))
        writeWindowJson(w, win);
    w.endArray();
    w.endObject();
}

} // namespace lookhd::obs
