/**
 * @file
 * Metric registry: named counters, gauges, and latency histograms.
 *
 * The registry is the numeric half of the observability layer (spans
 * are the temporal half, see obs/trace.hpp). Metric names follow the
 * `subsystem.verb.unit` convention documented in ARCHITECTURE.md,
 * e.g. `hdc.encode.calls` or `hwsim.stream.cycles`.
 *
 * Handles returned by counter()/gauge()/latency() stay valid for the
 * life of the registry, so hot paths resolve the name once (the
 * LOOKHD_COUNT_ADD family of macros in obs/obs.hpp caches the lookup
 * in a function-local static) and then pay only a relaxed atomic
 * update per event. reset() zeroes values without invalidating
 * handles for exactly that reason.
 *
 * Thread safety: registration is mutex-protected; updates on Counter
 * and Gauge are lock-free atomics; LatencyHistogram serializes with a
 * per-histogram mutex (recording is a bin increment, far off any
 * sub-microsecond path).
 *
 * Consistency model for readers (snapshot(), writeJson(), the
 * Prometheus exposition in obs/exposition.hpp): each
 * LatencyHistogram is snapshotted under its own mutex in ONE
 * critical section, so within a histogram count == sum of bucket
 * counts and min/max/sum/percentiles all describe the same set of
 * recorded events even while writers keep recording. Across
 * different metrics the snapshot is only approximately simultaneous:
 * the registry mutex held during snapshot() blocks registration of
 * new metrics, but relaxed counter/gauge loads and the per-histogram
 * locks are taken one metric at a time, so a scrape concurrent with
 * a request may see the request in one metric and not yet in
 * another. Monitoring reads tolerate that skew; nothing in the
 * library makes control decisions from a snapshot.
 */

#ifndef LOOKHD_OBS_METRICS_HPP
#define LOOKHD_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/histogram.hpp"
#include "util/thread_annotations.hpp"

namespace lookhd::obs {

class JsonWriter;

/**
 * Unix wall clock in milliseconds, for telemetry stamps only (event
 * and exemplar timestamps, window wall stamps, trace-id seeding).
 * system_clock is lint-banned outside src/obs/
 * (tools/lint_determinism.py), so this is its one reader.
 */
std::uint64_t wallClockMs();

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** Atomic increment (negative @p d decrements). */
    void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * One OpenMetrics exemplar: the last concrete observation retained
 * for a histogram bin, linking the bucket to a trace id. An empty
 * traceId means the slot has never been filled.
 */
struct LatencyExemplar
{
    double valueNs = 0.0;
    /** Unix wall clock at the observation, ms. */
    std::uint64_t wallMs = 0;
    /** 32 lowercase hex chars (obs/reqtrace.hpp); "" = no exemplar. */
    std::string traceId;
};

/**
 * Internally consistent copy of one LatencyHistogram, taken under
 * the histogram mutex in a single critical section: count equals the
 * sum of bucket counts, and min/max/sum/percentiles all describe the
 * same recorded events. This is the read path for every exporter
 * (JSON, Prometheus) so concurrent writers can never produce a torn
 * view.
 */
struct LatencySnapshot
{
    std::uint64_t count = 0;
    std::uint64_t minNs = 0;
    std::uint64_t maxNs = 0;
    double sumNs = 0.0;
    /** Upper edge of each log-scale bin, in nanoseconds. */
    std::vector<double> bucketUpperNs;
    /** Per-bin (non-cumulative) event counts; same length. */
    std::vector<std::uint64_t> bucketCounts;
    /** Per-bin exemplars, same length as bucketCounts when the
     * histogram has exemplars enabled; empty otherwise. */
    std::vector<LatencyExemplar> exemplars;

    double meanNs() const;

    /**
     * Approximate percentile in nanoseconds from the log-scale bins
     * (accurate to one bin width). @param p in [0, 1]. 0 when empty.
     */
    double percentileNs(double p) const;
};

/**
 * Latency distribution in nanoseconds.
 *
 * Reuses util::Histogram over log10(ns) so one fixed bin layout
 * spans 1 ns to ~1000 s with constant relative resolution;
 * percentiles are read back from the bins (accurate to one bin
 * width, ~5% relative), while min/max/mean are tracked exactly.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    /** Record one duration. Zero durations count as 1 ns. */
    void record(std::uint64_t ns);

    /**
     * record() plus exemplar capture: when exemplars are enabled,
     * the observation replaces its bin's exemplar slot (last write
     * wins), wall-clock stamped. An empty @p exemplarTraceId leaves
     * the slot untouched.
     */
    void record(std::uint64_t ns, std::string_view exemplarTraceId);

    /**
     * Allocate the per-bin exemplar slots (idempotent). Off by
     * default: only serving-path histograms that receive trace ids
     * pay the memory and the snapshot copy.
     */
    void enableExemplars();

    std::uint64_t count() const;
    /** Exact extrema / mean over everything recorded (0 if empty). */
    std::uint64_t minNs() const;
    std::uint64_t maxNs() const;
    double meanNs() const;

    /**
     * Approximate percentile in nanoseconds, from the log-scale bins.
     * @param p in [0, 1]. Returns 0 when empty.
     */
    double percentileNs(double p) const;

    /** One-lock consistent copy of the whole distribution. */
    LatencySnapshot snapshot() const;

    void reset();

  private:
    mutable util::Mutex mutex_;
    util::Histogram hist_ LOOKHD_GUARDED_BY(mutex_);
    std::uint64_t count_ LOOKHD_GUARDED_BY(mutex_) = 0;
    std::uint64_t minNs_ LOOKHD_GUARDED_BY(mutex_) = 0;
    std::uint64_t maxNs_ LOOKHD_GUARDED_BY(mutex_) = 0;
    double sumNs_ LOOKHD_GUARDED_BY(mutex_) = 0.0;
    /** kLogBins slots once enableExemplars() ran; empty before. */
    std::vector<LatencyExemplar> exemplars_ LOOKHD_GUARDED_BY(mutex_);
};

/**
 * Point-in-time copy of a whole MetricRegistry (see the consistency
 * model in the file comment). The exposition layer renders from this
 * rather than re-reading live metrics mid-render.
 */
struct RegistrySnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, LatencySnapshot> latency;
    std::map<std::string, std::string> labels;
};

/**
 * Process-wide named metric store.
 *
 * Usually accessed through global(), but independently
 * instantiable for tests.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** The process-wide registry (never destroyed). */
    static MetricRegistry &global();

    /** Find-or-create; the reference stays valid forever. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &latency(const std::string &name);

    /**
     * Attach a free-form string label (app name, config digest, git
     * rev) exported alongside the metrics.
     */
    void setLabel(const std::string &key, const std::string &value);

    /** Zero every value and drop labels; handles stay valid. */
    void reset();

    /**
     * Copy every metric (see the consistency model in the file
     * comment): per-histogram consistent, cross-metric approximate.
     */
    RegistrySnapshot snapshot() const;

    /**
     * Write the registry as a JSON object value:
     * {"counters":{..},"gauges":{..},"latency":{..},"labels":{..}}.
     */
    void writeJson(JsonWriter &w) const;

    /** writeJson() as a standalone document. */
    std::string toJson() const;

  private:
    mutable util::Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        LOOKHD_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        LOOKHD_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<LatencyHistogram>> latencies_
        LOOKHD_GUARDED_BY(mutex_);
    std::map<std::string, std::string> labels_
        LOOKHD_GUARDED_BY(mutex_);
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_METRICS_HPP
