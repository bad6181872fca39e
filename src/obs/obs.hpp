/**
 * @file
 * Observability umbrella: the instrumentation macros.
 *
 * Hot paths are instrumented exclusively through these macros so one
 * CMake switch (-DLOOKHD_OBS=OFF, which defines
 * LOOKHD_OBS_ENABLED=0) compiles every site to nothing - release
 * builds for constrained targets pay zero cost, not even a branch.
 * With the gate on (the default), obs::setEnabled(false) remains as
 * a runtime kill switch costing one relaxed atomic load per site.
 *
 *   LOOKHD_SPAN("lookhd.encode", "encode");       // RAII scope span
 *   LOOKHD_COUNT_ADD("hdc.encode.calls", 1);      // counter += n
 *   LOOKHD_GAUGE_SET("classifier.config.dim", d); // gauge = v
 *   LOOKHD_LATENCY_NS("io.load.duration", ns);    // histogram obs
 *   LOOKHD_QUALITY_MARGIN("clf.predict", scores); // top1-top2 hist
 *   LOOKHD_QUALITY_OUTCOME("clf.eval", y, scores);// confusion+margin
 *
 * Names follow `subsystem.verb[.unit]`; see ARCHITECTURE.md for the
 * convention and the span taxonomy. Registry lookups are cached in
 * function-local statics, so the steady-state cost of a counter is
 * one relaxed fetch_add.
 */

#ifndef LOOKHD_OBS_OBS_HPP
#define LOOKHD_OBS_OBS_HPP

#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"

#ifndef LOOKHD_OBS_ENABLED
#define LOOKHD_OBS_ENABLED 1
#endif

namespace lookhd::obs {

/**
 * LOOKHD_OBS_ENABLED as a constant, for `if constexpr` gates on
 * wiring that is more than a macro site: server-side trace-id
 * generation and request capture, and the window sampler. The obs
 * classes themselves always build.
 */
inline constexpr bool kObsCompiled = LOOKHD_OBS_ENABLED != 0;

} // namespace lookhd::obs

#define LOOKHD_OBS_CONCAT2(a, b) a##b
#define LOOKHD_OBS_CONCAT(a, b) LOOKHD_OBS_CONCAT2(a, b)

#if LOOKHD_OBS_ENABLED

/**
 * Scoped trace span: times the enclosing block under @p name
 * (a string literal), grouped by @p category. One statement per
 * scope; nested scopes parent automatically.
 */
#define LOOKHD_SPAN_IMPL(site_var, span_name, span_category)           \
    static ::lookhd::obs::SpanSite site_var{(span_name),               \
                                            (span_category)};          \
    const ::lookhd::obs::TraceSpan LOOKHD_OBS_CONCAT(site_var,         \
                                                     _scope){site_var}

#define LOOKHD_SPAN(span_name, span_category)                          \
    LOOKHD_SPAN_IMPL(                                                  \
        LOOKHD_OBS_CONCAT(lookhdObsSite_, __COUNTER__),                \
        span_name, span_category)

/** Add @p n to the named counter. */
#define LOOKHD_COUNT_ADD(counter_name, n)                              \
    do {                                                               \
        static ::lookhd::obs::Counter &lookhdObsCounter_ =             \
            ::lookhd::obs::MetricRegistry::global().counter(           \
                counter_name);                                         \
        lookhdObsCounter_.add(                                         \
            static_cast<std::uint64_t>(n));                            \
    } while (false)

/** Set the named gauge to @p v. */
#define LOOKHD_GAUGE_SET(gauge_name, v)                                \
    do {                                                               \
        static ::lookhd::obs::Gauge &lookhdObsGauge_ =                 \
            ::lookhd::obs::MetricRegistry::global().gauge(gauge_name); \
        lookhdObsGauge_.set(static_cast<double>(v));                   \
    } while (false)

/** Record @p ns into the named latency histogram. */
#define LOOKHD_LATENCY_NS(hist_name, ns)                               \
    do {                                                               \
        static ::lookhd::obs::LatencyHistogram &lookhdObsHist_ =       \
            ::lookhd::obs::MetricRegistry::global().latency(           \
                hist_name);                                            \
        lookhdObsHist_.record(static_cast<std::uint64_t>(ns));         \
    } while (false)

/**
 * Record the top1-top2 confidence margin of a score vector into the
 * named margin histogram. @p scores is any contiguous range of
 * double convertible to std::span<const double>.
 */
#define LOOKHD_QUALITY_MARGIN(quality_name, scores)                    \
    do {                                                               \
        if (::lookhd::obs::enabled()) {                                \
            static ::lookhd::obs::MarginHistogram                      \
                &lookhdObsMargin_ =                                    \
                    ::lookhd::obs::QualityTelemetry::global()          \
                        .margins(quality_name);                        \
            ::lookhd::obs::recordConfidence(lookhdObsMargin_,          \
                                            (scores));                 \
        }                                                              \
    } while (false)

/**
 * Record one labeled outcome: (truth, argmax(scores)) into the named
 * confusion counters and the signed truth margin (negative =
 * misprediction) into the same-named margin histogram.
 */
#define LOOKHD_QUALITY_OUTCOME(quality_name, truth, scores)            \
    do {                                                               \
        if (::lookhd::obs::enabled()) {                                \
            static ::lookhd::obs::ConfusionCounters                    \
                &lookhdObsConfusion_ =                                 \
                    ::lookhd::obs::QualityTelemetry::global()          \
                        .confusion(quality_name);                      \
            static ::lookhd::obs::MarginHistogram                      \
                &lookhdObsOutcomeMargin_ =                             \
                    ::lookhd::obs::QualityTelemetry::global()          \
                        .margins(quality_name);                        \
            ::lookhd::obs::recordOutcome(                              \
                lookhdObsConfusion_, lookhdObsOutcomeMargin_,          \
                static_cast<std::size_t>(truth), (scores));            \
        }                                                              \
    } while (false)

#else // !LOOKHD_OBS_ENABLED

// Compiled-out no-ops: arguments are never evaluated.
#define LOOKHD_SPAN(span_name, span_category)                          \
    do {                                                               \
    } while (false)
#define LOOKHD_COUNT_ADD(counter_name, n)                              \
    do {                                                               \
    } while (false)
#define LOOKHD_GAUGE_SET(gauge_name, v)                                \
    do {                                                               \
    } while (false)
#define LOOKHD_LATENCY_NS(hist_name, ns)                               \
    do {                                                               \
    } while (false)
#define LOOKHD_QUALITY_MARGIN(quality_name, scores)                    \
    do {                                                               \
    } while (false)
#define LOOKHD_QUALITY_OUTCOME(quality_name, truth, scores)            \
    do {                                                               \
    } while (false)

#endif // LOOKHD_OBS_ENABLED

#endif // LOOKHD_OBS_OBS_HPP
