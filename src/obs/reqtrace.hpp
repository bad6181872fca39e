/**
 * @file
 * Request-scoped tracing: trace/span identities and per-stage timing.
 *
 * The serving layer (src/serve/server.cpp) threads one
 * RequestContext per request from JSON parse to response write and
 * stamps a monotonic duration for each pipeline stage (the ReqStage
 * taxonomy below). On top of that context sit three consumers:
 *
 *   - per-stage latency histograms in the metric registry, named
 *     `serve.stage{stage="parse"}` etc. - the exposition layer
 *     splits the embedded label out into one Prometheus family
 *     `lookhd_serve_stage_ns{stage=...}` (obs/exposition.hpp),
 *   - Prometheus exemplars: the request-latency histogram keeps the
 *     last trace id seen per bucket (obs/metrics.hpp), linking tail
 *     buckets to concrete requests,
 *   - captured requests: a request over a latency threshold or
 *     sampled 1-in-N becomes one `serve.request.captured` event in
 *     obs::EventLog::global() carrying its full stage breakdown
 *     (appendStageFields), served on /debug/requests and written to
 *     --event-log.
 *
 * Trace ids are 128-bit (32 lowercase hex chars on the wire, the
 * W3C trace-context width), span ids 64-bit. Ids arrive in the
 * `trace` field of the serve JSON protocol or are generated
 * server-side; either way the id is echoed in the response so
 * clients can cross-reference server-side records.
 *
 * Trace-id seeding reads the wall clock (obs::wallClockMs), which
 * the determinism lint permits only in src/obs/.
 */

#ifndef LOOKHD_OBS_REQTRACE_HPP
#define LOOKHD_OBS_REQTRACE_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/eventlog.hpp"

namespace lookhd::obs {

/** 128-bit trace identity; all-zero means "no trace". */
struct TraceId
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool zero() const { return hi == 0 && lo == 0; }

    bool
    operator==(const TraceId &other) const
    {
        return hi == other.hi && lo == other.lo;
    }
};

/** Fresh process-unique trace id (never all-zero). */
TraceId makeTraceId();

/** Fresh span id (never zero). */
std::uint64_t makeSpanId();

/** 32 lowercase hex chars. */
std::string traceIdHex(const TraceId &id);

/** 16 lowercase hex chars. */
std::string spanIdHex(std::uint64_t id);

/**
 * Parse exactly 32 hex chars (either case) into @p out.
 * @return false (out untouched) on any other input, including the
 * all-zero id, which the wire format reserves for "no trace".
 */
bool parseTraceIdHex(std::string_view hex, TraceId &out);

/**
 * The serving pipeline stages, in request order. Every completed
 * request carries one duration per stage:
 *
 *   parse       request line -> validated Request
 *   queue       enqueue -> popped by a worker
 *   batch_form  pop -> batch dispatched (gather wait)
 *   score       Classifier::scoresBatch over the batch: the score
 *               table pass, or encode + popcount for binary (shared
 *               by the batch)
 *   serialize   response JSON build
 *   write       response socket write
 */
enum class ReqStage : std::uint8_t
{
    kParse = 0,
    kQueue,
    kBatchForm,
    kScore,
    kSerialize,
    kWrite,
};

inline constexpr std::size_t kReqStageCount = 6;

/** Lower-case stage name ("parse", "queue", ...). */
const char *reqStageName(ReqStage stage);

/**
 * Registry metric name of one stage's latency histogram:
 * `serve.stage{stage="parse"}`. The exposition layer folds the
 * embedded label into the Prometheus family's label set.
 */
std::string reqStageMetricName(ReqStage stage);

/** Per-request trace state threaded through the serving pipeline. */
struct RequestContext
{
    TraceId trace;
    std::uint64_t span = 0;
    /** True when the id came from the request's `trace` field. */
    bool clientSupplied = false;
    /** util::Timer::processNanoseconds at parse start. */
    std::uint64_t startNs = 0;
    /** Duration of each completed stage, ns (ReqStage-indexed). */
    std::uint64_t stageNs[kReqStageCount] = {};

    void
    setStage(ReqStage stage, std::uint64_t ns)
    {
        stageNs[static_cast<std::size_t>(stage)] = ns;
    }

    std::uint64_t
    stage(ReqStage stage) const
    {
        return stageNs[static_cast<std::size_t>(stage)];
    }

    /** Sum of the recorded stage durations. */
    std::uint64_t stageSumNs() const;
};

/**
 * Append one `stage.<reqStageName>` field per ReqStage to @p fields,
 * each the stage's duration in ns: the stage breakdown of a
 * `serve.request.captured` event.
 */
void appendStageFields(LogFields &fields, const RequestContext &ctx);

} // namespace lookhd::obs

#endif // LOOKHD_OBS_REQTRACE_HPP
