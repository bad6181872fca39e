/**
 * @file
 * RAII trace spans with nested parenting and per-site rollups.
 *
 * A span's one product is its rollup: every span site keeps
 * lock-free count / total / self-time accumulators, so per-phase cost
 * attribution (the paper's Fig. 2 breakdown) is measured from the
 * live instrumentation instead of hand-placed timers. Self time
 * excludes nested child spans, so a rollup sums to wall time without
 * double counting. The innermost open span of each thread is also
 * published to the sampling profiler (obs/profiler.hpp).
 *
 * Instrumentation sites use the LOOKHD_SPAN macro from obs/obs.hpp,
 * which compiles to nothing when the library is built with
 * -DLOOKHD_OBS=OFF; on top of that, setEnabled(false) is a runtime
 * kill switch that reduces a span to one relaxed atomic load.
 *
 * Span names follow the `subsystem.verb` convention; categories group
 * sites into the taxonomy documented in ARCHITECTURE.md (encode,
 * train, search, retrain, sim, io).
 */

#ifndef LOOKHD_OBS_TRACE_HPP
#define LOOKHD_OBS_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lookhd::obs {

/**
 * Static identity of one instrumentation site, plus its rollup
 * accumulators. Sites register themselves in a process-wide list on
 * construction and are expected to have static storage duration (the
 * LOOKHD_SPAN macro creates a function-local static).
 */
class SpanSite
{
  public:
    SpanSite(const char *name, const char *category);

    const char *name() const { return name_; }
    const char *category() const { return category_; }

    /** Fold one completed span into the rollup (relaxed atomics). */
    void
    accumulate(std::uint64_t dur_ns, std::uint64_t self_ns)
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        totalNs_.fetch_add(dur_ns, std::memory_order_relaxed);
        selfNs_.fetch_add(self_ns, std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    totalNs() const
    {
        return totalNs_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    selfNs() const
    {
        return selfNs_.load(std::memory_order_relaxed);
    }

    void reset();

  private:
    const char *name_;
    const char *category_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> totalNs_{0};
    std::atomic<std::uint64_t> selfNs_{0};
};

/** Snapshot of one site's rollup. */
struct SpanStats
{
    std::string name;
    std::string category;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    /** totalNs minus time spent in nested child spans. */
    std::uint64_t selfNs = 0;
};

/** Rollup snapshot across all sites (sites with count 0 omitted). */
std::vector<SpanStats> spanRollup();

/**
 * In a rollup snapshot, the totalNs of @p name (0 if absent);
 * convenience for before/after deltas around a measured phase.
 */
std::uint64_t totalNsOf(const std::vector<SpanStats> &rollup,
                        const std::string &name);

/** Zero every site's rollup. */
void resetSpans();

/** Runtime kill switch for all span work. Default: on. */
void setEnabled(bool on);
bool enabled();

/**
 * Scoped span. Construct through LOOKHD_SPAN (obs/obs.hpp) rather
 * than directly so the site is a function-local static and the whole
 * thing compiles out under -DLOOKHD_OBS=OFF.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(SpanSite &site);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    SpanSite *site_; // nullptr when spans were disabled at entry
    TraceSpan *parent_ = nullptr;
    std::uint64_t startNs_ = 0;
    std::uint64_t childNs_ = 0;
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_TRACE_HPP
