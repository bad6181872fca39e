/**
 * @file
 * Bounded, thread-safe structured event log for request-scope events.
 *
 * Counters say how often, spans say how long; the event log says
 * *what happened*: model load, captured slow/sampled requests,
 * overload rejections, watchdog trips. Events are appended to a
 * fixed-capacity per-thread ring (one uncontended mutex per ring, no
 * allocation on the steady-state append path beyond the field
 * strings), so a stalled or crashed consumer can never back-pressure
 * the serving path - the ring overflows instead, overwriting the
 * oldest events and counting every overwritten event that no flush
 * had written yet. A thread that exits hands its ring, with any
 * unflushed events, to the next thread that starts emitting, so
 * ring memory is bounded by the peak number of live emitting
 * threads, not by how many threads ever emitted.
 *
 * flush() writes the events appended since the last flush as JSON
 * lines, one object per event, globally ordered by the monotonic
 * timestamp:
 *
 *   {"ts_ms":<unix wall millis>,"elapsed_ns":<process monotonic>,
 *    "level":"info","event":"serve.request.captured","thread":<tid>,
 *    "fields":{"reason":"slow","stage.score":"48211",...}}
 *
 * Flushed events stay in their ring until overwritten, so
 * snapshot() can serve a live peek (/debug/requests) of everything
 * retained without consuming it. A ring that overwrote unflushed
 * events since the last flush prepends a synthetic
 * `eventlog.dropped` warning carrying the drop count, so gaps are
 * visible in the log itself. installCrashFlush() arranges a
 * best-effort flush of the same stream on std::terminate and fatal
 * signals, so the last events before a crash are not lost with the
 * rings.
 *
 * This class lives in src/obs/ deliberately: it wall-clock-stamps
 * its output, which the determinism lint permits only here.
 */

#ifndef LOOKHD_OBS_EVENTLOG_HPP
#define LOOKHD_OBS_EVENTLOG_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace lookhd::obs {

class JsonWriter;

enum class LogLevel : int
{
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
};

/** Lower-case level name ("debug", "info", "warn", "error"). */
const char *logLevelName(LogLevel level);

/** Key/value pairs of one event, in emission order. */
using LogFields = std::vector<std::pair<std::string, std::string>>;

/** One structured event as captured in a ring. */
struct LogEvent
{
    std::uint64_t wallMs = 0;    ///< Unix wall clock, milliseconds.
    std::uint64_t elapsedNs = 0; ///< util::Timer::processNanoseconds.
    LogLevel level = LogLevel::kInfo;
    std::string event; ///< `subsystem.verb` name, like metrics.
    std::uint64_t thread = 0; ///< Stable small id of the origin thread.
    LogFields fields;
};

/** One event as the JSON object of its --event-log line. */
void writeEventJson(JsonWriter &w, const LogEvent &e);

/**
 * The log itself. Usually accessed through global(); independently
 * instantiable for tests (per-instance rings, no cross-talk).
 */
class EventLog
{
  public:
    /** @param ringCapacity Events retained per thread. */
    explicit EventLog(std::size_t ringCapacity = 1024);
    ~EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /** The process-wide log (never destroyed). */
    static EventLog &global();

    /** Append one event to the calling thread's ring. */
    void emit(LogLevel level, std::string_view event,
              LogFields fields = {});

    /**
     * Write every event appended since the last flush (merged by
     * elapsed_ns) as JSON lines. The events stay retained for
     * snapshot(); a later flush never writes them again. Unflushed
     * events lost to overflow are reported as a leading
     * `eventlog.dropped` warning per ring.
     */
    void flush(std::ostream &out);

    /** Copy of every retained event, flushed or not, in elapsed_ns
     * order. Consumes nothing. */
    std::vector<LogEvent> snapshot() const;

    /** flush() appended to @p path. @return false on I/O failure. */
    bool flushToFile(const std::string &path);

    /** Events emitted since construction/reset. */
    std::uint64_t totalEmitted() const;

    /** Events overwritten before any flush wrote them, since
     * construction/reset. */
    std::uint64_t totalDropped() const;

    /** Drop buffered events and zero the counters; rings stay valid. */
    void reset();

    /**
     * Best-effort flush of the GLOBAL log to @p path on
     * std::terminate, SIGSEGV, SIGBUS, SIGFPE and SIGABRT, then
     * rethrow/re-raise. The signal path is async-signal-safe: it
     * takes no locks and performs no allocation (see
     * flushCrashToFd), at the price of racy ring reads - acceptable
     * while the process is dying. Idempotent: later calls just
     * update the path.
     */
    static void installCrashFlush(const std::string &path);

    /**
     * Async-signal-safe write of every ring's unflushed events to
     * @p fd as JSON lines.
     * Takes NO locks and allocates NOTHING: rings are reached
     * through a lock-free list and formatted into a fixed stack
     * buffer with raw write(2) calls. Reads race with concurrent
     * writers by design - on the crash path the torn tail of a log
     * beats an empty file. No state is mutated, so a survivable
     * caller (tests) can still flush() normally afterwards.
     * @return false if any write failed.
     */
    bool flushCrashToFd(int fd);

  private:
    struct Ring;
    struct IdleRings;
    struct ThreadRings;

    Ring &ringForThisThread();

    /** Process-unique instance id; keys the thread-local ring cache
     * so a destroyed instance's cache entry can never be revived by
     * address reuse. */
    const std::uint64_t id_;
    const std::size_t ringCapacity_;
    std::atomic<std::uint64_t> emitted_{0};
    std::atomic<std::uint64_t> dropped_{0};
    /** Serializes ring-list mutation and reader passes (flush,
     * snapshot, reset, totalDropped) against each other. The list itself is
     * additionally published through the atomic head so the
     * crash-signal path can traverse it without locking. */
    mutable util::Mutex ringsMutex_;
    /** Lock-free singly-linked ring list head; rings live until the
     * log is destroyed (the global log never is). */
    std::atomic<Ring *> ringsHead_{nullptr};
    /** Rings of exited threads, awaiting a new owner. Shared with
     * the threads' ring caches, so a thread that outlives the log
     * can still hand its ring back (never to be read again). */
    const std::shared_ptr<IdleRings> idle_;
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_EVENTLOG_HPP
