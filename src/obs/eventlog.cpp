#include "obs/eventlog.hpp"

#include <algorithm>
#include <csignal>
#include <exception>
#include <fcntl.h>
#include <fstream>
#include <ostream>
#include <unistd.h>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace lookhd::obs {

namespace {

/** Small, stable per-thread id (first-emit order, not the OS tid). */
std::uint64_t
thisThreadId()
{
    static std::atomic<std::uint64_t> next{0};
    thread_local const std::uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
sortByElapsed(std::vector<LogEvent> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const LogEvent &a, const LogEvent &b) {
                         return a.elapsedNs < b.elapsedNs;
                     });
}

} // namespace

void
writeEventJson(JsonWriter &w, const LogEvent &e)
{
    w.beginObject();
    w.kv("ts_ms", e.wallMs);
    w.kv("elapsed_ns", e.elapsedNs);
    w.kv("level", logLevelName(e.level));
    w.kv("event", e.event);
    w.kv("thread", e.thread);
    w.key("fields").beginObject();
    for (const auto &[key, value] : e.fields)
        w.kv(key, value);
    w.endObject();
    w.endObject();
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
    case LogLevel::kDebug:
        return "debug";
    case LogLevel::kInfo:
        return "info";
    case LogLevel::kWarn:
        return "warn";
    case LogLevel::kError:
        return "error";
    }
    return "unknown";
}

/**
 * Fixed-capacity overwrite-oldest buffer. Each writer thread owns
 * one ring; the ring mutex is uncontended except while a reader
 * copies it. The newest `unflushed` of the `size` retained events
 * have not been written by a flush yet. Rings are chained into the
 * log's lock-free list (nextRing, immutable after publication) so
 * the crash-signal path can reach every ring without touching
 * ringsMutex_.
 */
struct EventLog::Ring
{
    explicit Ring(std::size_t capacity) : events(capacity) {}

    util::Mutex mutex;
    /** Capacity slots, circular. */
    std::vector<LogEvent> events LOOKHD_GUARDED_BY(mutex);
    /** Next write position. */
    std::size_t head LOOKHD_GUARDED_BY(mutex) = 0;
    std::size_t size LOOKHD_GUARDED_BY(mutex) = 0;
    std::size_t unflushed LOOKHD_GUARDED_BY(mutex) = 0;
    std::uint64_t droppedSinceFlush LOOKHD_GUARDED_BY(mutex) = 0;
    /** Owner's thread id, set when a thread takes the ring (under
     * the mutex once the ring is published); the owner reads it
     * without. */
    std::uint64_t threadId = 0;
    /** List link; written before publication, immutable after. */
    Ring *nextRing = nullptr;

    void
    push(LogEvent &&e)
    {
        const util::MutexLock lock(mutex);
        events[head] = std::move(e);
        head = (head + 1) % events.size();
        size = std::min(size + 1, events.size());
        // Only a full ring of unflushed events overwrites one a
        // flush has not written.
        if (unflushed < events.size())
            ++unflushed;
        else
            ++droppedSinceFlush;
    }

    /** Index of the @p i-th oldest of the newest @p count events. */
    std::size_t
    slot(std::size_t count, std::size_t i) const LOOKHD_REQUIRES(mutex)
    {
        const std::size_t cap = events.size();
        return (head + cap - count + i) % cap;
    }
};

struct EventLog::IdleRings
{
    util::Mutex mutex;
    std::vector<Ring *> rings LOOKHD_GUARDED_BY(mutex);
};

/** One thread's ring per log; handed back to each log's idle list
 * when the thread exits. */
struct EventLog::ThreadRings
{
    struct Held
    {
        Ring *ring = nullptr;
        std::shared_ptr<IdleRings> idle;
    };
    /** Keyed by the log's process-unique id_, so a destroyed log's
     * entry is merely stale, never a dangling lookup hit. */
    std::unordered_map<std::uint64_t, Held> byLog;

    ~ThreadRings()
    {
        for (auto &[id, held] : byLog) {
            const util::MutexLock lock(held.idle->mutex);
            held.idle->rings.push_back(held.ring);
        }
    }
};

namespace {

std::uint64_t
nextLogId()
{
    static std::atomic<std::uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

EventLog::EventLog(std::size_t ringCapacity)
    : id_(nextLogId()),
      ringCapacity_(ringCapacity == 0 ? 1 : ringCapacity),
      idle_(std::make_shared<IdleRings>())
{
}

EventLog::~EventLog()
{
    Ring *ring = ringsHead_.load(std::memory_order_acquire);
    while (ring != nullptr) {
        Ring *next = ring->nextRing;
        delete ring;
        ring = next;
    }
}

EventLog &
EventLog::global()
{
    // Leaked like MetricRegistry::global(): emit sites cache ring
    // pointers in thread_local storage that may outlive any
    // destruction order.
    static auto *log = new EventLog;
    return *log;
}

EventLog::Ring &
EventLog::ringForThisThread()
{
    // One ring per (log instance, live thread). The thread_local
    // cache makes the steady-state lookup a hash hit; rings
    // themselves are owned by the log so flush() can reach all of
    // them, and are never freed before it, so the lock-free crash
    // traversal stays valid when a ring changes owner.
    thread_local ThreadRings cache;
    const auto it = cache.byLog.find(id_);
    if (it != cache.byLog.end())
        return *it->second.ring;
    Ring *ring = nullptr;
    {
        const util::MutexLock lock(idle_->mutex);
        if (!idle_->rings.empty()) {
            ring = idle_->rings.back();
            idle_->rings.pop_back();
        }
    }
    if (ring != nullptr) {
        // An exited thread's ring; its unflushed events keep their
        // own thread ids.
        const util::MutexLock lock(ring->mutex);
        ring->threadId = thisThreadId();
    } else {
        ring = new Ring(ringCapacity_);
        ring->threadId = thisThreadId();
        const util::MutexLock lock(ringsMutex_);
        ring->nextRing = ringsHead_.load(std::memory_order_relaxed);
        // Release-publish so the lock-free crash traversal sees a
        // fully constructed ring behind the new head.
        ringsHead_.store(ring, std::memory_order_release);
    }
    cache.byLog[id_] = {ring, idle_};
    return *ring;
}

void
EventLog::emit(LogLevel level, std::string_view event,
               LogFields fields)
{
    Ring &ring = ringForThisThread();
    LogEvent e;
    e.wallMs = wallClockMs();
    e.elapsedNs = util::Timer::processNanoseconds();
    e.level = level;
    e.event = std::string(event);
    e.thread = ring.threadId;
    e.fields = std::move(fields);
    ring.push(std::move(e));
    emitted_.fetch_add(1, std::memory_order_relaxed);
}

void
EventLog::flush(std::ostream &out)
{
    std::vector<LogEvent> pending;
    {
        const util::MutexLock lock(ringsMutex_);
        for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
             ring != nullptr; ring = ring->nextRing) {
            const util::MutexLock ringLock(ring->mutex);
            if (ring->droppedSinceFlush > 0) {
                LogEvent drop;
                drop.wallMs = wallClockMs();
                drop.elapsedNs = 0; // sorts before what survived
                drop.level = LogLevel::kWarn;
                drop.event = "eventlog.dropped";
                drop.thread = ring->threadId;
                drop.fields.emplace_back(
                    "dropped",
                    std::to_string(ring->droppedSinceFlush));
                pending.push_back(std::move(drop));
                dropped_.fetch_add(ring->droppedSinceFlush,
                                   std::memory_order_relaxed);
                ring->droppedSinceFlush = 0;
            }
            for (std::size_t i = 0; i < ring->unflushed; ++i)
                pending.push_back(
                    ring->events[ring->slot(ring->unflushed, i)]);
            ring->unflushed = 0;
        }
    }
    sortByElapsed(pending);
    for (const LogEvent &e : pending) {
        JsonWriter w;
        writeEventJson(w, e);
        out << w.str() << '\n';
    }
}

std::vector<LogEvent>
EventLog::snapshot() const
{
    std::vector<LogEvent> retained;
    {
        const util::MutexLock lock(ringsMutex_);
        for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
             ring != nullptr; ring = ring->nextRing) {
            const util::MutexLock ringLock(ring->mutex);
            for (std::size_t i = 0; i < ring->size; ++i)
                retained.push_back(
                    ring->events[ring->slot(ring->size, i)]);
        }
    }
    sortByElapsed(retained);
    return retained;
}

bool
EventLog::flushToFile(const std::string &path)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        return false;
    flush(out);
    out.flush();
    return out.good();
}

std::uint64_t
EventLog::totalEmitted() const
{
    return emitted_.load(std::memory_order_relaxed);
}

std::uint64_t
EventLog::totalDropped() const
{
    // Drops are folded in at flush time; add the not-yet-flushed
    // remainder so the count is current.
    std::uint64_t pending = 0;
    {
        const util::MutexLock lock(ringsMutex_);
        for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
             ring != nullptr; ring = ring->nextRing) {
            const util::MutexLock ringLock(ring->mutex);
            pending += ring->droppedSinceFlush;
        }
    }
    return dropped_.load(std::memory_order_relaxed) + pending;
}

void
EventLog::reset()
{
    const util::MutexLock lock(ringsMutex_);
    for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
         ring != nullptr; ring = ring->nextRing) {
        const util::MutexLock ringLock(ring->mutex);
        ring->size = 0;
        ring->unflushed = 0;
        ring->droppedSinceFlush = 0;
    }
    emitted_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
}

// --- Crash flush -----------------------------------------------------
//
// Everything below the FdWriter must stay async-signal-safe: no
// allocation, no locks, no stdio, no functions outside the
// signal-safety(7) list. tools/lint_annotations.py cannot check this,
// but the tidy-tsa build proves the no-locking half: none of these
// functions carry ACQUIRE/REQUIRES, and flushCrashToFd is the one
// LOOKHD_NO_THREAD_SAFETY_ANALYSIS site in the repo, with the racy
// reads documented at the call sites it guards.

namespace {

/**
 * Buffered raw-fd JSON-line writer for the crash path. Fixed stack
 * storage, write(2) only; every method is async-signal-safe.
 */
class FdWriter
{
  public:
    explicit FdWriter(int fd) : fd_(fd) {}

    ~FdWriter() { flushBuffer(); }

    void
    put(char c)
    {
        if (len_ == sizeof(buf_))
            flushBuffer();
        buf_[len_++] = c;
    }

    void
    literal(const char *s)
    {
        while (*s != '\0')
            put(*s++);
    }

    /** JSON string escape of raw bytes (no allocation). */
    void
    escaped(const char *s, std::size_t n)
    {
        static const char *hex = "0123456789abcdef";
        for (std::size_t i = 0; i < n; ++i) {
            const auto c = static_cast<unsigned char>(s[i]);
            if (c == '"' || c == '\\') {
                put('\\');
                put(static_cast<char>(c));
            } else if (c >= 0x20) {
                put(static_cast<char>(c));
            } else {
                literal("\\u00");
                put(hex[(c >> 4) & 0xF]);
                put(hex[c & 0xF]);
            }
        }
    }

    void
    unsigned64(std::uint64_t v)
    {
        char digits[20];
        std::size_t n = 0;
        do {
            digits[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n > 0)
            put(digits[--n]);
    }

    bool ok() const { return ok_; }

    void
    flushBuffer()
    {
        std::size_t off = 0;
        while (off < len_) {
            const ssize_t n =
                ::write(fd_, buf_ + off, len_ - off);
            if (n <= 0) {
                ok_ = false;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
        len_ = 0;
    }

  private:
    int fd_;
    char buf_[4096];
    std::size_t len_ = 0;
    bool ok_ = true;
};

void
writeCrashEventLine(FdWriter &w, const LogEvent &e)
{
    w.literal("{\"ts_ms\":");
    w.unsigned64(e.wallMs);
    w.literal(",\"elapsed_ns\":");
    w.unsigned64(e.elapsedNs);
    w.literal(",\"level\":\"");
    w.literal(logLevelName(e.level));
    w.literal("\",\"event\":\"");
    w.escaped(e.event.data(), e.event.size());
    w.literal("\",\"thread\":");
    w.unsigned64(e.thread);
    w.literal(",\"fields\":{");
    bool first = true;
    for (const auto &[key, value] : e.fields) {
        if (!first)
            w.put(',');
        first = false;
        w.put('"');
        w.escaped(key.data(), key.size());
        w.literal("\":\"");
        w.escaped(value.data(), value.size());
        w.put('"');
    }
    w.literal("}}\n");
}

constexpr std::size_t kCrashPathMax = 4096;

/** Serializes installers only; never touched on the signal path. */
util::Mutex gInstallMutex;
char gCrashPath[kCrashPathMax] LOOKHD_GUARDED_BY(gInstallMutex);
/** Path byte count, release-published after the bytes are written so
 * the handler's lock-free acquire load sees a complete path. */
std::atomic<std::size_t> gCrashPathLen{0};
/** The log the handler flushes; set before handlers install so the
 * signal path never runs a magic-static initializer. */
std::atomic<EventLog *> gCrashLog{nullptr};
std::terminate_handler gPrevTerminate = nullptr;
std::atomic<bool> gCrashFlushed{false};

/**
 * Async-signal-safe: open/write/close only, no locks, no allocation.
 * A fault inside this function re-enters fatalSignalHandler, which
 * sees gCrashFlushed and falls straight through to SIG_DFL re-raise,
 * so the worst case is a truncated log, never a hang.
 *
 * Analysis is off because gCrashPath is read WITHOUT gInstallMutex:
 * the handler must not lock (the crashing thread may hold it), and
 * installation happened-before the crash via gCrashPathLen's
 * release/acquire pair.
 */
void
crashFlush(const char *reason) LOOKHD_NO_THREAD_SAFETY_ANALYSIS
{
    // One shot: a second fault while flushing must not recurse.
    if (gCrashFlushed.exchange(true))
        return;
    const std::size_t pathLen =
        gCrashPathLen.load(std::memory_order_acquire);
    EventLog *log = gCrashLog.load(std::memory_order_acquire);
    if (pathLen == 0 || log == nullptr)
        return;
    char path[kCrashPathMax];
    // Lock-free read of gCrashPath: installers serialize among
    // themselves and publish through gCrashPathLen; by the time a
    // handler runs, installation has happened-before the crash.
    for (std::size_t i = 0; i < pathLen; ++i)
        path[i] = gCrashPath[i];
    path[pathLen] = '\0';
    const int fd =
        ::open(path, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return;
    {
        FdWriter w(fd);
        w.literal("{\"ts_ms\":0,\"elapsed_ns\":0,\"level\":\"error\","
                  "\"event\":\"eventlog.crash\",\"thread\":0,"
                  "\"fields\":{\"reason\":\"");
        w.literal(reason);
        w.literal("\"}}\n");
        w.flushBuffer();
    }
    log->flushCrashToFd(fd);
    ::close(fd);
}

[[noreturn]] void
terminateWithFlush()
{
    crashFlush("terminate");
    if (gPrevTerminate)
        gPrevTerminate();
    std::abort();
}

void
fatalSignalHandler(int sig)
{
    crashFlush("signal");
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

} // namespace

// Rationale for LOOKHD_NO_THREAD_SAFETY_ANALYSIS: this is the
// crash-signal drain. Taking ringsMutex_ or a ring mutex inside a
// signal handler could self-deadlock against the very thread that
// crashed while holding it, so the rings are read WITHOUT their
// capabilities, racing with live writers by design. The ring list is
// safe to traverse lock-free (release-published, nodes never freed
// while the log lives); the ring contents may tear, and a fault while
// reading them is absorbed by crashFlush's one-shot guard.
bool
EventLog::flushCrashToFd(int fd) LOOKHD_NO_THREAD_SAFETY_ANALYSIS
{
    FdWriter w(fd);
    for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
         ring != nullptr; ring = ring->nextRing) {
        const std::size_t cap = ring->events.size();
        if (cap == 0)
            continue;
        const std::size_t unflushed =
            ring->unflushed < cap ? ring->unflushed : cap;
        const std::size_t head = ring->head % cap;
        if (ring->droppedSinceFlush > 0) {
            LogEvent drop;
            // Field strings stay in-capacity for SSO: no allocation.
            drop.level = LogLevel::kWarn;
            drop.event = "eventlog.dropped";
            drop.thread = ring->threadId;
            writeCrashEventLine(w, drop);
        }
        const std::size_t oldest = (head + cap - unflushed) % cap;
        for (std::size_t i = 0; i < unflushed; ++i)
            writeCrashEventLine(
                w, ring->events[(oldest + i) % cap]);
    }
    w.flushBuffer();
    return w.ok();
}

void
EventLog::installCrashFlush(const std::string &path)
{
    bool firstInstall = false;
    {
        const util::MutexLock lock(gInstallMutex);
        firstInstall =
            gCrashPathLen.load(std::memory_order_relaxed) == 0;
        const std::size_t len =
            path.size() < kCrashPathMax - 1 ? path.size()
                                            : kCrashPathMax - 1;
        for (std::size_t i = 0; i < len; ++i)
            gCrashPath[i] = path[i];
        gCrashLog.store(&global(), std::memory_order_release);
        gCrashPathLen.store(len, std::memory_order_release);
    }
    if (!firstInstall)
        return;
    gPrevTerminate = std::set_terminate(terminateWithFlush);
    for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT})
        std::signal(sig, fatalSignalHandler);
}

} // namespace lookhd::obs
