/**
 * @file
 * Tests for the bounded structured event log (obs/eventlog.hpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/eventlog.hpp"
#include "obs/json.hpp"
#include "obs/reqtrace.hpp"
#include "serve/jsonin.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::obs;

std::vector<std::string>
flushLines(EventLog &log)
{
    std::ostringstream out;
    log.flush(out);
    std::vector<std::string> lines;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(EventLog, EmitsValidJsonLines)
{
    EventLog log(16);
    log.emit(LogLevel::kInfo, "test.hello",
             {{"k", "v"}, {"n", "42"}});
    log.emit(LogLevel::kError, "test.boom", {{"what", "a \"q\""}});

    const auto lines = flushLines(log);
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error << ": " << line;
        EXPECT_NE(doc->find("ts_ms"), nullptr);
        EXPECT_NE(doc->find("elapsed_ns"), nullptr);
        EXPECT_NE(doc->find("level"), nullptr);
        EXPECT_NE(doc->find("event"), nullptr);
        EXPECT_NE(doc->find("thread"), nullptr);
        EXPECT_NE(doc->find("fields"), nullptr);
    }
    std::string error;
    const auto first = serve::parseJson(lines[0], error);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->find("event")->string, "test.hello");
    EXPECT_EQ(first->find("level")->string, "info");
    EXPECT_EQ(first->find("fields")->find("k")->string, "v");
    const auto second = serve::parseJson(lines[1], error);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->find("level")->string, "error");
    EXPECT_EQ(second->find("fields")->find("what")->string, "a \"q\"");
}

std::string
eventName(const std::string &line)
{
    std::string error;
    const auto doc = serve::parseJson(line, error);
    if (doc == nullptr || doc->find("event") == nullptr)
        return "unparsable: " + error;
    return doc->find("event")->string;
}

TEST(EventLog, FlushWritesEachEventOnce)
{
    EventLog log(16);
    log.emit(LogLevel::kInfo, "test.once");
    EXPECT_EQ(flushLines(log).size(), 1u);
    EXPECT_TRUE(flushLines(log).empty());
    EXPECT_EQ(log.totalEmitted(), 1u);
    // Flushed is not forgotten: the event stays for snapshot().
    const std::vector<LogEvent> retained = log.snapshot();
    ASSERT_EQ(retained.size(), 1u);
    EXPECT_EQ(retained[0].event, "test.once");
}

TEST(EventLog, IncrementalFlushWritesOnlyNewEvents)
{
    EventLog log(8);
    for (int i = 0; i < 3; ++i)
        log.emit(LogLevel::kInfo, "test.old" + std::to_string(i));
    EXPECT_EQ(flushLines(log).size(), 3u);

    log.emit(LogLevel::kInfo, "test.new");
    const auto next = flushLines(log);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(eventName(next[0]), "test.new");
    EXPECT_TRUE(flushLines(log).empty());
    EXPECT_EQ(log.snapshot().size(), 4u);
}

TEST(EventLog, SnapshotIsNonDestructive)
{
    EventLog log(8);
    log.emit(LogLevel::kInfo, "test.a", {{"k", "1"}});
    log.emit(LogLevel::kWarn, "test.b");
    for (int pass = 0; pass < 2; ++pass) {
        const std::vector<LogEvent> events = log.snapshot();
        ASSERT_EQ(events.size(), 2u);
        EXPECT_EQ(events[0].event, "test.a");
        EXPECT_EQ(events[1].event, "test.b");
        EXPECT_LE(events[0].elapsedNs, events[1].elapsedNs);
        EXPECT_GT(events[0].wallMs, 0u);
        ASSERT_EQ(events[0].fields.size(), 1u);
        EXPECT_EQ(events[0].fields[0].second, "1");
    }
    // A peek consumes nothing the file flush still owes.
    EXPECT_EQ(flushLines(log).size(), 2u);
}

TEST(EventLog, OverflowCountsOnlyUnflushedEvents)
{
    EventLog log(4);
    for (int i = 0; i < 4; ++i)
        log.emit(LogLevel::kInfo, "test.e" + std::to_string(i));
    EXPECT_EQ(flushLines(log).size(), 4u);

    // Overwriting events a flush already wrote loses nothing.
    for (int i = 4; i < 8; ++i)
        log.emit(LogLevel::kInfo, "test.e" + std::to_string(i));
    EXPECT_EQ(log.totalDropped(), 0u);
    std::vector<LogEvent> retained = log.snapshot();
    ASSERT_EQ(retained.size(), 4u);
    EXPECT_EQ(retained.front().event, "test.e4");
    EXPECT_EQ(retained.back().event, "test.e7");

    // Overwriting unflushed ones does, and is counted.
    for (int i = 8; i < 10; ++i)
        log.emit(LogLevel::kInfo, "test.e" + std::to_string(i));
    EXPECT_EQ(log.totalDropped(), 2u);
    EXPECT_EQ(log.totalEmitted(), 10u);
    retained = log.snapshot();
    ASSERT_EQ(retained.size(), 4u);
    EXPECT_EQ(retained.front().event, "test.e6");
    EXPECT_EQ(retained.back().event, "test.e9");
}

TEST(EventLog, RingOverflowDropsOldestAndCountsIt)
{
    EventLog log(4);
    for (int i = 0; i < 10; ++i)
        log.emit(LogLevel::kInfo, "test.e" + std::to_string(i));
    EXPECT_EQ(log.totalDropped(), 6u);

    const auto lines = flushLines(log);
    // 4 surviving events plus the synthetic drop marker.
    ASSERT_EQ(lines.size(), 5u);
    std::string error;
    const auto marker = serve::parseJson(lines[0], error);
    ASSERT_NE(marker, nullptr) << error;
    EXPECT_EQ(marker->find("event")->string, "eventlog.dropped");
    EXPECT_EQ(marker->find("level")->string, "warn");
    EXPECT_EQ(marker->find("fields")->find("dropped")->string, "6");
    // The newest four events survived, oldest-first.
    const auto survivor = serve::parseJson(lines[1], error);
    ASSERT_NE(survivor, nullptr);
    EXPECT_EQ(survivor->find("event")->string, "test.e6");

    // The marker is emitted once per overflow window, not repeated
    // on the next (clean) flush.
    log.emit(LogLevel::kInfo, "test.later");
    const auto next = flushLines(log);
    ASSERT_EQ(next.size(), 1u);
    const auto later = serve::parseJson(next[0], error);
    ASSERT_NE(later, nullptr);
    EXPECT_EQ(later->find("event")->string, "test.later");
}

TEST(EventLog, MergesThreadsByMonotonicTime)
{
    EventLog log(64);
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&log, t] {
            for (int i = 0; i < 8; ++i)
                log.emit(LogLevel::kInfo,
                         "test.t" + std::to_string(t));
        });
    }
    for (std::thread &t : threads)
        t.join();

    const auto lines = flushLines(log);
    ASSERT_EQ(lines.size(), 32u);
    double previous = 0.0;
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error;
        const double ns = doc->find("elapsed_ns")->number;
        EXPECT_GE(ns, previous);
        previous = ns;
    }
    EXPECT_EQ(log.totalEmitted(), 32u);
    EXPECT_EQ(log.totalDropped(), 0u);
}

TEST(EventLog, ConcurrentWritersSnapshotEveryEvent)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 200;
    EventLog log(kPerThread);
    // Every writer stays alive until all have emitted: an exited
    // writer's ring would pass to the next one to start.
    std::atomic<int> finished{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&log, &finished, t] {
            for (int i = 0; i < kPerThread; ++i)
                log.emit(LogLevel::kInfo, "test.w",
                         {{"n", std::to_string(t * kPerThread + i)}});
            finished.fetch_add(1);
            while (finished.load() < kThreads)
                std::this_thread::yield();
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(log.totalEmitted(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(log.totalDropped(), 0u);
    // Per-thread rings were sized to hold every event.
    const std::vector<LogEvent> events = log.snapshot();
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    std::set<std::string> seen;
    for (const LogEvent &e : events)
        seen.insert(e.fields.at(0).second);
    EXPECT_EQ(seen.size(), events.size());
    EXPECT_TRUE(std::is_sorted(
        events.begin(), events.end(),
        [](const LogEvent &a, const LogEvent &b) {
            return a.elapsedNs < b.elapsedNs;
        }));
}

TEST(EventLog, EmittedEqualsWrittenPlusDroppedUnderConcurrentFlushes)
{
    // Every emitted event is either written by exactly one flush or
    // counted as dropped, however emits and flushes interleave.
    constexpr int kEmitters = 4;
    constexpr int kPerEmitter = 3000;
    EventLog log(8);
    std::atomic<bool> emitting{true};
    std::atomic<std::uint64_t> written{0};
    const auto flushAndCount = [&log, &written] {
        for (const std::string &line : flushLines(log))
            if (eventName(line) != "eventlog.dropped")
                written.fetch_add(1, std::memory_order_relaxed);
    };
    std::vector<std::thread> flushers;
    for (int f = 0; f < 2; ++f) {
        flushers.emplace_back([&emitting, &flushAndCount] {
            while (emitting.load(std::memory_order_relaxed))
                flushAndCount();
        });
    }
    std::vector<std::thread> emitters;
    for (int t = 0; t < kEmitters; ++t) {
        emitters.emplace_back([&log] {
            for (int i = 0; i < kPerEmitter; ++i)
                log.emit(LogLevel::kInfo, "test.inv");
        });
    }
    for (std::thread &thread : emitters)
        thread.join();
    emitting.store(false, std::memory_order_relaxed);
    for (std::thread &thread : flushers)
        thread.join();
    flushAndCount();

    EXPECT_EQ(log.totalEmitted(),
              static_cast<std::uint64_t>(kEmitters * kPerEmitter));
    EXPECT_EQ(log.totalEmitted(),
              written.load() + log.totalDropped());
}

TEST(EventLog, CapturedRequestCarriesStageFields)
{
    RequestContext ctx;
    ctx.trace = TraceId{0x1234, 0x5678};
    ctx.setStage(ReqStage::kScore, 777);
    LogFields fields = {{"trace", traceIdHex(ctx.trace)},
                        {"reason", "sampled"},
                        {"id", "req-1"}};
    appendStageFields(fields, ctx);
    EventLog log(4);
    log.emit(LogLevel::kInfo, "serve.request.captured", fields);

    const auto lines = flushLines(log);
    ASSERT_EQ(lines.size(), 1u);
    std::string error;
    const auto doc = serve::parseJson(lines[0], error);
    ASSERT_NE(doc, nullptr) << error;
    const serve::JsonValue *f = doc->find("fields");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->find("trace")->string, traceIdHex(ctx.trace));
    EXPECT_EQ(f->find("reason")->string, "sampled");
    EXPECT_EQ(f->find("id")->string, "req-1");
    for (std::size_t s = 0; s < kReqStageCount; ++s) {
        const std::string key = std::string("stage.") +
                                reqStageName(static_cast<ReqStage>(s));
        ASSERT_NE(f->find(key), nullptr) << key;
    }
    EXPECT_EQ(f->find("stage.score")->string, "777");
    EXPECT_EQ(f->find("stage.parse")->string, "0");

    // /debug/requests formats snapshot events with the same writer
    // as the --event-log line.
    JsonWriter w;
    writeEventJson(w, log.snapshot().at(0));
    EXPECT_EQ(w.str(), lines[0]);
}

// The slow-request log is the `serve.request.captured` events of an
// EventLog: capture order is elapsed_ns order, and snapshot() is the
// /debug/requests peek.

void
captureRequest(EventLog &log, const std::string &id)
{
    RequestContext ctx;
    ctx.trace = makeTraceId();
    LogFields fields = {{"trace", traceIdHex(ctx.trace)},
                        {"reason", "slow"},
                        {"id", id}};
    appendStageFields(fields, ctx);
    log.emit(LogLevel::kInfo, "serve.request.captured",
             std::move(fields));
}

std::string
fieldValue(const LogEvent &e, const std::string &key)
{
    for (const auto &[k, v] : e.fields)
        if (k == key)
            return v;
    return {};
}

TEST(SlowRequestLog, AssignsSequentialSeqAndWallClock)
{
    EventLog log(8);
    for (int i = 1; i <= 3; ++i)
        captureRequest(log, std::to_string(i));
    const std::vector<LogEvent> records = log.snapshot();
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].event, "serve.request.captured");
        EXPECT_EQ(fieldValue(records[i], "id"), std::to_string(i + 1));
        EXPECT_GT(records[i].wallMs, 0u);
        if (i > 0) {
            EXPECT_LE(records[i - 1].elapsedNs, records[i].elapsedNs);
        }
    }
    EXPECT_EQ(log.totalEmitted(), 3u);
}

TEST(SlowRequestLog, SnapshotIsNonDestructive)
{
    EventLog log(8);
    captureRequest(log, "req-1");
    EXPECT_EQ(log.snapshot().size(), 1u);
    EXPECT_EQ(log.snapshot().size(), 1u);
    EXPECT_EQ(flushLines(log).size(), 1u);
    // Written to the file is still retained for the peek.
    ASSERT_EQ(log.snapshot().size(), 1u);
    EXPECT_EQ(fieldValue(log.snapshot()[0], "id"), "req-1");
}

TEST(EventLog, ExitedThreadsRingPassesToTheNextThread)
{
    // Thread churn must not grow the log: a new thread takes the
    // ring an exited one left, unflushed events included. With
    // capacity 4, the second thread's three events overwrite two of
    // the first thread's three.
    EventLog log(4);
    const auto emitThree = [&log](const char *event) {
        std::thread([&log, event] {
            for (int i = 0; i < 3; ++i)
                log.emit(LogLevel::kInfo, event);
        }).join();
    };
    emitThree("test.first");
    emitThree("test.second");
    EXPECT_EQ(log.totalDropped(), 2u);

    const auto lines = flushLines(log);
    // The drop marker, the first thread's newest event, then the
    // second thread's three, each under its own thread id.
    ASSERT_EQ(lines.size(), 5u);
    std::string error;
    const auto first = serve::parseJson(lines[1], error);
    ASSERT_NE(first, nullptr) << error;
    EXPECT_EQ(first->find("event")->string, "test.first");
    for (std::size_t i = 2; i < lines.size(); ++i) {
        const auto second = serve::parseJson(lines[i], error);
        ASSERT_NE(second, nullptr) << error;
        EXPECT_EQ(second->find("event")->string, "test.second");
        EXPECT_NE(second->find("thread")->number,
                  first->find("thread")->number);
    }
}

TEST(EventLog, ResetZeroesCountersAndDropsEvents)
{
    EventLog log(2);
    for (int i = 0; i < 5; ++i)
        log.emit(LogLevel::kInfo, "test.x");
    log.reset();
    EXPECT_EQ(log.totalEmitted(), 0u);
    EXPECT_EQ(log.totalDropped(), 0u);
    EXPECT_TRUE(flushLines(log).empty());
}

// ------------------------------------------------------ crash flush
//
// Regression coverage for the async-signal-safe crash path: the
// signal handler must write the rings' unflushed events without
// taking locks or allocating (obs/eventlog.cpp, flushCrashToFd). These run under the
// tsan preset too (EventLogCrash is in its test filter).

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(EventLogCrash, FlushCrashToFdWritesParsableJsonWithoutDraining)
{
    EventLog log(16);
    log.emit(LogLevel::kInfo, "crash.first", {{"k", "v"}});
    log.emit(LogLevel::kWarn, "crash.second",
             {{"quote", "a \"q\" and\tcontrol"}});

    const std::string path =
        ::testing::TempDir() + "eventlog_crash_fd.jsonl";
    std::remove(path.c_str());
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(log.flushCrashToFd(fd));
    ASSERT_EQ(::close(fd), 0);

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error << ": " << line;
        EXPECT_NE(doc->find("event"), nullptr);
    }
    std::string error;
    const auto second = serve::parseJson(lines[1], error);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->find("event")->string, "crash.second");
    EXPECT_EQ(second->find("fields")->find("quote")->string,
              "a \"q\" and\tcontrol");

    // The crash path must not mutate ring state: a survivable caller
    // can still flush normally afterwards.
    EXPECT_EQ(flushLines(log).size(), 2u);

    // Like flush(), it writes only what no flush has written yet.
    log.emit(LogLevel::kInfo, "crash.third");
    const int again =
        ::open(path.c_str(), O_WRONLY | O_TRUNC, 0644);
    ASSERT_GE(again, 0);
    EXPECT_TRUE(log.flushCrashToFd(again));
    ASSERT_EQ(::close(again), 0);
    const auto unflushed = readLines(path);
    ASSERT_EQ(unflushed.size(), 1u);
    EXPECT_EQ(eventName(unflushed[0]), "crash.third");
    std::remove(path.c_str());
}

TEST(EventLogCrash, FatalSignalFlushesGlobalLogInChildProcess)
{
    const std::string path =
        ::testing::TempDir() + "eventlog_crash_signal.jsonl";
    std::remove(path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: stage events in the global log, arm the crash
        // flush, then die by an in-set fatal signal. SIGABRT is the
        // portable choice: sanitizer runtimes leave it to user
        // handlers by default, unlike SIGSEGV.
        EventLog::global().emit(LogLevel::kError, "crash.dying",
                                {{"pid", "child"}});
        EventLog::installCrashFlush(path);
        std::abort();
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // The handler re-raises with SIG_DFL, so the child must NOT look
    // like a clean exit.
    EXPECT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    const auto lines = readLines(path);
    ASSERT_GE(lines.size(), 2u) << "crash flush wrote no events";
    bool sawMarker = false;
    bool sawEvent = false;
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error << ": " << line;
        const serve::JsonValue *event = doc->find("event");
        ASSERT_NE(event, nullptr);
        if (event->string == "eventlog.crash")
            sawMarker = true;
        if (event->string == "crash.dying")
            sawEvent = true;
    }
    EXPECT_TRUE(sawMarker);
    EXPECT_TRUE(sawEvent);
    std::remove(path.c_str());
}

TEST(LogLevelName, NamesAreLowerCase)
{
    EXPECT_STREQ(logLevelName(LogLevel::kDebug), "debug");
    EXPECT_STREQ(logLevelName(LogLevel::kInfo), "info");
    EXPECT_STREQ(logLevelName(LogLevel::kWarn), "warn");
    EXPECT_STREQ(logLevelName(LogLevel::kError), "error");
}

} // namespace
