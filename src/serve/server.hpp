/**
 * @file
 * Multi-threaded batched-inference server over plain TCP.
 *
 * The minimal serving harness that makes the live telemetry
 * meaningful: a request port speaking newline-delimited JSON and a
 * scrape port exposing the Prometheus snapshot.
 *
 * Request port protocol (one JSON object per line):
 *
 *   -> {"id":7,"features":[0.5,1.25,3.0]}
 *   <- {"id":7,"pred":1}
 *   -> {"id":"a","features":[...],"scores":true}
 *   <- {"id":"a","pred":1,"scores":[-0.1,0.9]}
 *   <- {"id":9,"error":"expected 3 features, got 2"}   (bad request)
 *
 * Threading: one acceptor (which also joins finished readers), one
 * reader thread per connection feeding a bounded request queue, a
 * work-conserving worker pool (a free worker takes whatever is
 * queued, up to batchMaxSize, and starts at once; it sleeps only
 * while the queue is empty), one scrape-port thread, one watchdog
 * thread. A full queue rejects at the reader with an "overloaded"
 * error response instead of back-pressuring the socket, so queue
 * depth is bounded and visible in /metrics.
 *
 * Scrape port (HTTP/1.0, close-per-request, GET only - other
 * methods get 405):
 *   GET /metrics         Prometheus text format v0.0.4 of the global
 *                        registry + span rollup (obs/exposition.hpp)
 *   GET /metrics.json    the JSON snapshot document
 *   GET /healthz         readiness: 200 "ok" when serving, 503 with
 *                        a JSON {"status","reason"} body while
 *                        draining, saturated, recently overloaded,
 *                        stalled, or in violation of an SLO/drift
 *                        rule (obs/health.hpp)
 *   GET /livez           liveness: 200 while the scrape loop runs
 *   GET /debug/health    full verdict: protocol state, per-rule
 *                        burn rates, drift scores as JSON
 *   GET /debug/windows?s=N  recent window series (last N seconds)
 *   GET /debug/requests  {"captured_total","records"}: the
 *                        serve.request.captured events the event
 *                        log still retains, each a slow or sampled
 *                        request with its full stage breakdown
 *   GET /debug/inflight  currently queued + scoring requests, aged
 *   GET /debug/profile?seconds=N&hz=H
 *                        blocking CPU-profile capture
 *                        (obs/profiler.hpp): collapsed stacks as
 *                        text/plain; 503 while another profiling
 *                        session is running, 404 when the
 *                        profiler is compiled out
 *
 * Request tracing: every request carries an obs::RequestContext
 * (128-bit trace id from the request's `trace` field or generated
 * server-side, echoed in the response) and stamps one duration per
 * pipeline stage (parse/queue/batch_form/score/serialize/
 * write).
 * Stage durations feed per-stage histograms and exemplars on the
 * request-latency histogram. A request over slowThresholdNs, or
 * every sampleEveryN-th one, is captured: it becomes one
 * serve.request.captured event (fields trace, span, client_trace,
 * reason, id, total_ns, batch_size, pred, margin and one
 * stage.<name> per stage) in obs::EventLog::global(), which
 * /debug/requests peeks at and --event-log writes out. Under
 * -DLOOKHD_OBS=OFF id generation and capture compile out; echo of a
 * client-supplied trace id is protocol, so it stays.
 *
 * Telemetry: request accounting (serve.* counters/gauges and the
 * serve.request.latency histogram) writes the metric registry
 * directly - it is the product of this layer, not optional
 * instrumentation, so /metrics stays meaningful even in
 * -DLOOKHD_OBS=OFF builds where the macro sites compile out.
 * Request-scope events (start/shutdown, captured requests, watchdog
 * trips, overload) land in obs::EventLog::global().
 *
 * The watchdog thread checks every worker's in-flight batch against
 * deadline; a stall logs a watchdog.trip event carrying the
 * worker's current stage (a ReqStage name) and a span-rollup dump
 * (once per stuck batch), and increments serve.watchdog.trips.
 */

#ifndef LOOKHD_SERVE_SERVER_HPP
#define LOOKHD_SERVE_SERVER_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lookhd/classifier.hpp"
#include "obs/health.hpp"
#include "obs/reqtrace.hpp"
#include "serve/net.hpp"
#include "util/thread_annotations.hpp"

namespace lookhd::obs {
class Counter;
class Gauge;
class LatencyHistogram;
} // namespace lookhd::obs

namespace lookhd::serve {

/** Tunables of one InferenceServer. */
struct ServeConfig
{
    /** Request port; 0 = kernel-assigned (read back via port()). */
    std::uint16_t port = 0;

    /** Scrape port; 0 = kernel-assigned (metricsPort()). */
    std::uint16_t metricsPort = 0;

    /** Inference worker threads. */
    std::size_t workers = 2;

    /** Max requests dispatched to a worker as one batch. */
    std::size_t batchMaxSize = 16;

    /**
     * Serving arithmetic: "auto" (int8 when the loaded model carries
     * quantized forms, float64 otherwise), or an explicit "float64",
     * "int8", "binary". Explicit quantized choices build the forms
     * on demand when the model lacks them. The resolved choice is
     * exported as the "precision" label on /metrics and decides
     * which kernel path Classifier::scoresBatch takes per batch.
     */
    std::string precision = "auto";

    /** Bounded request queue; beyond this, reject as overloaded. */
    std::size_t queueCapacity = 1024;

    /** Worker-stall threshold for the watchdog. 0 disables. */
    std::uint64_t watchdogDeadlineMs = 2000;

    /** Watchdog poll period. */
    std::uint64_t watchdogPeriodMs = 100;

    /**
     * End-to-end latency (parse start to response written) beyond
     * which a request is captured as a serve.request.captured event
     * with reason "slow". 0 disables threshold capture.
     */
    std::uint64_t slowThresholdNs = 100'000'000;

    /** Also capture every Nth request ("sampled"). 0 disables. */
    std::uint64_t sampleEveryN = 0;

    /**
     * Artificial per-batch delay added to the scoring stage. A load-
     * testing aid (simulates heavier models so overload and
     * latency-SLO scenarios reproduce deterministically); 0 in
     * production.
     */
    std::uint64_t scoreDelayNs = 0;

    /**
     * After an overload rejection, /healthz stays unready this long
     * even once the queue has space again: a load balancer polling
     * between bursts should keep the instance drained, not flap.
     * 0 disables the latch (only instantaneous saturation counts).
     */
    std::uint64_t overloadHoldMs = 2000;

    /**
     * Windowed health engine (sampler cadence, SLO objectives, drift
     * detection; see obs/health.hpp). The sampler thread runs when
     * health.windowSeconds > 0 and the obs layer is compiled in;
     * protocol-level /healthz readiness (drain/overload/stall) works
     * regardless.
     */
    obs::HealthConfig health;

    /**
     * Test-only hook, run at the start of every batch with the batch
     * size (on the worker thread, while the watchdog sees the worker
     * busy). Lets tests stall a worker deterministically.
     */
    std::function<void(std::size_t)> batchHook;
};

/**
 * The server. start() spins up the threads and returns; stop()
 * (also run by the destructor) stops accepting, drains the queue,
 * answers what it can, and joins everything.
 */
class InferenceServer
{
  public:
    InferenceServer(Classifier classifier, ServeConfig config);
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /** Bind both ports and launch the thread set. @throws NetError. */
    void start();

    /** Graceful shutdown; idempotent. */
    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /** Bound request port. @pre start() succeeded. */
    std::uint16_t port() const { return requestListener_.port(); }

    /** Bound scrape port. @pre start() succeeded. */
    std::uint16_t metricsPort() const
    {
        return metricsListener_.port();
    }

    /** Requests answered successfully since start. */
    std::uint64_t requestsServed() const;

    /** One /healthz readiness verdict. */
    struct Readiness
    {
        bool ready = true;
        /** "ok" | "draining" | "queue_saturated" | "overloaded" |
         * "watchdog_stalled" | a HealthMonitor reason. */
        std::string reason = "ok";
    };

    /**
     * Compute the current readiness verdict (highest-priority
     * violation wins: draining > queue_saturated > overloaded >
     * watchdog_stalled > rule-engine reasons), update the
     * serve.health.ready gauge, and log transitions. This is what
     * GET /healthz serves; public for tests.
     */
    Readiness checkReadiness();

    /**
     * The watchdog's stall predicate: whether a batch that started at
     * @p busySinceNs (0 = worker idle) has run for at least
     * @p deadlineNs (0 = watchdog off) at @p nowNs. A batch that
     * started after @p nowNs was read is not stalled.
     */
    static bool stalledAt(std::uint64_t busySinceNs, std::uint64_t nowNs,
                          std::uint64_t deadlineNs);

    /**
     * The overload-hold predicate: whether the last overload
     * rejection at @p lastOverloadNs (0 = never) is within
     * @p holdNs (0 = no hold) of @p nowNs. A rejection stored after
     * @p nowNs was read counts as recent.
     */
    static bool overloadHeld(std::uint64_t lastOverloadNs,
                             std::uint64_t nowNs, std::uint64_t holdNs);

    /** Windowed health engine; null when disabled or compiled out. */
    obs::HealthMonitor *healthMonitor() { return health_.get(); }

  private:
    struct Connection;
    struct Request;
    struct WorkerState;

    void acceptLoop();
    /** Join and drop the slots whose reader has finished. */
    void reapFinishedReaders();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void workerLoop(std::size_t workerIndex);
    void metricsLoop();
    void watchdogLoop();
    void samplerLoop();

    /** Parse + validate one request line; enqueue or answer error. */
    void handleRequestLine(const std::shared_ptr<Connection> &conn,
                           const std::string &line);
    /** Answer one batch popped from the queue at @p popNs. */
    void processBatch(std::vector<Request> &batch,
                      std::uint64_t popNs, WorkerState &state);

    /** /debug endpoint bodies, built on the scrape thread. */
    std::string debugRequestsBody() const;
    std::string debugInflightBody();
    std::string debugHealthBody();
    /** overloadHeld() over lastOverloadNs_ and the configured hold. */
    bool overloadRecent(std::uint64_t nowNs) const;
    std::string debugWindowsBody(const std::string &query);
    /** Blocking CPU-profile capture; sets @p status / @p contentType
     * per outcome (collapsed stacks = text/plain, busy = 503). */
    std::string debugProfileBody(const std::string &query,
                                 std::string &status,
                                 std::string &contentType);

    Classifier classifier_;
    const ServeConfig config_;
    std::size_t expectedFeatures_ = 0;

    TcpListener requestListener_;
    TcpListener metricsListener_;

    std::atomic<bool> running_{false};
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    /** Set after readers are joined: workers drain, then exit. */
    std::atomic<bool> stopWorkers_{false};
    /** Wakes the watchdog out of its poll sleep on stop(); the
     * watchdog waits on a loop-local mutex (nothing is guarded by
     * it, the sleep is the point). */
    util::CondVar watchdogCv_;
    /** Same interruptible-sleep pattern for the window sampler. */
    util::CondVar samplerCv_;
    /** processNanoseconds() of the last overload rejection; feeds
     * the overloadHoldMs readiness latch. 0 = never. */
    std::atomic<std::uint64_t> lastOverloadNs_{0};
    /** Last readiness published, for transition logging. */
    std::atomic<bool> wasReady_{true};

    std::thread acceptThread_;
    std::thread metricsThread_;
    std::thread watchdogThread_;
    std::thread samplerThread_;
    std::vector<std::thread> workerThreads_;

    /** One accepted connection and its reader thread. */
    struct ConnectionSlot
    {
        std::shared_ptr<Connection> conn;
        std::thread reader;
    };

    util::Mutex connectionsMutex_;
    /** Live connections; finished ones are reaped by the accept
     * loop, the rest by stop(). Joins happen outside the mutex
     * (joining under a lock a reader might want is the classic
     * shutdown deadlock). */
    std::vector<ConnectionSlot> connections_
        LOOKHD_GUARDED_BY(connectionsMutex_);

    util::Mutex queueMutex_;
    util::CondVar queueCv_;
    std::deque<Request> queue_ LOOKHD_GUARDED_BY(queueMutex_);

    std::vector<std::unique_ptr<WorkerState>> workerStates_;

    /** Constructed in start() when windows are compiled in and
     * config_.health.windowSeconds > 0; kept after stop() so the
     * final state stays inspectable. */
    std::unique_ptr<obs::HealthMonitor> health_;

    /** 1-in-N sampling position (config_.sampleEveryN). */
    std::atomic<std::uint64_t> sampleCounter_{0};
    /** Per-stage latency histograms, ReqStage-indexed; null in
     * -DLOOKHD_OBS=OFF builds (stage timing compiles out). */
    std::array<obs::LatencyHistogram *, obs::kReqStageCount>
        stageLatency_{};

    // Cached registry handles (resolved once; see obs/metrics.hpp).
    obs::Counter &requestsOk_;
    obs::Counter &requestsBad_;
    obs::Counter &requestsOverload_;
    obs::Counter &batches_;
    obs::Counter &multiBatches_;
    obs::Counter &batchedRequests_;
    obs::Counter &quantizedRequests_;
    obs::Counter &connectionsTotal_;
    obs::Counter &watchdogTrips_;
    obs::Counter &slowCaptured_;
    obs::Gauge &queueDepth_;
    obs::Gauge &inflight_;
    obs::Gauge &connectionsOpen_;
    obs::Gauge &batchLastSize_;
    obs::Gauge &healthReady_;
    obs::LatencyHistogram &requestLatency_;
};

} // namespace lookhd::serve

#endif // LOOKHD_SERVE_SERVER_HPP
