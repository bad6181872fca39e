/**
 * @file
 * perfbench: the LookHD end-to-end benchmark (README.md).
 *
 *   perfbench --workload speech_burst|physical_churn
 *                    --seed N --seconds S --trace 0|1
 *                    --serve-bin PATH --work-dir DIR [--corrupt-pred]
 *
 * A workload trains its model in-process, saves it, starts the
 * shipped lookhd_serve on it as a child process and drives it in a
 * closed loop from this process. Every served prediction is checked
 * against in-process Classifier::predict on the same model file.
 * --trace 1 replaces the end-to-end metrics with the per-layer
 * ledger (replay.hpp) and the training breakdown.
 *
 * Stdout: an {"env": ...} line, the ledger (trace runs), and last
 * the result line {"correct","attempted","failed","metrics"}. Exits
 * 1 when any output is wrong, 2 on a usage or set-up error.
 * --corrupt-pred flips the first checked prediction, so the oracle
 * must fail the run (self-test).
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "client.hpp"
#include "common.hpp"
#include "data/apps.hpp"
#include "data/synthetic.hpp"
#include "hdc/kernels.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/serialize.hpp"
#include "replay.hpp"
#include "server_process.hpp"
#include "serve/jsonin.hpp"

namespace perfbench {
namespace {

using lookhd::Classifier;
using lookhd::ClassifierConfig;
using lookhd::Precision;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBin;
    std::string workDir;
    bool corruptPred = false;
};

struct Workload
{
    const char *name;
    const char *app; ///< Synthetic app whose shape and data it uses.
    const char *precision; ///< Server --precision.
    LoadShape shape;
    /**
     * Requests each connection sends in the warm-up before the
     * measured window (not timed, counted in attempted/failed).
     * A count, not a time, so the server has answered the same
     * requests on the same number of connections when peak_rss_mb
     * is read, however fast it is.
     */
    std::size_t warmupRequests;
};

// Why these two: README.md. physical_churn's warm-up opens 2 x 8192 /
// 16 = 1024 connections.
const Workload kWorkloads[] = {
    {"speech_burst", "SPEECH", "auto", {2, 8, 0}, 1024},
    {"physical_churn", "PHYSICAL", "float64", {2, 1, 16}, 8192},
};

/** Server starts per untraced serve run; setup_s is their median. */
constexpr std::size_t kSetupSpawns = 21;
/** Replay passes over the request stream in a traced run. */
constexpr std::size_t kReplayPasses = 3;
/**
 * Length of the windows a measured serve loop is cut into. Rates,
 * latency quantiles and CPU per request are medians over windows,
 * so a stall or a burst of host noise in one window moves none of
 * them.
 */
constexpr double kWindowS = 0.5;
/**
 * Windows in which the hypervisor stole more than this share of the
 * machine's CPU time (percentage points) above the run's least-stolen
 * window are left out of the medians. A stolen stretch pauses server
 * and client alike; the time it adds belongs to the host, not to the
 * program. On a calm host every window is kept.
 */
constexpr double kStealSlackPct = 1.0;

/** Metrics in emission order, rendered with all their digits. */
class Report
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            throw std::runtime_error("metric " + name + " is not finite");
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
    }

    /** Print the result line; @return the process exit code. */
    int finish(bool correct, std::uint64_t attempted,
               std::uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                    correct ? "true" : "false", attempted, failed,
                    body_.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    }

  private:
    std::string body_;
};

/** Everything a workload's run is built from, derived from the seed. */
struct Setup
{
    const Workload &workload;
    const lookhd::data::AppSpec &app;
    lookhd::data::TrainTest data;
    ClassifierConfig config;
    std::string runDir;
    std::string modelPath;
};

Setup
makeSetup(const Options &opts, const Workload &w)
{
    const lookhd::data::AppSpec &app = lookhd::data::appByName(w.app);
    ClassifierConfig config; // paper defaults: D = 2000, 10 epochs
    config.quantLevels = app.lookhdQ;
    config.chunkSize = app.chunkSize;
    config.seed = opts.seed;
    const std::string runDir =
        opts.workDir + "/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(runDir);
    return Setup{w,
                 app,
                 lookhd::data::makeTrainTest(app.synthetic(opts.seed),
                                             app.trainCount,
                                             app.testCount),
                 config,
                 runDir,
                 runDir + "/model.bin"};
}

/** Fit + quantize (the trained file carries int8/binary forms). */
double
fitModel(Classifier &clf, const lookhd::data::Dataset &train)
{
    const double start = wallSeconds();
    clf.fit(train);
    clf.quantize();
    return wallSeconds() - start;
}

/** The precision lookhd_serve resolves @p name to for @p clf. */
Precision
resolvePrecision(const std::string &name, const Classifier &clf)
{
    if (name == "auto")
        return clf.hasQuantized() ? Precision::kInt8
                                  : Precision::kFloat64;
    const auto p = lookhd::precisionFromName(name);
    if (!p)
        throw std::runtime_error("unknown precision " + name);
    return *p;
}

/** Render the test split as request lines and predict each in
 * process with @p reference (the served file, served precision). */
RequestSet
renderRequests(const Classifier &reference,
               const lookhd::data::Dataset &test)
{
    RequestSet set;
    for (std::size_t i = 0; i < test.size(); ++i) {
        std::string line = "{\"id\":" + std::to_string(i) +
                           ",\"features\":[";
        char buf[32];
        for (const double v : test.row(i)) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            if (line.back() != '[')
                line += ',';
            line += buf;
        }
        line += "]}\n";
        set.lines.push_back(std::move(line));
        set.oracle.push_back(reference.predict(test.row(i)));
        set.labels.push_back(test.label(i));
    }
    return set;
}

std::vector<std::string>
serverArgs(const std::string &model, const std::string &precision)
{
    // Server defaults otherwise; --max-seconds only bounds a server
    // orphaned by a crashed benchmark process.
    return {"--model", model,         "--port",        "0",
            "--metrics-port", "0",    "--precision",   precision,
            "--max-seconds",  "170"};
}

/** Medians over the windows of one measured closed loop. */
struct Windowed
{
    double qps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double cpuUsPerReq = 0.0; ///< Server CPU per answered request.
    std::size_t windows = 0;
    std::size_t kept = 0;       ///< Windows the medians are taken over.
    std::size_t minSamples = 0; ///< Latency samples in the thinnest kept.
    double stealPct = 0.0; ///< Machine CPU stolen over all windows.
};

/** A window boundary: the server's CPU so far and the machine's. */
struct Boundary
{
    double serverCpuUs = 0.0;
    MachineTicks machine;
};

/** Cut @p m into the windows delimited by @p bounds over @p seconds
 * and take medians over those within kStealSlackPct of the least
 * steal. */
Windowed
windowed(const LoadStats &m, const std::vector<Boundary> &bounds,
         double seconds)
{
    const std::size_t count = bounds.size() - 1;
    const double len = seconds / static_cast<double>(count);
    std::vector<std::vector<double>> latency(count);
    for (std::size_t i = 0; i < m.latencyUs.size(); ++i) {
        const auto w = static_cast<std::size_t>(m.doneS[i] / len);
        if (w < count)
            latency[w].push_back(m.latencyUs[i]);
    }

    std::vector<double> steal(count);
    for (std::size_t w = 0; w < count; ++w)
        steal[w] = stealPercent(bounds[w].machine, bounds[w + 1].machine);
    const double stealCut =
        *std::min_element(steal.begin(), steal.end()) + kStealSlackPct;

    Windowed out;
    out.windows = count;
    out.minSamples = m.latencyUs.size();
    out.stealPct =
        stealPercent(bounds.front().machine, bounds.back().machine);
    std::vector<double> qps, p50, p99, cpu;
    for (std::size_t w = 0; w < count; ++w) {
        if (steal[w] > stealCut)
            continue;
        ++out.kept;
        const auto n = static_cast<double>(latency[w].size());
        out.minSamples = std::min(out.minSamples, latency[w].size());
        qps.push_back(n / len);
        if (latency[w].empty())
            continue;
        p50.push_back(quantile(latency[w], 0.50));
        p99.push_back(quantile(latency[w], 0.99));
        cpu.push_back(
            (bounds[w + 1].serverCpuUs - bounds[w].serverCpuUs) / n);
    }
    if (cpu.empty())
        throw std::runtime_error("no request answered in any window");
    out.qps = median(qps);
    out.p50Us = median(p50);
    out.p99Us = median(p99);
    out.cpuUsPerReq = median(cpu);
    return out;
}

/** One serve phase against the shipped binary. */
struct ServeOutcome
{
    LoadStats measured;
    LoadStats other; ///< Start-up probes and warm-up.
    Windowed window;
    std::vector<double> setupS;
    double peakRssMb = 0.0; ///< Server VmHWM after the warm-up.
    /** /metrics.json after the warm-up and at the end, if asked. */
    std::string warmMetricsJson;
    std::string endMetricsJson;
    bool cleanExits = true;
};

ServeOutcome
servePhase(const Options &opts, const std::string &model,
           const RequestSet &set, const Workload &w, std::size_t spawns,
           bool scrape)
{
    ServeOutcome out;
    const std::vector<std::string> args = serverArgs(model, w.precision);
    std::unique_ptr<ServerProcess> server;
    for (std::size_t i = 0; i < spawns; ++i) {
        if (server)
            out.cleanExits &= server->stop();
        const double start = wallSeconds();
        server = std::make_unique<ServerProcess>(opts.serveBin, args);
        const LoadStats probe = probeOnce(server->port(), set);
        out.setupS.push_back(wallSeconds() - start);
        out.other.merge(probe);
    }
    const int pid = server->pid();
    out.other.merge(
        runRequests(server->port(), set, w.shape, w.warmupRequests));
    out.peakRssMb = peakRssMb(pid);
    if (scrape)
        out.warmMetricsJson =
            httpGet(server->metricsPort(), "/metrics.json");
    std::vector<Boundary> bounds;
    out.measured = runClosedLoop(
        server->port(), set, w.shape, opts.seconds, opts.corruptPred,
        std::max<std::size_t>(1, std::lround(opts.seconds / kWindowS)),
        [&] { bounds.push_back({procCpuUs(pid), machineTicks()}); });
    out.window = windowed(out.measured, bounds, opts.seconds);
    if (scrape)
        out.endMetricsJson = httpGet(server->metricsPort(), "/metrics.json");
    out.cleanExits &= server->stop();
    return out;
}

void
printEnv(const Options &opts, const Setup &s, const std::string &flags)
{
    std::printf(
        "{\"env\": {\"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
        "\"kernel_dispatch\": \"%s\", \"build_type\": \"%s\", "
        "\"app\": \"%s\", \"dim\": %zu, \"q\": %zu, \"r\": %zu, "
        "\"server_flags\": \"%s\"}}\n",
        s.workload.name, opts.seed, opts.seconds, opts.trace ? 1 : 0,
        std::thread::hardware_concurrency(),
        lookhd::hdc::kernels::implName(
            lookhd::hdc::kernels::activeImpl()),
        PERFBENCH_BUILD_TYPE, s.app.name.c_str(),
        static_cast<std::size_t>(s.config.dim), s.config.quantLevels,
        s.config.chunkSize, flags.c_str());
}

std::string
flagText(const std::vector<std::string> &args)
{
    std::string text;
    for (const std::string &a : args)
        text += (text.empty() ? "" : " ") + a;
    return text;
}

/** Counters, gauges and stage quantiles from /metrics.json. */
class Scrape
{
  public:
    explicit Scrape(const std::string &json)
    {
        std::string error;
        doc_ = lookhd::serve::parseJson(json, error);
        if (!doc_ || !doc_->find("registry"))
            throw std::runtime_error("bad /metrics.json: " + error);
    }

    double get(const char *section, const std::string &name,
               const char *field = nullptr) const
    {
        const lookhd::serve::JsonValue *v =
            doc_->find("registry")->find(section);
        v = v ? v->find(name) : nullptr;
        if (v && field)
            v = v->find(field);
        if (!v || !v->isNumber())
            throw std::runtime_error("/metrics.json lacks " + name);
        return v->number;
    }

  private:
    std::unique_ptr<lookhd::serve::JsonValue> doc_;
};

int
runServe(const Options &opts, Setup &s)
{
    Classifier clf(s.config);
    fitModel(clf, s.data.train);
    lookhd::saveClassifierFile(clf, s.modelPath);
    Classifier reference = lookhd::loadClassifierFile(s.modelPath);
    reference.setServingPrecision(
        resolvePrecision(s.workload.precision, reference));
    const RequestSet set = renderRequests(reference, s.data.test);
    printEnv(opts, s,
             flagText(serverArgs("<model>", s.workload.precision)));

    const ServeOutcome o =
        servePhase(opts, s.modelPath, set, s.workload, kSetupSpawns, false);
    const LoadStats &m = o.measured;
    std::fprintf(stderr,
                 "%s: %" PRIu64 " answered in %.2f s over %" PRIu64
                 " connections; medians over %zu of %zu windows, each with"
                 " >= %zu latency samples; p99=%.1f us; mismatches=%" PRIu64
                 " errors=%" PRIu64 " dropped=%" PRIu64
                 " error_rate=%.6f steal=%.1f%%\n",
                 s.workload.name, m.answered, m.wallS, m.connections,
                 o.window.kept, o.window.windows, o.window.minSamples,
                 o.window.p99Us,
                 m.mismatches,
                 m.errorResponses, m.dropped,
                 static_cast<double>(m.failed + o.other.failed) /
                     static_cast<double>(m.attempted + o.other.attempted),
                 o.window.stealPct);

    Report r;
    r.add("qps", o.window.qps, "1/s");
    r.add("latency_p50_us", o.window.p50Us, "us");
    r.add("server_cpu_us_per_req", o.window.cpuUsPerReq, "us");
    r.add("accuracy",
          static_cast<double>(m.labelHits) /
              static_cast<double>(std::max<std::uint64_t>(m.answered, 1)),
          "fraction");
    r.add("peak_rss_mb", o.peakRssMb, "MB");
    r.add("setup_s", median(o.setupS), "s");
    const std::uint64_t failed =
        m.failed + o.other.failed + (o.cleanExits ? 0 : 1);
    return r.finish(failed == 0, m.attempted + o.other.attempted,
                    failed);
}

/**
 * Traced run: fit, serve, scrape, replay the stream through the
 * layers, print the ledger and the training breakdown.
 */
int
runTraced(const Options &opts, Setup &s)
{
    Classifier clf(s.config);
    const double fitS = fitModel(clf, s.data.train);
    lookhd::saveClassifierFile(clf, s.modelPath);
    Classifier reference = lookhd::loadClassifierFile(s.modelPath);
    const Precision p = resolvePrecision(s.workload.precision, reference);
    reference.setServingPrecision(p);
    const RequestSet set = renderRequests(reference, s.data.test);
    printEnv(opts, s,
             flagText(serverArgs("<model>", s.workload.precision)));

    const ServeOutcome o =
        servePhase(opts, s.modelPath, set, s.workload, 1, true);
    const Scrape warm(o.warmMetricsJson);
    const Scrape scrape(o.endMetricsJson);
    const double batchMean = scrape.get("counters", "serve.requests") /
                             scrape.get("counters", "serve.batches");
    const std::size_t batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(batchMean)));
    const LayerCosts costs =
        replayLayers(reference, set, batch, kReplayPasses);
    const TrainCosts tc = trainBreakdown(s.config, s.data.train, clf,
                                         s.runDir + "/breakdown.bin");
    const double epochS =
        (fitS - tc.countS) /
        static_cast<double>(std::max<std::size_t>(s.config.retrainEpochs, 1));
    const double residual = o.window.cpuUsPerReq - costs.sum();

    const lookhd::LookupEncoder &enc = reference.encoder();
    const double dim = static_cast<double>(enc.dim());
    const double k =
        static_cast<double>(s.data.train.numClasses());
    const double scoreElem = p == Precision::kInt8 ? 1.0 : 8.0;

    std::printf("ledger %s (%s, server batch mean %.2f, replayed at %zu):\n"
                "  serve.parse        %10.2f us/req\n"
                "  lookhd.encode      %10.2f us/req  (quant.addr %.2f "
                "inside)\n"
                "  lookhd.score       %10.2f us/req\n"
                "  serve.serialize    %10.2f us/req\n"
                "  layers sum         %10.2f us/req\n"
                "  server cpu         %10.2f us/req\n"
                "  residual           %10.2f us/req (%.1f%% of server "
                "cpu: net, threads, queue)\n"
                "  cross-check: lookhd.predict_batch %.2f us/req vs "
                "encode + score %.2f\n",
                s.workload.name, lookhd::precisionName(p), batchMean,
                batch, costs.parseUs, costs.encodeUs, costs.addrUs,
                costs.scoreUs, costs.serializeUs, costs.sum(),
                o.window.cpuUsPerReq, residual,
                100.0 * residual / o.window.cpuUsPerReq, costs.predictBatchUs,
                costs.encodeUs + costs.scoreUs);
    std::printf("train %s: fit %.3f s = count %.3f s + %zu epochs x "
                "%.3f s; encode %.2f us/row; save %.2f ms; load %.2f "
                "ms\n",
                s.workload.name, fitS, tc.countS, s.config.retrainEpochs,
                epochS, tc.encodeUsPerRow, tc.saveMs, tc.loadMs);

    Report r;
    r.add("serve.parse_us_per_req", costs.parseUs, "us");
    r.add("quant.addr_us_per_req", costs.addrUs, "us");
    r.add("lookhd.encode_us_per_req", costs.encodeUs, "us");
    r.add("lookhd.score_us_per_req", costs.scoreUs, "us");
    r.add("lookhd.predict_batch_us_per_req", costs.predictBatchUs, "us");
    r.add("serve.serialize_us_per_req", costs.serializeUs, "us");
    r.add("serve.ledger_sum_us_per_req", costs.sum(), "us");
    r.add("serve.residual_us_per_req", residual, "us");
    r.add("serve.latency_p99_us", o.window.p99Us, "us");
    r.add("serve.batch_size_mean", batchMean, "count");
    r.add("serve.queue_wait_us_p50",
          scrape.get("latency", "serve.stage{stage=\"queue\"}", "p50_ns") /
              1e3,
          "us");
    r.add("serve.batch_form_us_p50",
          scrape.get("latency", "serve.stage{stage=\"batch_form\"}",
                     "p50_ns") /
              1e3,
          "us");
    // After the fixed-count warm-up, so on physical_churn the leak
    // shows per connection, whatever the throughput.
    r.add("serve.connections_warm",
          warm.get("counters", "serve.connections"), "count");
    r.add("serve.open_fds_warm", warm.get("gauges", "process.open_fds"),
          "count");
    r.add("lookhd.table_bytes",
          static_cast<double>(enc.materializedBytes()), "bytes");
    r.add("hdc.encode_bytes_per_req",
          static_cast<double>(enc.chunks().numChunks()) * dim *
              sizeof(lookhd::hdc::IntHv::value_type),
          "bytes");
    r.add("hdc.score_bytes_per_req", k * dim * scoreElem, "bytes");
    r.add("train.fit_s", fitS, "s");
    r.add("train.encode_us_per_row", tc.encodeUsPerRow, "us");
    r.add("train.count_s", tc.countS, "s");
    r.add("train.retrain_s_per_epoch", epochS, "s");
    r.add("train.save_ms", tc.saveMs, "ms");
    r.add("train.load_ms", tc.loadMs, "ms");
    const LoadStats &m = o.measured;
    const std::uint64_t failed =
        m.failed + o.other.failed + (o.cleanExits ? 0 : 1);
    return r.finish(failed == 0, m.attempted + o.other.attempted,
                    failed);
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-pred") {
            opts.corruptPred = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = std::stoull(value);
        else if (flag == "--seconds")
            opts.seconds = std::stod(value);
        else if (flag == "--trace")
            opts.trace = value == "1";
        else if (flag == "--serve-bin")
            opts.serveBin = value;
        else if (flag == "--work-dir")
            opts.workDir = value;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (opts.serveBin.empty() || opts.workDir.empty() ||
        !(opts.seconds > 0.0))
        throw std::runtime_error(
            "need --workload, --seconds > 0, --serve-bin, --work-dir");
    return opts;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string runDir;
    int rc = 2;
    try {
        const Options opts = parseOptions(argc, argv);
        const Workload *w = nullptr;
        for (const Workload &candidate : kWorkloads)
            if (opts.workload == candidate.name)
                w = &candidate;
        if (w == nullptr)
            throw std::runtime_error("unknown workload '" + opts.workload +
                                     "'");
        Setup s = makeSetup(opts, *w);
        runDir = s.runDir;
        rc = opts.trace ? runTraced(opts, s) : runServe(opts, s);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        rc = 2;
    }
    if (!runDir.empty()) {
        std::error_code ignored;
        std::filesystem::remove_all(runDir, ignored);
    }
    return rc;
}
