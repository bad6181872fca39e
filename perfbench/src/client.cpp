#include "client.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>

#include "common.hpp"
#include "serve/net.hpp"

namespace perfbench {

using lookhd::serve::NetError;
using lookhd::serve::TcpStream;

void
LoadStats::merge(const LoadStats &other)
{
    attempted += other.attempted;
    answered += other.answered;
    failed += other.failed;
    mismatches += other.mismatches;
    errorResponses += other.errorResponses;
    dropped += other.dropped;
    labelHits += other.labelHits;
    connections += other.connections;
    latencyUs.insert(latencyUs.end(), other.latencyUs.begin(),
                     other.latencyUs.end());
    doneS.insert(doneS.end(), other.doneS.begin(), other.doneS.end());
    wallS = std::max(wallS, other.wallS);
}

namespace {

/** A response that waits longer than this counts as dropped. */
constexpr time_t kReadTimeoutS = 10;

TcpStream
openConnection(std::uint16_t port)
{
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    const timeval timeout{kReadTimeoutS, 0};
    ::setsockopt(stream.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    return stream;
}

/** Unsigned integer after @p key in @p line, e.g. "\"pred\":". */
bool
numberAfter(const std::string &line, const char *key, std::size_t &out)
{
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        return false;
    const char *start = line.c_str() + at + std::strlen(key);
    char *end = nullptr;
    out = std::strtoull(start, &end, 10);
    return end != start;
}

/**
 * Check one response line against the oracle and count it in
 * @p out, removing its row from @p pending. Responses are tiny
 * ({"id":7,"trace":"...","pred":3}), so a key scan replaces a JSON
 * parse and the client stays cheap next to the server. @p corrupt,
 * when set, flips this prediction and is cleared (oracle self-test).
 * @return true iff the answer is the oracle's.
 */
bool
checkResponse(const std::string &line, const RequestSet &set,
              std::vector<std::size_t> &pending, bool &corrupt,
              LoadStats &out)
{
    std::size_t id = 0;
    std::size_t pred = 0;
    const bool ok = numberAfter(line, "\"id\":", id) &&
                    line.find("\"error\"") == std::string::npos &&
                    numberAfter(line, "\"pred\":", pred);
    const auto it = std::find(pending.begin(), pending.end(), id);
    if (!ok || it == pending.end()) {
        ++out.errorResponses;
        // An unknown id still stands for one of the pending answers.
        pending.erase(it != pending.end() ? it : pending.end() - 1);
        return false;
    }
    pending.erase(it);
    if (corrupt) {
        pred += 1;
        corrupt = false;
    }
    if (pred != set.oracle[id]) {
        ++out.mismatches;
        return false;
    }
    ++out.answered;
    out.labelHits += pred == set.labels[id];
    return true;
}

/** One connection's closed loop (see runClosedLoop), until @p stop
 * is set or, when @p limit > 0, @p limit requests have been attempted
 * (a failed connect counts as one, so a dead server ends the loop). */
void
driveConnection(std::size_t c, std::uint16_t port, const RequestSet &set,
                const LoadShape &shape, std::size_t limit,
                const std::atomic<bool> &stop, double loopStart,
                bool corrupt, LoadStats &out)
{
    const std::size_t n = set.lines.size();
    std::size_t seq = 0;
    std::size_t sinceConnect = 0;
    TcpStream stream;
    std::string burst;
    std::string line;
    std::vector<std::size_t> pending; // rows awaiting an answer
    while (!stop.load(std::memory_order_relaxed) &&
           (limit == 0 || out.attempted < limit)) {
        const double t0 = wallSeconds();
        if (!stream.valid() || (shape.reconnectEvery > 0 &&
                                sinceConnect >= shape.reconnectEvery)) {
            stream = TcpStream();
            sinceConnect = 0;
            try {
                stream = openConnection(port);
                ++out.connections;
            } catch (const NetError &) {
                ++out.attempted;
                ++out.dropped;
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
            }
        }
        burst.clear();
        pending.clear();
        for (std::size_t b = 0; b < shape.burst; ++b) {
            const std::size_t row = (seq++ * shape.connections + c) % n;
            pending.push_back(row);
            burst += set.lines[row];
        }
        out.attempted += pending.size();
        sinceConnect += pending.size();
        try {
            if (!stream.sendAll(burst))
                throw NetError("send failed");
            while (!pending.empty()) {
                if (!stream.readLine(line))
                    throw NetError("connection closed");
                const double done = wallSeconds();
                if (checkResponse(line, set, pending, corrupt, out)) {
                    out.latencyUs.push_back((done - t0) * 1e6);
                    out.doneS.push_back(done - loopStart);
                }
            }
        } catch (const NetError &) {
            out.dropped += pending.size();
            stream = TcpStream();
        }
    }
}

/**
 * Run driveConnection on one thread per connection, call @p wait on
 * this thread with the loop's start time, then stop and join them.
 */
template <typename Wait>
LoadStats
runConnections(std::uint16_t port, const RequestSet &set,
               const LoadShape &shape, std::size_t limit,
               bool corruptFirst, Wait &&wait)
{
    std::atomic<bool> stop{false};
    std::vector<LoadStats> perConnection(shape.connections);
    std::vector<std::thread> threads;
    const double start = wallSeconds();
    for (std::size_t c = 0; c < shape.connections; ++c)
        threads.emplace_back([&, c] {
            try {
                driveConnection(c, port, set, shape, limit, stop, start,
                                corruptFirst && c == 0, perConnection[c]);
            } catch (const std::exception &) {
                ++perConnection[c].dropped; // counted as a failure
                ++perConnection[c].attempted;
            }
        });
    // A throwing wait must not skip the joins below.
    std::exception_ptr waitError;
    try {
        wait(start);
    } catch (...) {
        waitError = std::current_exception();
    }
    // A limited run ends by itself; a timed or failed one ends here.
    if (limit == 0 || waitError)
        stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : threads)
        t.join();
    if (waitError)
        std::rethrow_exception(waitError);
    LoadStats total;
    for (const LoadStats &s : perConnection)
        total.merge(s);
    total.wallS = wallSeconds() - start;
    total.failed = total.attempted - total.answered;
    return total;
}

} // namespace

LoadStats
runClosedLoop(std::uint16_t port, const RequestSet &set,
              const LoadShape &shape, double seconds, bool corruptFirst,
              std::size_t windows, const std::function<void()> &tick)
{
    return runConnections(
        port, set, shape, 0, corruptFirst, [&](double start) {
            tick();
            for (std::size_t w = 1; w <= windows; ++w) {
                const double until =
                    start + seconds * static_cast<double>(w) /
                                static_cast<double>(windows);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(until - wallSeconds()));
                tick();
            }
        });
}

LoadStats
runRequests(std::uint16_t port, const RequestSet &set,
            const LoadShape &shape, std::size_t perConnection)
{
    return runConnections(port, set, shape, perConnection, false,
                          [](double) {});
}

LoadStats
probeOnce(std::uint16_t port, const RequestSet &set)
{
    LoadStats stats;
    const double start = wallSeconds();
    ++stats.attempted;
    std::vector<std::size_t> pending{0};
    bool corrupt = false;
    try {
        TcpStream stream = openConnection(port);
        ++stats.connections;
        std::string line;
        if (!stream.sendAll(set.lines[0]) || !stream.readLine(line))
            ++stats.dropped;
        else if (checkResponse(line, set, pending, corrupt, stats))
            stats.latencyUs.push_back((wallSeconds() - start) * 1e6);
    } catch (const NetError &) {
        ++stats.dropped;
    }
    stats.failed = stats.attempted - stats.answered;
    stats.wallS = wallSeconds() - start;
    return stats;
}

} // namespace perfbench
