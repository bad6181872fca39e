/**
 * @file
 * Closed-loop client for lookhd_serve with a per-response oracle.
 */

#ifndef PERFBENCH_CLIENT_HPP
#define PERFBENCH_CLIENT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/**
 * A workload's request stream, rendered before timing starts:
 * line i is {"id":i,"features":[...]} with every feature printed as
 * %.17g, so the server parses back the exact doubles the in-process
 * reference scored.
 */
struct RequestSet
{
    std::vector<std::string> lines; ///< Newline-terminated.
    /** In-process Classifier::predict of row i (same model file,
     * same precision): what the server must answer. */
    std::vector<std::size_t> oracle;
    std::vector<std::size_t> labels; ///< Synthetic label of row i.
};

/** Connection pattern of one closed-loop run. */
struct LoadShape
{
    std::size_t connections = 2;
    /** Requests pipelined per round trip on one connection. */
    std::size_t burst = 1;
    /** Reconnect after this many requests; 0 keeps connections. */
    std::size_t reconnectEvery = 0;
};

/** Outcome counts and client round-trip times. */
struct LoadStats
{
    std::uint64_t attempted = 0;
    std::uint64_t answered = 0; ///< Responses with the oracle's pred.
    std::uint64_t failed = 0;   ///< attempted - answered.
    std::uint64_t mismatches = 0;     ///< pred != oracle.
    std::uint64_t errorResponses = 0; ///< {"error": ...} answers.
    std::uint64_t dropped = 0; ///< No answer: connection lost.
    std::uint64_t labelHits = 0; ///< Answers equal to the label.
    std::uint64_t connections = 0;
    /** Round trip per answered request, from sending its burst (or
     * from connect, for the first burst on a connection). */
    std::vector<double> latencyUs;
    /** When each latencyUs sample completed, seconds since the loop
     * started. */
    std::vector<double> doneS;
    double wallS = 0.0;

    void merge(const LoadStats &other);
};

/**
 * Drive 127.0.0.1:@p port in a closed loop from one thread per
 * connection until @p seconds have passed; each connection then
 * finishes its burst. Connection c sends rows c, c + C, c + 2C, ...
 * of @p set (C = shape.connections), cycling. Every response is
 * checked against set.oracle. @p corruptFirst flips the first
 * received prediction before the check (oracle self-test).
 * @p tick runs on the calling thread at the start and after each of
 * the @p windows equal parts of @p seconds.
 */
LoadStats runClosedLoop(std::uint16_t port, const RequestSet &set,
                        const LoadShape &shape, double seconds,
                        bool corruptFirst, std::size_t windows,
                        const std::function<void()> &tick);

/**
 * Drive 127.0.0.1:@p port as runClosedLoop does until each connection
 * has attempted @p perConnection requests (a multiple of shape.burst;
 * a failed connect counts as one attempt).
 */
LoadStats runRequests(std::uint16_t port, const RequestSet &set,
                      const LoadShape &shape, std::size_t perConnection);

/** One request (row 0) on a fresh connection, oracle-checked. */
LoadStats probeOnce(std::uint16_t port, const RequestSet &set);

} // namespace perfbench

#endif // PERFBENCH_CLIENT_HPP
