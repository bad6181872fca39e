/**
 * @file
 * Clocks, /proc readers and order statistics shared by the
 * benchmark's source files.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

namespace perfbench {

/** Monotonic wall clock, seconds. */
inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time consumed so far by the calling thread, nanoseconds. */
inline std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/**
 * utime + stime of process @p pid from /proc/<pid>/stat, in
 * microseconds (clock-tick resolution). @throws on a vanished pid.
 */
inline double
procCpuUs(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name, which may itself
    // hold spaces: state is field 3, utime 14, stime 15.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        throw std::runtime_error("cannot read /proc/" +
                                 std::to_string(pid) + "/stat");
    std::istringstream fields(text.substr(close + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field)
        fields >> skip;
    unsigned long long utime = 0, stime = 0;
    fields >> utime >> stime;
    if (!fields)
        throw std::runtime_error("short /proc/<pid>/stat");
    return static_cast<double>(utime + stime) * 1e6 /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** VmHWM (peak resident set) of @p pid, or of this process when
 * @p pid is 0, in MiB. @throws when the field is missing. */
inline double
peakRssMb(int pid = 0)
{
    std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) +
                                    "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

/**
 * Jiffies of the whole machine from /proc/stat's "cpu" line: all of
 * them, and those the hypervisor stole (runnable, not running).
 */
struct MachineTicks
{
    unsigned long long total = 0;
    unsigned long long steal = 0;
};

inline MachineTicks
machineTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    MachineTicks t;
    unsigned long long v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

/** Share of machine CPU time stolen between @p a and @p b, in %. */
inline double
stealPercent(const MachineTicks &a, const MachineTicks &b)
{
    const double total = static_cast<double>(b.total - a.total);
    return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) / total
                     : 0.0;
}

/** Linear-interpolated quantile @p q in [0,1] of @p v (copied). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
