/**
 * @file
 * Shared --profile-out / --profile-hz plumbing for the CLI tools.
 *
 * A tool that opts in starts one continuous profiler session before
 * its workload and writes the collected profile on exit as collapsed
 * stacks (flamegraph.pl input). Both helpers are no-ops when the
 * path is empty or the profiler is compiled out (start() refuses).
 */

#ifndef LOOKHD_TOOLS_PROFILE_CLI_HPP
#define LOOKHD_TOOLS_PROFILE_CLI_HPP

#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/profiler.hpp"

namespace lookhd::tools {

/** Start a continuous profiling session for --profile-out. */
inline void
startProfile(const std::string &path, long hz)
{
    if (path.empty())
        return;
    obs::Profiler::registerCurrentThread();
    obs::ProfileOptions opts;
    if (hz > 0)
        opts.hz = static_cast<unsigned>(hz);
    obs::Profiler::global().start(opts);
}

/** Stop the session and write the profile to @p path. */
inline void
writeProfile(const std::string &path)
{
    if (path.empty())
        return;
    obs::Profiler &profiler = obs::Profiler::global();
    profiler.stop();
    const obs::ProfileReport report = profiler.collect();
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << report.collapsed();
}

} // namespace lookhd::tools

#endif // LOOKHD_TOOLS_PROFILE_CLI_HPP
