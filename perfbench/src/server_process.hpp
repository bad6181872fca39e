/**
 * @file
 * The shipped lookhd_serve binary as a child process.
 */

#ifndef PERFBENCH_SERVER_PROCESS_HPP
#define PERFBENCH_SERVER_PROCESS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Spawns lookhd_serve with @p args (which must ask for port 0 on
 * both ports), reads the two announced ports from its stdout, and
 * stops it with SIGTERM on stop() or destruction.
 */
class ServerProcess
{
  public:
    /** @throws std::runtime_error when the server does not announce
     * its ports within 60 s. */
    ServerProcess(const std::string &binary,
                  const std::vector<std::string> &args);
    ~ServerProcess();
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    int pid() const { return pid_; }
    std::uint16_t port() const { return port_; }
    std::uint16_t metricsPort() const { return metricsPort_; }

    /**
     * SIGTERM once the server catches it (waiting up to 5 s for its
     * handler), then wait for the graceful drain (SIGKILL after
     * 30 s). Idempotent. @return true iff the server exited with
     * status 0.
     */
    bool stop();

  private:
    int pid_ = -1;
    int stdoutFd_ = -1;
    bool cleanExit_ = false;
    std::uint16_t port_ = 0;
    std::uint16_t metricsPort_ = 0;
};

/** Body of an HTTP/1.0 GET of @p path on 127.0.0.1:@p port.
 * @throws on connection failure or a non-200 status. */
std::string httpGet(std::uint16_t port, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SERVER_PROCESS_HPP
