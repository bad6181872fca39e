#include "server_process.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "serve/net.hpp"

extern char **environ;

namespace perfbench {

namespace {

/** Port announced on a "lookhd_serve: <what> 127.0.0.1:PORT" line. */
bool
announcedPort(const std::string &line, const std::string &what,
              std::uint16_t &port)
{
    if (line.find(what) == std::string::npos)
        return false;
    const std::size_t colon = line.rfind(':');
    if (colon == std::string::npos)
        return false;
    port = static_cast<std::uint16_t>(
        std::stoul(line.substr(colon + 1)));
    return true;
}

/** Whether process @p pid has a handler installed for @p sig, from
 * the SigCgt mask in /proc/<pid>/status. */
bool
catchesSignal(int pid, int sig)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("SigCgt:", 0) == 0)
            return (std::stoull(line.substr(7), nullptr, 16) >>
                    (sig - 1)) &
                   1;
    }
    return false;
}

} // namespace

ServerProcess::ServerProcess(const std::string &binary,
                             const std::vector<std::string> &args)
{
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary.c_str()));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    stdoutFd_ = fds[0];
    if (rc != 0) {
        pid_ = -1;
        ::close(stdoutFd_);
        throw std::runtime_error("cannot spawn " + binary + ": " +
                                 std::strerror(rc));
    }

    // Read the two announcement lines; everything before them is
    // ignored, and the server writes nothing else until shutdown.
    std::string pending;
    const double deadline = wallSeconds() + 60.0;
    while (port_ == 0 || metricsPort_ == 0) {
        const double left = deadline - wallSeconds();
        pollfd p{stdoutFd_, POLLIN, 0};
        const int ready =
            left <= 0.0
                ? 0
                : ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0) {
            stop();
            throw std::runtime_error("lookhd_serve announced no ports");
        }
        char buf[512];
        const ssize_t n = ::read(stdoutFd_, buf, sizeof(buf));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            stop();
            throw std::runtime_error("lookhd_serve exited at start");
        }
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
            const std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            if (!announcedPort(line, "listening on", port_))
                announcedPort(line, "metrics on", metricsPort_);
        }
    }
}

ServerProcess::~ServerProcess()
{
    stop();
}

bool
ServerProcess::stop()
{
    if (pid_ > 0) {
        // lookhd_serve announces its ports before it installs its
        // SIGTERM handler, and a SIGTERM in between kills it. Give it
        // time to install the handler, so that only a server that
        // fails to drain counts as an unclean exit.
        const double handlerDeadline = wallSeconds() + 5.0;
        while (!catchesSignal(pid_, SIGTERM) &&
               wallSeconds() < handlerDeadline)
            ::usleep(1000);
        ::kill(pid_, SIGTERM);
        int status = 0;
        const double deadline = wallSeconds() + 30.0;
        pid_t done = 0;
        while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
               wallSeconds() < deadline)
            ::usleep(2000);
        if (done == 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
        }
        cleanExit_ =
            done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
    }
    if (stdoutFd_ >= 0) {
        ::close(stdoutFd_);
        stdoutFd_ = -1;
    }
    return cleanExit_;
}

std::string
httpGet(std::uint16_t port, const std::string &path)
{
    lookhd::serve::TcpStream stream =
        lookhd::serve::TcpStream::connect("127.0.0.1", port);
    const timeval timeout{10, 0}; // a stuck scrape fails the run
    ::setsockopt(stream.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    if (!stream.sendAll("GET " + path + " HTTP/1.0\r\n\r\n"))
        throw std::runtime_error("GET " + path + ": send failed");
    std::string response, line;
    while (stream.readLine(line))
        response += line + "\n";
    if (response.rfind("HTTP/1.0 200", 0) != 0 &&
        response.rfind("HTTP/1.1 200", 0) != 0)
        throw std::runtime_error("GET " + path + ": " +
                                 response.substr(0, 40));
    const std::size_t body = response.find("\n\n");
    return body == std::string::npos ? std::string()
                                     : response.substr(body + 2);
}

} // namespace perfbench
