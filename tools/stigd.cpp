// stigd — multi-session serving daemon for the stigmergy library.
//
// Hosts many concurrent, independent ChatNetwork sessions sharded across a
// par::BatchRunner worker pool, and serves them over the compact framed
// wire protocol (src/serve/wire.hpp) on a local (AF_UNIX) stream socket:
//
//   stigd --socket /tmp/stigd.sock --jobs 4 --report stigd_report.json
//
// Clients (see stigload, or any program speaking the protocol in
// docs/SERVING.md) open sessions, queue messages into bounded injection
// queues (BUSY on overflow — the daemon never sheds load silently), step
// simulated time, and poll deliveries. Requests that arrive in one poll
// cycle are applied as a batch: grouped by session shard, fanned across
// the workers when at least two shards have enough work to pay for the
// hand-off (on the poll thread otherwise), answered in arrival order per
// connection.
//
// SIGTERM/SIGINT shut down cleanly: connections close, the socket file is
// removed, and --report writes the merged metrics snapshot — per-verb
// request counters and latency histograms (serve.lat.<verb>_ns) plus the
// deterministic outcome counters.
//
// Exit codes: 0 clean shutdown; 2 usage error; 3 runtime/socket error.
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"

namespace {

using namespace stig;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Args {
  std::string socket_path = "/tmp/stigd.sock";
  std::size_t jobs = 0;
  std::size_t shards = 8;
  std::size_t queue_bound = 16;
  std::size_t max_robots = 32;
  std::size_t max_sessions = 65536;
  std::string report;
  bool help = false;
};

void print_help() {
  std::cout <<
      "stigd — multi-session ChatNetwork serving daemon\n\n"
      "  --socket PATH     AF_UNIX listen socket (default /tmp/stigd.sock)\n"
      "  --jobs N          worker threads (0 = all cores; default 0)\n"
      "  --shards K        session shards (default 8)\n"
      "  --queue-bound Q   per-session injection-queue depth before BUSY\n"
      "                    (default 16)\n"
      "  --max-robots N    robots per session cap (default 32)\n"
      "  --max-sessions N  live sessions cap, BUSY beyond (default 65536)\n"
      "  --report FILE     write the merged metrics snapshot as JSON on\n"
      "                    shutdown (\"-\" = stdout)\n\n"
      "wire protocol: varint(len) | body | crc8(body) frames over the\n"
      "socket; verbs open_session / send_message / step / poll_delivery /\n"
      "get_report / close_session (byte layouts in docs/SERVING.md).\n"
      "SIGTERM or SIGINT shuts down cleanly.\n\n"
      "exit codes: 0 clean shutdown; 2 usage error; 3 runtime error\n";
}

bool parse(int argc, char** argv, Args& a) {
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto num = [&](auto& out) {
      const char* v = need(i);
      if (!v) return false;
      out = static_cast<std::remove_reference_t<decltype(out)>>(
          std::strtoull(v, nullptr, 10));
      return true;
    };
    if (flag == "--help" || flag == "-h") {
      a.help = true;
    } else if (flag == "--socket") {
      const char* v = need(i);
      if (!v) return false;
      a.socket_path = v;
    } else if (flag == "--jobs") {
      if (!num(a.jobs)) return false;
    } else if (flag == "--shards") {
      if (!num(a.shards)) return false;
    } else if (flag == "--queue-bound") {
      if (!num(a.queue_bound)) return false;
    } else if (flag == "--max-robots") {
      if (!num(a.max_robots)) return false;
    } else if (flag == "--max-sessions") {
      if (!num(a.max_sessions)) return false;
    } else if (flag == "--report") {
      const char* v = need(i);
      if (!v) return false;
      a.report = v;
    } else {
      std::cerr << "unknown flag: " << flag << " (see --help)\n";
      return false;
    }
  }
  return true;
}

/// Blocking write of the whole buffer (local socket; EPIPE = peer gone).
bool write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct Connection {
  int fd = -1;
  serve::WireParser parser;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return kExitUsage;
  if (args.help) {
    print_help();
    return kExitOk;
  }
  if (args.shards == 0) {
    std::cerr << "--shards must be positive\n";
    return kExitUsage;
  }
  if (args.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::cerr << "--socket path too long for AF_UNIX\n";
    return kExitUsage;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  serve::ShardedOptions sopt;
  sopt.shards = args.shards;
  sopt.jobs = args.jobs;
  sopt.limits.queue_bound = args.queue_bound;
  sopt.limits.max_robots = args.max_robots;
  sopt.limits.max_sessions = args.max_sessions;
  serve::ShardedRegistry registry(sopt);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "error: socket: " << std::strerror(errno) << "\n";
    return kExitRuntime;
  }
  ::unlink(args.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, args.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 64) < 0) {
    std::cerr << "error: bind/listen " << args.socket_path << ": "
              << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return kExitRuntime;
  }
  std::cerr << "stigd: listening on " << args.socket_path << " ("
            << registry.shards() << " shards, " << registry.jobs()
            << " workers)\n";

  std::map<int, Connection> conns;
  std::uint64_t served = 0;
  while (g_stop == 0) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    for (const auto& [fd, conn] : conns) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::cerr << "error: poll: " << std::strerror(errno) << "\n";
      break;
    }
    if (ready == 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) conns[fd] = Connection{fd, serve::WireParser()};
    }

    // Drain readable connections into their parsers, collecting the
    // cycle's requests in arrival order. Malformed-but-framed bodies get
    // an immediate error reply; corrupted framing resyncs in the parser.
    std::vector<std::pair<int, serve::Request>> batch;
    std::vector<std::pair<int, serve::Response>> rejects;
    std::vector<int> closed;
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = conns[fds[i].fd];
      std::uint8_t buf[65536];
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        closed.push_back(conn.fd);
        continue;
      }
      conn.parser.feed(std::span<const std::uint8_t>(
          buf, static_cast<std::size_t>(n)));
      for (const std::vector<std::uint8_t>& body :
           conn.parser.take_frames()) {
        if (auto req = serve::decode_request(body)) {
          batch.emplace_back(conn.fd, std::move(*req));
        } else {
          serve::Response res;
          res.status = serve::Status::error;
          res.detail = "malformed request body";
          rejects.emplace_back(conn.fd, std::move(res));
        }
      }
    }

    if (!batch.empty()) {
      std::vector<serve::Request> requests;
      requests.reserve(batch.size());
      for (const auto& [fd, req] : batch) requests.push_back(req);
      const std::vector<serve::Response> responses =
          registry.apply_batch(requests);
      served += responses.size();
      for (std::size_t i = 0; i < responses.size(); ++i) {
        const int fd = batch[i].first;
        if (conns.contains(fd) &&
            !write_all(fd, serve::encode_response(responses[i]))) {
          closed.push_back(fd);
        }
      }
    }
    for (const auto& [fd, res] : rejects) {
      if (conns.contains(fd) &&
          !write_all(fd, serve::encode_response(res))) {
        closed.push_back(fd);
      }
    }
    for (const int fd : closed) {
      if (conns.erase(fd) != 0) ::close(fd);
    }
  }

  for (const auto& [fd, conn] : conns) ::close(fd);
  ::close(listen_fd);
  ::unlink(args.socket_path.c_str());

  if (!args.report.empty()) {
    const auto write_report = [&](std::ostream& out) {
      out << "{\n  \"tool\": \"stigd\",\n  \"requests_served\": " << served
          << ",\n  \"sessions_opened\": " << registry.sessions_opened()
          << ",\n  \"live_sessions\": " << registry.live_sessions()
          << ",\n  \"metrics\": ";
      registry.write_metrics_json(out);
      out << "\n}\n";
    };
    if (args.report == "-") {
      write_report(std::cout);
    } else {
      std::ofstream out(args.report);
      if (!out) {
        std::cerr << "error: could not write " << args.report << "\n";
        return kExitRuntime;
      }
      write_report(out);
      std::cerr << "stigd: wrote " << args.report << "\n";
    }
  }
  std::cerr << "stigd: clean shutdown (" << served << " request(s) served, "
            << registry.sessions_opened() << " session(s) opened)\n";
  return kExitOk;
}
