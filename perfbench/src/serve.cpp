#include "serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <mutex>

#include "server/protocol.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int TcpConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A client connection: one request in flight at a time.
class Connection {
 public:
  explicit Connection(uint16_t port) : fd_(TcpConnect(port)), reader_(fd_) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `request` and parses the reply; false on a transport or
  /// framing failure.
  bool RoundTrip(const std::string& request,
                 dsd::server::WireResponse* response) {
    std::string payload, error;
    if (!dsd::server::WriteFrame(fd_, request).ok() ||
        reader_.Next(&payload, &error) != 1) {
      return false;
    }
    dsd::StatusOr<dsd::server::WireResponse> parsed =
        dsd::server::ParseWireResponse(payload);
    if (!parsed.ok()) return false;
    *response = std::move(parsed).value();
    return true;
  }

 private:
  int fd_;
  dsd::server::FrameReader reader_;
};

/// Empty when `response` is the expected solve answer.
std::string SolveMismatch(const dsd::server::WireResponse& response,
                          const Expected& want) {
  if (!response.ok) return response.code + ": " + response.msg;
  double density = 0.0;
  uint64_t instances = 0, vertices = 0, hash = 0;
  if (!response.GetDouble("density", &density) ||
      !response.GetUint("instances", &instances) ||
      !response.GetUint("vertices", &vertices) ||
      !response.GetUint("members_hash", &hash)) {
    return "malformed solve response";
  }
  if (density != want.density || instances != want.instances ||
      vertices != want.vertices || hash != want.members_hash) {
    return "served answer differs from direct dsd::Solve";
  }
  return "";
}

}  // namespace

ServeHarness::ServeHarness(const dsd::Graph& graph, unsigned hardware_threads)
    : server_([&] {
        dsd::server::ServerOptions options;
        options.hardware_threads = hardware_threads;
        return options;
      }()) {
  const dsd::Status added = server_.AddGraph("res", graph);
  if (!added.ok()) {
    error_ = added.ToString();
    return;
  }
  dsd::StatusOr<uint16_t> port = server_.ListenTcp(0);
  if (!port.ok()) {
    error_ = port.status().ToString();
    return;
  }
  port_ = port.value();
  serving_ = std::thread([this] { server_.ServeTcp(); });
}

ServeHarness::~ServeHarness() {
  server_.BeginShutdown();
  server_.StopTcp();
  if (serving_.joinable()) serving_.join();
}

bool ServeHarness::Ping() {
  Connection connection(port_);
  dsd::server::WireResponse response;
  return connection.ok() &&
         connection.RoundTrip("ping id=" + std::to_string(next_id_++),
                              &response) &&
         response.ok;
}

std::map<std::string, std::string> ServeHarness::Stats() {
  Connection connection(port_);
  dsd::server::WireResponse response;
  if (!connection.ok() ||
      !connection.RoundTrip("stats id=" + std::to_string(next_id_++),
                            &response) ||
      !response.ok) {
    return {};
  }
  return response.fields;
}

ReplayResult ServeHarness::Replay(const std::vector<TraceItem>& trace,
                                  const std::vector<std::string>& specs,
                                  const std::vector<Expected>& expected,
                                  int clients, const std::string& dsdg_path) {
  std::mutex mutex;
  ReplayResult result;  // guarded by mutex
  std::atomic<size_t> next_item{0};

  // Records one request's outcome; `mismatch` empty means it passed.
  auto record = [&](const std::string& request, const std::string& mismatch,
                    double latency_ms, bool is_load,
                    const dsd::server::WireResponse& response) {
    std::lock_guard<std::mutex> lock(mutex);
    ++result.attempted;
    result.latency_ms.push_back(latency_ms);
    if (is_load) {
      result.load_ms.push_back(latency_ms);
    } else {
      double wall_s = 0.0;
      if (response.GetDouble("wall", &wall_s)) {
        result.exec_ms.push_back(wall_s * 1e3);
        result.wait_ms.push_back(latency_ms - wall_s * 1e3);
      }
    }
    if (!mismatch.empty()) {
      ++result.failed;
      std::fprintf(stderr, "FAIL: %s -> %s\n", request.c_str(),
                   mismatch.c_str());
    }
  };

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      Connection connection(port_);
      for (size_t i = next_item++; i < trace.size(); i = next_item++) {
        const TraceItem& item = trace[i];
        std::string graph = "res";
        dsd::server::WireResponse response;
        if (item.load) {
          graph = "cold" + std::to_string(next_name_++);
          const std::string request = "load name=" + graph + " file=" +
                                      dsdg_path + " id=" +
                                      std::to_string(next_id_++);
          const Clock::time_point sent = Clock::now();
          const bool delivered =
              connection.ok() && connection.RoundTrip(request, &response);
          const std::string mismatch =
              !delivered    ? "transport failure"
              : response.ok ? ""
                            : response.code + ": " + response.msg;
          record(request, mismatch, MsSince(sent), true, response);
          if (!mismatch.empty()) continue;
        }
        const std::string request = "solve graph=" + graph + " " +
                                    specs[item.spec] + " id=" +
                                    std::to_string(next_id_++);
        const Clock::time_point sent = Clock::now();
        const bool delivered =
            connection.ok() && connection.RoundTrip(request, &response);
        const double latency = MsSince(sent);
        record(request,
               delivered ? SolveMismatch(response, expected[item.spec])
                         : "transport failure",
               latency, false, response);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_s = MsSince(start) / 1e3;
  return result;
}

}  // namespace perfbench
