// The serve-mixed workload's server side and closed-loop clients: an
// in-process DsdServer on loopback TCP, replayed by concurrent clients
// that each send their next request only after the previous reply.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "server/server.h"

namespace perfbench {

/// What a served solve must reproduce bit for bit: the direct
/// dsd::Solve answer for the same spec.
struct Expected {
  double density = 0.0;
  uint64_t instances = 0;
  uint64_t vertices = 0;
  uint64_t members_hash = 0;
};

/// One trace entry: a solve of `spec`, or (load) a `load` of the resident
/// graph's .dsdg under a fresh name followed by that solve on the new name.
struct TraceItem {
  int spec = 0;
  bool load = false;
};

struct ReplayResult {
  std::vector<double> latency_ms;  ///< every request, solve and load
  std::vector<double> exec_ms;     ///< the server's wall= of each solve
  std::vector<double> wait_ms;     ///< solve latency minus wall=
  std::vector<double> load_ms;     ///< load requests only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
};

/// A DsdServer with `graph` resident as "res", serving TCP on an ephemeral
/// loopback port from its own thread until destroyed.
class ServeHarness {
 public:
  ServeHarness(const dsd::Graph& graph, unsigned hardware_threads);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  /// False when the listener could not start (see error()).
  bool ok() const { return port_ != 0; }
  const std::string& error() const { return error_; }

  /// One ping round trip; false on a transport failure.
  bool Ping();

  /// Replays `trace` with `clients` closed-loop clients. `specs[i]` is the
  /// wire text of spec i ("algo=... motif=..."), `expected[i]` its truth;
  /// `dsdg_path` is the file `load` items re-add. Mismatches and error
  /// responses count as failed and are reported on stderr.
  ReplayResult Replay(const std::vector<TraceItem>& trace,
                      const std::vector<std::string>& specs,
                      const std::vector<Expected>& expected, int clients,
                      const std::string& dsdg_path);

  /// The `stats` verb's fields; empty on a transport failure.
  std::map<std::string, std::string> Stats();

 private:
  dsd::server::DsdServer server_;
  uint16_t port_ = 0;
  std::string error_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_name_{0};
  std::thread serving_;  // declared last: joined before the server dies
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
