// Outside-in tracing for the benchmark's traced run.
//
// TimingOracle decorates the MakeOracle stack a solve would build for
// itself and records one span per call into the oracle layer (Degrees,
// CountInstances, CountPeelBatch, Groups). Every span names the solve span
// that caused it. Spans live in a SpanRecorder in memory and are written
// out once the run ends. Nothing inside the library is instrumented: the
// spans are taken at the library's public oracle seam.
#ifndef PERFBENCH_TIMING_ORACLE_H_
#define PERFBENCH_TIMING_ORACLE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsd/motif_oracle.h"

namespace perfbench {

enum class OracleCall : uint8_t {
  kDegrees,
  kCountInstances,
  kCountPeelBatch,
  kGroups
};

const char* OracleCallName(OracleCall call);

/// One call into the oracle layer. `items` is the frontier size of a
/// CountPeelBatch call (vertices peeled) and 0 otherwise.
struct OracleSpan {
  uint32_t solve = 0;
  OracleCall call = OracleCall::kDegrees;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t items = 0;
};

/// One dsd::Solve call: the parent of its oracle spans.
struct SolveSpan {
  std::string name;
  unsigned threads = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe in-memory span store; times are ns since construction.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const;
  uint32_t BeginSolve(std::string name, unsigned threads);
  void EndSolve(uint32_t id);
  void Record(const OracleSpan& span);

  std::vector<OracleSpan> oracle_spans() const;
  std::vector<SolveSpan> solve_spans() const;

  /// Writes every span as JSON lines to `path`; false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<OracleSpan> oracle_spans_;  // guarded by mutex_
  std::vector<SolveSpan> solve_spans_;    // guarded by mutex_
};

/// Forwards every MotifOracle call to `inner`, recording a span under
/// solve `parent` for the four oracle-layer queries. Safe for concurrent
/// calls (the peel engine's refill worker calls CountPeelBatch).
class TimingOracle : public dsd::MotifOracle {
 public:
  TimingOracle(std::unique_ptr<dsd::MotifOracle> inner,
               SpanRecorder* recorder, uint32_t parent)
      : inner_(std::move(inner)), recorder_(recorder), parent_(parent) {}

  int MotifSize() const override { return inner_->MotifSize(); }
  std::string Name() const override { return inner_->Name(); }
  uint64_t PeelVertex(const dsd::Graph& graph, dsd::VertexId v,
                      std::span<const char> alive,
                      const dsd::PeelCallback& cb) const override {
    return inner_->PeelVertex(graph, v, alive, cb);
  }
  std::vector<uint64_t> CountPeelBatch(
      const dsd::Graph& graph, std::span<const dsd::VertexId> frontier,
      std::span<char> alive, const dsd::PeelCallback& cb,
      const dsd::ExecutionContext& ctx) const override;
  std::vector<dsd::InstanceGroup> Groups(
      const dsd::Graph& graph, std::span<const char> alive) const override;
  std::vector<uint64_t> CoreNumberUpperBounds(
      const dsd::Graph& graph) const override {
    return inner_->CoreNumberUpperBounds(graph);
  }
  unsigned MaxUsefulThreads() const override {
    return inner_->MaxUsefulThreads();
  }
  const dsd::MotifOracle& Underlying() const override {
    return inner_->Underlying();
  }

  const dsd::MotifOracle& inner() const { return *inner_; }

 protected:
  std::vector<uint64_t> DegreesImpl(
      const dsd::Graph& graph, std::span<const char> alive,
      const dsd::ExecutionContext& ctx) const override;
  uint64_t CountInstancesImpl(const dsd::Graph& graph,
                              std::span<const char> alive,
                              const dsd::ExecutionContext& ctx) const override;

 private:
  void Record(OracleCall call, int64_t start_ns, uint64_t items) const;

  std::unique_ptr<dsd::MotifOracle> inner_;
  SpanRecorder* recorder_;
  uint32_t parent_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ORACLE_H_
