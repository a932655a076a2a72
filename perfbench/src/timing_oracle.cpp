#include "timing_oracle.h"

#include <cstdio>

namespace perfbench {

const char* OracleCallName(OracleCall call) {
  switch (call) {
    case OracleCall::kDegrees:
      return "degrees";
    case OracleCall::kCountInstances:
      return "count_instances";
    case OracleCall::kCountPeelBatch:
      return "peel_count";
    case OracleCall::kGroups:
      return "groups";
  }
  return "?";
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t SpanRecorder::BeginSolve(std::string name, unsigned threads) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  solve_spans_.push_back({std::move(name), threads, now, now});
  return static_cast<uint32_t>(solve_spans_.size() - 1);
}

void SpanRecorder::EndSolve(uint32_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  solve_spans_[id].end_ns = now;
}

void SpanRecorder::Record(const OracleSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  oracle_spans_.push_back(span);
}

std::vector<OracleSpan> SpanRecorder::oracle_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return oracle_spans_;
}

std::vector<SolveSpan> SpanRecorder::solve_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return solve_spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < solve_spans_.size(); ++i) {
    const SolveSpan& s = solve_spans_[i];
    std::fprintf(out,
                 "{\"span\":\"solve\",\"id\":%zu,\"name\":\"%s\","
                 "\"threads\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name.c_str(), s.threads,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const OracleSpan& s : oracle_spans_) {
    std::fprintf(out,
                 "{\"span\":\"oracle.%s\",\"parent\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"items\":%llu}\n",
                 OracleCallName(s.call), s.solve,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(out) == 0;
}

void TimingOracle::Record(OracleCall call, int64_t start_ns,
                          uint64_t items) const {
  recorder_->Record({parent_, call, start_ns, recorder_->NowNs(), items});
}

std::vector<uint64_t> TimingOracle::CountPeelBatch(
    const dsd::Graph& graph, std::span<const dsd::VertexId> frontier,
    std::span<char> alive, const dsd::PeelCallback& cb,
    const dsd::ExecutionContext& ctx) const {
  const int64_t start = recorder_->NowNs();
  std::vector<uint64_t> destroyed =
      inner_->CountPeelBatch(graph, frontier, alive, cb, ctx);
  Record(OracleCall::kCountPeelBatch, start, destroyed.size());
  return destroyed;
}

std::vector<dsd::InstanceGroup> TimingOracle::Groups(
    const dsd::Graph& graph, std::span<const char> alive) const {
  const int64_t start = recorder_->NowNs();
  std::vector<dsd::InstanceGroup> groups = inner_->Groups(graph, alive);
  Record(OracleCall::kGroups, start, 0);
  return groups;
}

std::vector<uint64_t> TimingOracle::DegreesImpl(
    const dsd::Graph& graph, std::span<const char> alive,
    const dsd::ExecutionContext& ctx) const {
  const int64_t start = recorder_->NowNs();
  std::vector<uint64_t> degrees = inner_->Degrees(graph, alive, ctx);
  Record(OracleCall::kDegrees, start, 0);
  return degrees;
}

uint64_t TimingOracle::CountInstancesImpl(
    const dsd::Graph& graph, std::span<const char> alive,
    const dsd::ExecutionContext& ctx) const {
  const int64_t start = recorder_->NowNs();
  const uint64_t count = inner_->CountInstances(graph, alive, ctx);
  Record(OracleCall::kCountInstances, start, 0);
  return count;
}

}  // namespace perfbench
