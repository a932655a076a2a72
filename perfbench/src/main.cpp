// perfbench: the repository benchmark's binary.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --data DIR
//             [--materialize] [--tiny] [--corrupt]
//
// Workloads (see perfbench/METRICS.md for why each exists):
//   peel-heavy   one-shot dsd::Solve calls dominated by the motif peel
//   flow-heavy   one-shot dsd::Solve calls dominated by max-flow
//   serve-mixed  an in-process DsdServer driven by closed-loop clients
//
// --materialize builds the seed's datasets into DIR and exits; a run then
// opens them (mmap) so generation never lands in a timed metric or in the
// run's peak memory. A run measures kRounds rounds (fewer only if S
// seconds pass first) and reports medians over rounds. --trace 0 prints the
// end-to-end metrics; --trace 1 runs through the TimingOracle decorator and
// prints per-layer metrics instead. --tiny swaps in small graphs (the self-test);
// --corrupt damages one answer, which the checks must count as failed.
// The last stdout line is the result object; any failed check makes the
// exit code non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "dsd/caching_oracle.h"
#include "dsd/oracle_factory.h"
#include "dsd/solver.h"
#include "serve.h"
#include "server/protocol.h"
#include "storage/dataset_registry.h"
#include "storage/format.h"
#include "storage/graph_store.h"
#include "timing_oracle.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kWideThreads = 4;  // the "t4" pass and the server budget
// Twice the server's executor lanes (min(hardware, 4) = 4), so requests
// queue and batch admission (coalescing) can engage, while 4 solves run at
// once with about 1 thread each.
constexpr int kServeClients = 8;
constexpr int kSetupRepeats = 5;
// The serve-mixed trace holds this many warm solves of every distinct spec
// (and one cold one each).
constexpr size_t kServeCopies = 24;
// flow-heavy replica counts: many cheap ER graphs, fewer costly 2-star ones.
constexpr int kErReplicas = 16;
constexpr int kTwoStarReplicas = 8;
// Every run measures this many rounds; --seconds only caps it (a round is
// not started once the window has passed). A fixed count keeps the number
// of samples, and the cold graphs serve-mixed leaves resident, independent
// of how fast the code under test is.
constexpr size_t kRounds = 2;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Percentile with linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Options and workloads.

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  bool materialize_only = false;
  bool tiny = false;
  bool corrupt = false;
};

/// One solve of the workload's list; `request.threads` is set per pass.
struct Op {
  std::string graph;  // dataset key
  dsd::SolveRequest request;
};

struct Workload {
  std::vector<std::string> graphs;
  std::vector<Op> ops;
  bool serve = false;
  /// Ops (same algorithm and motif, smaller graph first) whose peel cost
  /// per vertex gives oracle.peel_scale_ratio; -1 when the list has none.
  int scale_small = -1, scale_large = -1;
  /// 4-thread passes per round.
  int wide_passes = 1;
};

Op MakeOp(std::string graph, std::string algorithm, std::string motif,
          dsd::VertexId min_size = 0, std::vector<dsd::VertexId> seeds = {}) {
  Op op;
  op.graph = std::move(graph);
  op.request.algorithm = std::move(algorithm);
  op.request.motif = std::move(motif);
  op.request.min_size = min_size;
  op.request.seeds = std::move(seeds);
  return op;
}

bool BuildWorkload(const std::string& name, bool tiny, Workload* w) {
  if (name == "peel-heavy") {
    w->graphs = {"pl-100k", "pl-1m"};
    w->ops = {MakeOp("pl-100k", "core-exact", "triangle"),
              MakeOp("pl-1m", "core-exact", "triangle"),
              MakeOp("pl-100k", "peel", "triangle"),
              MakeOp("pl-100k", "core-app", "triangle"),
              MakeOp("pl-100k", "core-exact", "4-clique"),
              MakeOp("pl-100k", "core-exact", "diamond")};
    w->scale_small = 0;
    w->scale_large = 1;
    // The pipelined 4-thread peel of pl-1m now and then runs 30-50%
    // slower; four samples per run let the per-op median skip it.
    w->wide_passes = 2;
    return true;
  }
  if (name == "flow-heavy") {
    // Flow work swings with the instance (binary-search steps, located
    // core size, hub degrees), so ops whose cost varies most run on many
    // independently seeded quarter-size replicas ("#r") and a pass sums
    // them. Exact edge keeps the full pl-100k graph: it is the one op whose
    // parallel discharge engages on the whole network.
    for (int r = 0; r < kErReplicas; ++r) {
      const std::string er = "er-25k#" + std::to_string(r);
      w->graphs.push_back(er);
      w->ops.push_back(MakeOp(er, "core-exact", "edge"));
    }
    for (int r = 0; r < kTwoStarReplicas; ++r) {
      const std::string pl = "pl-25k#" + std::to_string(r);
      w->graphs.push_back(pl);
      w->ops.push_back(MakeOp(pl, "core-exact", "2-star"));
    }
    for (const char* pl : {"pl-100k#0", "pl-100k#1"}) {
      w->graphs.push_back(pl);
      w->ops.push_back(MakeOp(pl, "exact", "edge"));
    }
    return true;
  }
  if (name == "serve-mixed") {
    // The distinct request specs of the served trace; min_size and query
    // anchors scale with the graph so the tiny self-test graphs stay valid.
    const dsd::VertexId big = tiny ? 6 : 64, mid = tiny ? 4 : 32;
    const dsd::VertexId twostar_min = tiny ? 8 : 1500;
    const std::vector<dsd::VertexId> anchors =
        tiny ? std::vector<dsd::VertexId>{10, 20}
             : std::vector<dsd::VertexId>{1000, 2000};
    w->serve = true;
    w->graphs = {"pl-100k"};
    w->ops = {MakeOp("pl-100k", "core-exact", "edge"),
              MakeOp("pl-100k", "core-exact", "triangle"),
              MakeOp("pl-100k", "peel", "edge"),
              MakeOp("pl-100k", "peel", "triangle"),
              MakeOp("pl-100k", "peel", "2-star"),
              MakeOp("pl-100k", "core-app", "edge"),
              MakeOp("pl-100k", "core-app", "triangle"),
              MakeOp("pl-100k", "core-app", "2-star"),
              MakeOp("pl-100k", "at-least", "edge", big),
              MakeOp("pl-100k", "at-least", "triangle", mid),
              MakeOp("pl-100k", "at-least", "2-star", twostar_min),
              MakeOp("pl-100k", "query", "edge", 0, anchors),
              MakeOp("pl-100k", "query", "triangle", 0, anchors)};
    return true;
  }
  return false;
}

/// The wire text of a spec ("algo=... motif=...").
std::string WireSpec(const dsd::SolveRequest& request) {
  std::string text = "algo=" + request.algorithm + " motif=" + request.motif;
  if (request.min_size > 0) {
    text += " min_size=" + std::to_string(request.min_size);
  }
  if (!request.seeds.empty()) {
    text += " seeds=";
    for (size_t i = 0; i < request.seeds.size(); ++i) {
      if (i > 0) text += ",";
      text += std::to_string(request.seeds[i]);
    }
  }
  return text;
}

/// A seeded uniform shuffle of `copies` warm solves of each of `specs`
/// specs plus one cold item per spec: a `load` of the resident graph under
/// a fresh name followed by that spec's solve on it, so the cold-graph path
/// is measured next to warm traffic. The seed only orders the items.
std::vector<TraceItem> BuildTrace(uint64_t seed, size_t specs,
                                  size_t copies) {
  std::vector<TraceItem> trace;
  for (size_t c = 0; c <= copies; ++c) {
    for (size_t spec = 0; spec < specs; ++spec) {
      trace.push_back({static_cast<int>(spec), c == copies});
    }
  }
  uint64_t state = seed ^ 0x5EEDF00Dull;
  for (size_t i = trace.size(); i > 1; --i) {
    state = SplitMix64(state);
    std::swap(trace[i - 1], trace[state % i]);
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Datasets.

/// The registry recipe behind a dataset key ("pl-100k", or "pl-25k#r" for
/// replica r), re-seeded: seed 0 keeps the registry's frozen seed for
/// replica 0, any other (seed, replica) mixes into it. The 25k keys are
/// the pl-100k and er-1m recipes at n = 25000, ER at average degree 8.
bool Recipe(const std::string& key, uint64_t seed, bool tiny,
            dsd::storage::DatasetSpec* spec) {
  const size_t hash = key.find('#');
  const std::string recipe = key.substr(0, hash);
  const uint64_t replica =
      hash == std::string::npos ? 0 : std::stoull(key.substr(hash + 1));
  const uint64_t mix = replica == 0 ? seed : SplitMix64(seed) + replica;
  const bool er = recipe == "er-25k";
  const bool quarter = er || recipe == "pl-25k";
  dsd::StatusOr<dsd::storage::DatasetSpec> info =
      dsd::storage::GlobalDatasetRegistry().Info(
          er ? "er-1m" : quarter ? "pl-100k" : recipe);
  if (!info.ok()) return false;
  *spec = info.value();
  auto& p = spec->params;
  const int n = tiny ? (recipe == "pl-1m" ? 9000 : 3000) : quarter ? 25000 : 0;
  if (n > 0) p["n"] = std::to_string(n);
  if (er) p["p"] = std::to_string(8.0 / (n - 1));
  if (tiny && !er) {
    p["communities"] = "6";
    p["csize"] = "10";
  }
  const uint64_t frozen = std::stoull(p["seed"], nullptr, 0);
  p["seed"] = std::to_string(mix == 0 ? frozen : frozen ^ SplitMix64(mix));
  spec->name = recipe + (replica > 0 ? "-r" + std::to_string(replica) : "") +
               (tiny ? "-tiny" : "") + "-s" + std::to_string(seed);
  return true;
}

struct Dataset {
  std::string path;
  dsd::Graph graph;
};

/// The payload checksum recorded in a .dsdg header; 0 if unreadable.
uint64_t PayloadChecksum(const std::string& path) {
  unsigned char bytes[dsd::storage::kDsdgHeaderBytes] = {};
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(bytes), sizeof(bytes));
  dsd::storage::DsdgHeader header;
  const char* error = nullptr;
  return in && dsd::storage::DecodeDsdgHeader(bytes, &header, &error)
             ? header.payload_checksum
             : 0;
}

// ---------------------------------------------------------------------------
// Passes: the workload's solve list, once, at one thread count.

struct OpRun {
  dsd::DensestResult result;
  double wall_s = 0.0;
  bool ok = false;
  int32_t span = -1;  // solve span id in the traced run
  uint64_t cache_hits = 0, cache_lookups = 0;
};

struct PassRun {
  unsigned threads = 1;
  std::vector<OpRun> ops;
  double wall_s = 0.0;
};

class Runner {
 public:
  /// `corrupt` plants one wrong answer (the self-test's fault).
  Runner(const Workload& workload,
         const std::map<std::string, Dataset>& datasets, bool corrupt)
      : workload_(workload), datasets_(datasets), corrupt_(corrupt) {}

  PassRun RunPass(unsigned threads, SpanRecorder* recorder) {
    PassRun pass;
    pass.threads = threads;
    for (const Op& op : workload_.ops) {
      const dsd::Graph& graph = datasets_.at(op.graph).graph;
      dsd::SolveRequest request = op.request;
      request.threads = threads;
      OpRun run;
      const Clock::time_point start = Clock::now();
      dsd::StatusOr<dsd::SolveResponse> response =
          dsd::Status::NotFound("unset");
      if (recorder == nullptr) {
        response = dsd::Solve(graph, request);
      } else {
        // The stack dsd::Solve would build itself, under the timing
        // decorator.
        run.span = static_cast<int32_t>(recorder->BeginSolve(
            op.graph + "/" + request.algorithm + "/" + request.motif,
            threads));
        dsd::OracleOptions oracle_options;
        oracle_options.threads = threads;
        oracle_options.cache = true;
        dsd::StatusOr<std::unique_ptr<dsd::MotifOracle>> inner =
            dsd::MakeOracle(request.motif, oracle_options);
        if (inner.ok()) {
          TimingOracle oracle(std::move(inner).value(), recorder,
                              static_cast<uint32_t>(run.span));
          response = dsd::Solve(graph, oracle, request);
          if (const auto* cache =
                  dynamic_cast<const dsd::CachingOracle*>(&oracle.inner())) {
            const dsd::CachingOracle::CacheStats s = cache->cache_stats();
            run.cache_hits = s.degree_hits + s.count_hits;
            run.cache_lookups = run.cache_hits + s.degree_misses +
                                s.count_misses;
          }
        } else {
          response = inner.status();
        }
        recorder->EndSolve(static_cast<uint32_t>(run.span));
      }
      run.wall_s = SecondsSince(start);
      run.ok = response.ok();
      if (run.ok) {
        run.result = std::move(response).value().result;
      } else {
        std::fprintf(stderr, "FAIL: %s %s/%s t=%u: %s\n", op.graph.c_str(),
                     request.algorithm.c_str(), request.motif.c_str(),
                     threads, response.status().ToString().c_str());
      }
      pass.wall_s += run.wall_s;
      pass.ops.push_back(std::move(run));
    }
    std::fprintf(stderr, "pass t=%u%s: %.3f s (", threads,
                 recorder != nullptr ? " traced" : "", pass.wall_s);
    for (const OpRun& run : pass.ops) std::fprintf(stderr, " %.3f", run.wall_s);
    std::fprintf(stderr, " )\n");
    return pass;
  }

  /// Checks every answer of `pass` (untimed) and counts it. The first
  /// answer of each op becomes its reference: recounted independently and
  /// bounded against the exact answer of the same pass; every later answer
  /// of that op, at any thread count, must equal it bit for bit.
  void Check(PassRun* pass) {
    if (corrupt_ && !corrupted_ && !pass->ops.empty() &&
        pass->ops[0].ok) {
      ++pass->ops[0].result.instances;  // the self-test's planted fault
      corrupted_ = true;
    }
    if (references_.empty()) references_.resize(workload_.ops.size());
    for (size_t i = 0; i < pass->ops.size(); ++i) {
      const Op& op = workload_.ops[i];
      const OpRun& run = pass->ops[i];
      std::string error = run.ok ? "" : "solve failed";
      if (error.empty() && references_[i] == nullptr) {
        error = CheckAnswer(datasets_.at(op.graph).graph, op.request.motif,
                            run.result);
        if (error.empty()) error = CheckShape(op, run.result);
        if (error.empty()) error = CheckBounds(*pass, i);
        if (error.empty()) {
          references_[i] = std::make_unique<dsd::DensestResult>(run.result);
        }
      } else if (error.empty() && !SameAnswer(run.result, *references_[i])) {
        error = "answer differs from this op's first answer";
      }
      ++attempted_;
      if (!error.empty()) {
        ++failed_;
        std::fprintf(stderr, "FAIL: %s %s/%s t=%u: %s\n", op.graph.c_str(),
                     op.request.algorithm.c_str(), op.request.motif.c_str(),
                     pass->threads, error.c_str());
      }
    }
  }

  void CountRequests(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Reference answer of op i (null until one passed its checks).
  const dsd::DensestResult* reference(size_t i) const {
    return i < references_.size() ? references_[i].get() : nullptr;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  static std::string CheckShape(const Op& op,
                                const dsd::DensestResult& result) {
    if (op.request.algorithm == "at-least" &&
        result.vertices.size() < op.request.min_size) {
      return "at-least answer smaller than min_size";
    }
    for (const dsd::VertexId seed : op.request.seeds) {
      if (!std::binary_search(result.vertices.begin(), result.vertices.end(),
                              seed)) {
        return "query answer misses an anchor vertex";
      }
    }
    return "";
  }

  /// Bounds op i's density by an exact answer for the same graph and motif
  /// in the same pass, when the pass has one.
  std::string CheckBounds(const PassRun& pass, size_t i) const {
    const Op& op = workload_.ops[i];
    const std::string& algo = op.request.algorithm;
    if (algo == "exact" || algo == "core-exact") return "";
    for (size_t j = 0; j < workload_.ops.size(); ++j) {
      const Op& other = workload_.ops[j];
      if (other.graph != op.graph || other.request.motif != op.request.motif ||
          (other.request.algorithm != "exact" &&
           other.request.algorithm != "core-exact") ||
          !pass.ops[j].ok) {
        continue;
      }
      dsd::StatusOr<std::unique_ptr<dsd::MotifOracle>> oracle =
          dsd::ParseMotif(op.request.motif);
      if (!oracle.ok()) return "unknown motif";
      return CheckAgainstExact(pass.ops[i].result.density,
                               pass.ops[j].result.density,
                               oracle.value()->MotifSize(),
                               algo == "peel" || algo == "core-app");
    }
    return "";
  }

  const Workload& workload_;
  const std::map<std::string, Dataset>& datasets_;
  std::vector<std::unique_ptr<dsd::DensestResult>> references_;
  uint64_t attempted_ = 0, failed_ = 0;
  const bool corrupt_;
  bool corrupted_ = false;
};

/// Each op's median wall time (s) over `passes`.
std::vector<double> OpMedians(const std::vector<const PassRun*>& passes) {
  std::vector<double> medians;
  for (size_t i = 0; !passes.empty() && i < passes[0]->ops.size(); ++i) {
    std::vector<double> walls;
    for (const PassRun* pass : passes) walls.push_back(pass->ops[i].wall_s);
    medians.push_back(Median(walls));
  }
  return medians;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

// ---------------------------------------------------------------------------
// Per-layer totals of one traced round, from spans and AlgoStats.

struct LayerTotals {
  double peel_s = 0, degrees_s = 0, count_s = 0, groups_s = 0;
  double peel_calls = 0, peeled = 0, degrees_calls = 0, count_calls = 0,
         groups_calls = 0;
  double cache_hits = 0, cache_lookups = 0;
  double decompose_s = 0, brackets = 0, refill_s = 0, stall_s = 0,
         overlapped = 0, spec_hits = 0, spec_misses = 0;
  double iterations = 0, located = 0, kmax = 0;
  double flow_self_s = 0, max_flow_calls = 0, warm_starts = 0,
         discharges = 0, pushes = 0, relabels = 0, global_relabels = 0;
  double overhead_s = 0;
  double scale_ratio = 0;
};

void AddPass(const Workload& workload, const PassRun& pass,
             const std::vector<std::vector<OracleSpan>>& by_solve,
             bool exact_counts, LayerTotals* t) {
  for (size_t i = 0; i < pass.ops.size(); ++i) {
    const OpRun& run = pass.ops[i];
    if (!run.ok || run.span < 0) continue;
    const dsd::AlgoStats& s = run.result.stats;
    const std::vector<OracleSpan>& spans =
        by_solve[static_cast<size_t>(run.span)];
    int64_t last_peel_end = -1;
    for (const OracleSpan& span : spans) {
      const double seconds = (span.end_ns - span.start_ns) * 1e-9;
      switch (span.call) {
        case OracleCall::kCountPeelBatch:
          t->peel_s += seconds;
          t->peel_calls += 1;
          t->peeled += static_cast<double>(span.items);
          last_peel_end = std::max(last_peel_end, span.end_ns);
          break;
        case OracleCall::kDegrees:
          t->degrees_s += seconds;
          t->degrees_calls += 1;
          break;
        case OracleCall::kCountInstances:
          t->count_s += seconds;
          t->count_calls += 1;
          break;
        case OracleCall::kGroups:
          t->groups_s += seconds;
          t->groups_calls += 1;
          break;
      }
    }
    t->cache_hits += static_cast<double>(run.cache_hits);
    t->cache_lookups += static_cast<double>(run.cache_lookups);
    t->decompose_s += s.decomposition_seconds;
    t->brackets += static_cast<double>(s.peel.brackets);
    t->refill_s += s.peel.refill_ns * 1e-9;
    t->stall_s += s.peel.apply_stall_ns * 1e-9;
    t->overlapped += static_cast<double>(s.peel.brackets_overlapped);
    t->spec_hits += static_cast<double>(s.peel.speculation_hits);
    t->spec_misses += static_cast<double>(s.peel.speculation_misses);
    t->overhead_s += run.wall_s - s.total_seconds;
    const std::string& algo = workload.ops[i].request.algorithm;
    if (algo != "exact" && algo != "core-exact") continue;
    if (exact_counts) {
      t->iterations += s.binary_search_iterations;
      t->located += static_cast<double>(s.located_vertices);
      t->kmax += s.kmax;
    }
    // Flow self time: the algorithm's wall time minus its decomposition and
    // minus the oracle calls made after the last peel count, i.e. outside
    // the decomposition (all of them when the solve never peeled).
    double outside_oracle_s = 0.0;
    for (const OracleSpan& span : spans) {
      if (span.call != OracleCall::kCountPeelBatch &&
          span.start_ns >= last_peel_end) {
        outside_oracle_s += (span.end_ns - span.start_ns) * 1e-9;
      }
    }
    t->flow_self_s +=
        s.total_seconds - s.decomposition_seconds - outside_oracle_s;
    t->max_flow_calls += static_cast<double>(s.flow_max_flow_calls);
    t->warm_starts += static_cast<double>(s.flow_warm_starts);
    t->discharges += static_cast<double>(s.flow_discharges);
    t->pushes += static_cast<double>(s.flow_pushes);
    t->relabels += static_cast<double>(s.flow_relabels);
    t->global_relabels += static_cast<double>(s.flow_global_relabels);
  }
  if (exact_counts && workload.scale_small >= 0) {
    // ns per peeled vertex of the larger graph over the smaller one.
    auto ns_per_vertex = [&](int op) {
      const OpRun& run = pass.ops[static_cast<size_t>(op)];
      if (run.span < 0) return 0.0;
      double ns = 0, vertices = 0;
      for (const OracleSpan& span : by_solve[static_cast<size_t>(run.span)]) {
        if (span.call != OracleCall::kCountPeelBatch) continue;
        ns += static_cast<double>(span.end_ns - span.start_ns);
        vertices += static_cast<double>(span.items);
      }
      return Ratio(ns, vertices);
    };
    t->scale_ratio = Ratio(ns_per_vertex(workload.scale_large),
                           ns_per_vertex(workload.scale_small));
  }
}

// ---------------------------------------------------------------------------
// Environment.

/// 1-thread vs kWideThreads-thread CPU-bound calibration: how many cores'
/// worth of work kWideThreads busy threads actually get on this host.
double EffectiveParallelism() {
  auto spin = [](unsigned threads) {
    constexpr uint64_t kIters = 20'000'000;
    std::vector<uint64_t> sinks(threads * 8, 0);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&sinks, t] {
        uint64_t x = t + 1;
        for (uint64_t i = 0; i < kIters; ++i) x = SplitMix64(x);
        sinks[t * 8] = x;
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double seconds = SecondsSince(start);
    return sinks[0] == 42 ? seconds + 1.0 : seconds;  // keep the loop live
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double one = spin(1);
    ratios.push_back(kWideThreads * one / spin(kWideThreads));
  }
  return Median(ratios);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Output.

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    entries_ += (entries_.empty() ? "" : ", ") + ("\"" + name + "\": ") +
                "{\"value\": " + buffer + ", \"unit\": \"" + unit + "\"}";
  }
  const std::string& json() const { return entries_; }

 private:
  std::string entries_;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --data DIR [--materialize] [--tiny] "
               "[--corrupt]\n",
               message);
  return 2;
}

int Run(const Options& options) {
  Workload workload;
  if (!BuildWorkload(options.workload, options.tiny, &workload)) {
    return Usage("unknown workload");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  // Materialize (or find) the seed's datasets.
  std::filesystem::create_directories(options.data_dir);
  dsd::storage::DatasetRegistry registry(options.data_dir);
  std::map<std::string, Dataset> datasets;
  for (const std::string& key : workload.graphs) {
    dsd::storage::DatasetSpec spec;
    if (!Recipe(key, options.seed, options.tiny, &spec)) {
      return Usage("no registry recipe for a dataset");
    }
    const std::string name = spec.name;
    dsd::Status added = registry.Add(std::move(spec));
    dsd::StatusOr<std::string> path =
        added.ok() ? registry.Materialize(name)
                   : dsd::StatusOr<std::string>(added);
    if (!path.ok()) {
      std::fprintf(stderr, "perfbench: dataset %s: %s\n", name.c_str(),
                   path.status().ToString().c_str());
      return 1;
    }
    datasets[key].path = path.value();
  }
  if (options.materialize_only) return 0;

  // Set-up: open every graph with full verification (and, for
  // serve-mixed, start the server and answer one ping); median of
  // kSetupRepeats, keeping the last.
  std::vector<double> setup_s, open_ms;
  std::unique_ptr<ServeHarness> harness;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    harness.reset();
    const Clock::time_point start = Clock::now();
    for (auto& [key, dataset] : datasets) {
      dsd::storage::OpenOptions open;
      open.verify = true;
      dsd::StatusOr<dsd::Graph> graph =
          dsd::storage::OpenDsdgFile(dataset.path, open);
      if (!graph.ok()) {
        std::fprintf(stderr, "perfbench: open %s: %s\n", key.c_str(),
                     graph.status().ToString().c_str());
        return 1;
      }
      dataset.graph = std::move(graph).value();
    }
    open_ms.push_back(SecondsSince(start) * 1e3);
    if (workload.serve) {
      harness = std::make_unique<ServeHarness>(
          datasets.at(workload.graphs[0]).graph, kWideThreads);
      if (!harness->ok() || !harness->Ping()) {
        std::fprintf(stderr, "perfbench: server start: %s\n",
                     harness->error().c_str());
        return 1;
      }
    }
    setup_s.push_back(SecondsSince(start));
  }

  // Environment record.
  const double effective_parallelism = EffectiveParallelism();
  std::string env = "{\"build_type\": \"" PERFBENCH_BUILD_TYPE
                    "\", \"compiler\": \"" __VERSION__
                    "\", \"hardware_concurrency\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"effective_parallelism\": " +
                    std::to_string(effective_parallelism) +
                    ", \"datasets\": {";
  bool first = true;
  for (const auto& [key, dataset] : datasets) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "0x%016llx",
                  static_cast<unsigned long long>(PayloadChecksum(dataset.path)));
    env += std::string(first ? "" : ", ") + "\"" + key + "\": {\"file\": \"" +
           std::filesystem::path(dataset.path).filename().string() +
           "\", \"vertices\": " +
           std::to_string(dataset.graph.NumVertices()) +
           ", \"edges\": " + std::to_string(dataset.graph.NumEdges()) +
           ", \"payload_checksum\": \"" + checksum + "\"}";
    first = false;
  }
  std::printf("env %s}}\n", env.c_str());

  Runner runner(workload, datasets, options.corrupt);
  SpanRecorder recorder;
  SpanRecorder* traced = options.trace ? &recorder : nullptr;

  // Warmup, untimed: the serve truth pass (every spec at kWideThreads,
  // checked, then one replay below), or one cheap solve per graph at each
  // thread count so pages are resident and worker threads have been
  // spawned once.
  std::vector<Expected> expected;
  std::vector<std::string> wire_specs;
  if (workload.serve) {
    PassRun truth = runner.RunPass(kWideThreads, nullptr);
    runner.Check(&truth);
    for (size_t i = 0; i < workload.ops.size(); ++i) {
      Expected want;
      if (const dsd::DensestResult* ref = runner.reference(i)) {
        want.density = ref->density;
        want.instances = ref->instances;
        want.vertices = ref->vertices.size();
        want.members_hash = dsd::server::MembersHash(ref->vertices);
      }
      expected.push_back(want);
      wire_specs.push_back(WireSpec(workload.ops[i].request));
    }
  } else {
    for (const auto& [key, dataset] : datasets) {
      for (const unsigned threads : {kWideThreads, 1u}) {
        dsd::SolveRequest warm;
        warm.algorithm = "peel";
        warm.motif = "edge";
        warm.threads = threads;
        if (!dsd::Solve(dataset.graph, warm).ok()) {
          std::fprintf(stderr, "perfbench: warmup solve failed\n");
          return 1;
        }
      }
    }
  }
  const std::vector<TraceItem> trace = BuildTrace(
      options.seed, workload.ops.size(), options.tiny ? 2 : kServeCopies);
  const std::string& served_path = datasets.begin()->second.path;
  if (workload.serve) {
    // One untimed warm solve of every spec fills the server's long-lived
    // caches, so the timed rounds start from the same steady state.
    std::vector<TraceItem> warmup;
    for (size_t spec = 0; spec < workload.ops.size(); ++spec) {
      warmup.push_back({static_cast<int>(spec), false});
    }
    const ReplayResult warm = harness->Replay(warmup, wire_specs, expected,
                                              kServeClients, served_path);
    runner.CountRequests(warm.attempted, warm.failed);
  }

  // Timed rounds.
  struct Round {
    PassRun t1, t1_plain;
    std::vector<PassRun> t4;  // workload.wide_passes of them
    ReplayResult replay;
  };
  std::vector<Round> rounds;
  const Clock::time_point window = Clock::now();
  do {
    Round round;
    round.t1 = runner.RunPass(1, traced);
    runner.Check(&round.t1);
    for (int k = 0; k < workload.wide_passes; ++k) {
      round.t4.push_back(runner.RunPass(kWideThreads, traced));
      runner.Check(&round.t4.back());
    }
    if (options.trace) {
      round.t1_plain = runner.RunPass(1, nullptr);
      runner.Check(&round.t1_plain);
    }
    if (workload.serve) {
      round.replay = harness->Replay(trace, wire_specs, expected,
                                     kServeClients, served_path);
      runner.CountRequests(round.replay.attempted, round.replay.failed);
    }
    rounds.push_back(std::move(round));
  } while (rounds.size() < kRounds &&
           SecondsSince(window) < options.seconds);

  MetricSink metrics;
  // A request is one served request on serve-mixed, pooled over every
  // round. On the one-shot workloads it is one solve of each op kind
  // (recipe, algorithm, motif) at 1 thread: the mean over the kind's
  // replicas of each op's median over rounds, so a percentile never lands
  // inside one kind's spread of instance costs.
  std::vector<const PassRun*> t1, t4;
  std::vector<double> latency_ms, exec_ms, wait_ms, load_ms;
  double requests = 0, replay_s = 0;
  for (const Round& round : rounds) {
    t1.push_back(&round.t1);
    for (const PassRun& pass : round.t4) t4.push_back(&pass);
    const ReplayResult& r = round.replay;
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(),
                      r.latency_ms.end());
    exec_ms.insert(exec_ms.end(), r.exec_ms.begin(), r.exec_ms.end());
    wait_ms.insert(wait_ms.end(), r.wait_ms.begin(), r.wait_ms.end());
    load_ms.insert(load_ms.end(), r.load_ms.begin(), r.load_ms.end());
    requests += static_cast<double>(r.latency_ms.size());
    replay_s += r.wall_s;
  }

  if (!options.trace) {
    const std::vector<double> t1_op_s = OpMedians(t1);
    const double solve_t1_s = Sum(t1_op_s);
    if (!workload.serve) {
      std::map<std::string, std::vector<double>> kinds;
      for (size_t i = 0; i < t1_op_s.size(); ++i) {
        const Op& op = workload.ops[i];
        kinds[op.graph.substr(0, op.graph.find('#')) + "/" +
              op.request.algorithm + "/" + op.request.motif]
            .push_back(t1_op_s[i] * 1e3);
      }
      for (const auto& [kind, ms] : kinds) {
        latency_ms.push_back(Sum(ms) / static_cast<double>(ms.size()));
      }
      requests = static_cast<double>(t1_op_s.size());
      replay_s = solve_t1_s;
    }
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("solve_t1_s", solve_t1_s, "s");
    metrics.Add("solve_t4_s", Sum(OpMedians(t4)), "s");
    metrics.Add("req_p50_ms", Percentile(latency_ms, 0.50), "ms");
    metrics.Add("req_p90_ms", Percentile(latency_ms, 0.90), "ms");
    metrics.Add("req_per_s", Ratio(requests, replay_s), "1/s");
    metrics.Add("ok_frac",
                1.0 - Ratio(static_cast<double>(runner.failed()),
                            static_cast<double>(runner.attempted())),
                "ratio");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const std::vector<OracleSpan> spans = recorder.oracle_spans();
    std::vector<std::vector<OracleSpan>> by_solve(
        recorder.solve_spans().size());
    for (const OracleSpan& span : spans) by_solve[span.solve].push_back(span);
    std::vector<LayerTotals> totals;
    std::vector<double> speedup, overhead;
    for (const Round& round : rounds) {
      LayerTotals t;
      AddPass(workload, round.t1, by_solve, true, &t);
      AddPass(workload, round.t4.front(), by_solve, false, &t);
      totals.push_back(t);
      speedup.push_back(Ratio(round.t1.wall_s, round.t4.front().wall_s));
      overhead.push_back(Ratio(round.t1.wall_s, round.t1_plain.wall_s) - 1.0);
    }
    auto median_of = [&](double LayerTotals::*field) {
      std::vector<double> values;
      for (const LayerTotals& t : totals) values.push_back(t.*field);
      return Median(values);
    };
    auto median_ratio = [&](double LayerTotals::*num,
                            double LayerTotals::*den) {
      std::vector<double> values;
      for (const LayerTotals& t : totals) values.push_back(Ratio(t.*num, t.*den));
      return Median(values);
    };
    std::vector<double> peel_ns_per_vertex;
    for (const LayerTotals& t : totals) {
      peel_ns_per_vertex.push_back(Ratio(t.peel_s * 1e9, t.peeled));
    }
    metrics.Add("storage.open_ms", Median(open_ms), "ms");
    metrics.Add("storage.cold_load_ms", Median(load_ms), "ms");
    metrics.Add("oracle.peel_count_s", median_of(&LayerTotals::peel_s), "s");
    metrics.Add("oracle.peel_count_calls",
                median_of(&LayerTotals::peel_calls), "count");
    metrics.Add("oracle.peeled_vertices", median_of(&LayerTotals::peeled),
                "count");
    metrics.Add("oracle.peel_ns_per_vertex", Median(peel_ns_per_vertex),
                "ns");
    metrics.Add("oracle.peel_scale_ratio",
                median_of(&LayerTotals::scale_ratio), "ratio");
    metrics.Add("oracle.degrees_s", median_of(&LayerTotals::degrees_s), "s");
    metrics.Add("oracle.degrees_calls",
                median_of(&LayerTotals::degrees_calls), "count");
    metrics.Add("oracle.count_instances_s", median_of(&LayerTotals::count_s),
                "s");
    metrics.Add("oracle.count_instances_calls",
                median_of(&LayerTotals::count_calls), "count");
    metrics.Add("oracle.groups_s", median_of(&LayerTotals::groups_s), "s");
    metrics.Add("oracle.groups_calls", median_of(&LayerTotals::groups_calls),
                "count");
    metrics.Add("oracle.cache_hit_rate",
                median_ratio(&LayerTotals::cache_hits,
                             &LayerTotals::cache_lookups),
                "ratio");
    metrics.Add("motif_core.decompose_s",
                median_of(&LayerTotals::decompose_s), "s");
    metrics.Add("motif_core.brackets", median_of(&LayerTotals::brackets),
                "count");
    metrics.Add("motif_core.refill_s", median_of(&LayerTotals::refill_s),
                "s");
    metrics.Add("motif_core.apply_stall_s", median_of(&LayerTotals::stall_s),
                "s");
    metrics.Add("motif_core.overlap_frac",
                median_ratio(&LayerTotals::overlapped, &LayerTotals::brackets),
                "ratio");
    std::vector<double> spec_hit_rate;
    for (const LayerTotals& t : totals) {
      spec_hit_rate.push_back(
          Ratio(t.spec_hits, t.spec_hits + t.spec_misses));
    }
    metrics.Add("motif_core.spec_hit_rate", Median(spec_hit_rate), "ratio");
    metrics.Add("core_exact.iterations", median_of(&LayerTotals::iterations),
                "count");
    metrics.Add("core_exact.located_vertices",
                median_of(&LayerTotals::located), "count");
    metrics.Add("core_exact.kmax", median_of(&LayerTotals::kmax), "count");
    metrics.Add("flow.self_s", median_of(&LayerTotals::flow_self_s), "s");
    metrics.Add("flow.max_flow_calls",
                median_of(&LayerTotals::max_flow_calls), "count");
    metrics.Add("flow.warm_start_frac",
                median_ratio(&LayerTotals::warm_starts,
                             &LayerTotals::max_flow_calls),
                "ratio");
    metrics.Add("flow.discharges", median_of(&LayerTotals::discharges),
                "count");
    metrics.Add("flow.pushes", median_of(&LayerTotals::pushes), "count");
    metrics.Add("flow.relabels", median_of(&LayerTotals::relabels), "count");
    metrics.Add("flow.global_relabels",
                median_of(&LayerTotals::global_relabels), "count");
    metrics.Add("solver.overhead_s", median_of(&LayerTotals::overhead_s),
                "s");
    metrics.Add("solver.t4_speedup", Median(speedup), "ratio");

    std::map<std::string, std::string> stats;
    if (workload.serve) stats = harness->Stats();
    auto stat = [&](const char* key) {
      auto it = stats.find(key);
      return it == stats.end() ? 0.0 : std::stod(it->second);
    };
    const double hits = stat("degree_hits") + stat("count_hits");
    metrics.Add("server.exec_ms_p50", Percentile(exec_ms, 0.50), "ms");
    metrics.Add("server.exec_ms_p90", Percentile(exec_ms, 0.90), "ms");
    metrics.Add("server.wait_ms_p50", Percentile(wait_ms, 0.50), "ms");
    metrics.Add("server.wait_ms_p90", Percentile(wait_ms, 0.90), "ms");
    metrics.Add("server.coalesced", stat("coalesced"), "count");
    metrics.Add("server.shed", stat("shed"), "count");
    metrics.Add("server.cache_hit_rate",
                Ratio(hits, hits + stat("degree_misses") +
                                stat("count_misses")),
                "ratio");
    metrics.Add("trace.overhead_frac", Median(overhead), "ratio");
    metrics.Add("env.effective_parallelism", effective_parallelism, "ratio");

    const std::filesystem::path trace_file =
        std::filesystem::path(options.data_dir).parent_path() / "traces" /
        (options.workload + "-s" + std::to_string(options.seed) + ".jsonl");
    std::filesystem::create_directories(trace_file.parent_path());
    if (!recorder.WriteJsonLines(trace_file.string())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   trace_file.c_str());
    }
  }

  harness.reset();
  const bool correct = runner.failed() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(runner.attempted()),
      static_cast<unsigned long long>(runner.failed()),
      metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--data" && has_value) {
        options.data_dir = argv[++i];
      } else if (arg == "--materialize") {
        options.materialize_only = true;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--corrupt") {
        options.corrupt = true;
      } else {
        return perfbench::Usage(("bad argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return perfbench::Usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workload.empty() || options.data_dir.empty()) {
    return perfbench::Usage("--workload and --data are required");
  }
  return perfbench::Run(options);
}
