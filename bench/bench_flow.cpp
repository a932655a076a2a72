// Flow-engine bench: exact and core-exact on registry datasets, sweeping
// thread budgets, emitting one JSON record per run (BENCH_flow.json via
// scripts/run_bench.sh) with the FlowNetwork work counters.
//
// Fail-loud contract (exit 1), like bench_peel: every exact run on the same
// dataset — exact and core-exact, at threads {1, 2, 4, auto} — must return
// the identical densest subgraph: bit-identical vertices and density. Both
// algorithms answer with the union of all densest subgraphs, so on pl-100k
// whole-graph and core-located search must agree at every thread count.
//
// exact on pl-1m (a ~4.5 s whole-graph flow per run) only joins the grid
// under DSD_BENCH_SCALE=large.
//
// Usage: bench_flow [output.json]   (stdout when no path is given)
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dsd/core_exact.h"
#include "dsd/exact.h"
#include "dsd/motif_oracle.h"
#include "parallel/parallel_for.h"
#include "storage/dataset_registry.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

struct Cell {
  std::string algo;     // "core-exact" | "exact"
  std::string dataset;  // registry name
  std::vector<unsigned> threads;  // 0 = auto
};

struct Record {
  std::string algo;
  std::string dataset;
  size_t vertices = 0;
  size_t edges = 0;
  double load_ms = 0.0;
  unsigned threads_requested = 0;
  unsigned threads_effective = 0;
  double wall_seconds = 0.0;
  double density = 0.0;
  size_t result_vertices = 0;
  uint64_t max_flow_calls = 0;
  uint64_t discharges = 0;
  uint64_t pushes = 0;
  uint64_t relabels = 0;
  uint64_t global_relabels = 0;
};

int Run(std::FILE* out) {
  std::vector<Cell> cells = {
      {"core-exact", "pl-100k", {1, 2, 4, 0}},
      {"core-exact", "pl-1m", {1, 4}},
      {"exact", "pl-100k", {1, 2, 4, 0}},
  };
  const char* scale = std::getenv("DSD_BENCH_SCALE");
  if (scale != nullptr && std::string(scale) == "large") {
    cells.push_back({"exact", "pl-1m", {1, 4}});
  }

  const storage::DatasetRegistry& registry = storage::GlobalDatasetRegistry();
  CliqueOracle edge(2);
  std::vector<Record> records;
  // First answer per dataset; every later run on it must match.
  std::map<std::string, DensestResult> baselines;

  for (const Cell& cell : cells) {
    // Materialize (generate + cache) untimed; load_ms is the mmap open.
    StatusOr<std::string> path = registry.Materialize(cell.dataset);
    if (!path.ok()) {
      std::fprintf(stderr, "FAIL: dataset %s: %s\n", cell.dataset.c_str(),
                   path.status().ToString().c_str());
      return 1;
    }
    Timer open_timer;
    StatusOr<Graph> opened = registry.Open(cell.dataset);
    if (!opened.ok()) {
      std::fprintf(stderr, "FAIL: dataset %s: %s\n", cell.dataset.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    const Graph graph = std::move(opened).value();
    const double load_ms = open_timer.Seconds() * 1e3;

    for (const unsigned requested : cell.threads) {
      const unsigned effective = ResolveThreadCount(requested);
      const ExecutionContext ctx = ExecutionContext().WithThreads(effective);
      Timer timer;
      const DensestResult result =
          cell.algo == "core-exact"
              ? CoreExact(graph, edge, CoreExactOptions(), ctx)
              : Exact(graph, edge, ctx);
      const double wall = timer.Seconds();

      const auto [baseline, first] =
          baselines.try_emplace(cell.dataset, result);
      if (!first && (result.vertices != baseline->second.vertices ||
                     result.density != baseline->second.density)) {
        std::fprintf(stderr,
                     "FAIL: %s on %s (threads=%u) returned %zu vertices at "
                     "density %.17g; the first exact run on it returned %zu "
                     "at %.17g\n",
                     cell.algo.c_str(), cell.dataset.c_str(), requested,
                     result.vertices.size(), result.density,
                     baseline->second.vertices.size(),
                     baseline->second.density);
        return 1;
      }

      Record r;
      r.algo = cell.algo;
      r.dataset = cell.dataset;
      r.vertices = graph.NumVertices();
      r.edges = static_cast<size_t>(graph.NumEdges());
      r.load_ms = load_ms;
      r.threads_requested = requested;
      r.threads_effective = effective;
      r.wall_seconds = wall;
      r.density = result.density;
      r.result_vertices = result.vertices.size();
      r.max_flow_calls = result.stats.flow_max_flow_calls;
      r.discharges = result.stats.flow_discharges;
      r.pushes = result.stats.flow_pushes;
      r.relabels = result.stats.flow_relabels;
      r.global_relabels = result.stats.flow_global_relabels;
      records.push_back(r);
      std::fprintf(stderr,
                   "%-10s %-8s threads=%u  %.3f s  calls=%llu disc=%llu "
                   "relab=%llu\n",
                   cell.algo.c_str(), cell.dataset.c_str(), requested, wall,
                   static_cast<unsigned long long>(r.max_flow_calls),
                   static_cast<unsigned long long>(r.discharges),
                   static_cast<unsigned long long>(r.relabels));
    }
  }

  std::fprintf(out, "{\n  \"benchmark\": \"flow\",\n  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        out,
        "    {\"algo\": \"%s\", \"dataset\": \"%s\", \"vertices\": %zu, "
        "\"edges\": %zu, \"load_ms\": %.3f, \"threads_requested\": %u, "
        "\"threads_effective\": %u, "
        "\"wall_seconds\": %.6f, \"density\": %.6f, "
        "\"result_vertices\": %zu, \"max_flow_calls\": %llu, "
        "\"discharges\": %llu, \"pushes\": %llu, "
        "\"relabels\": %llu, \"global_relabels\": %llu}%s\n",
        r.algo.c_str(), r.dataset.c_str(), r.vertices, r.edges, r.load_ms,
        r.threads_requested, r.threads_effective, r.wall_seconds, r.density,
        r.result_vertices, static_cast<unsigned long long>(r.max_flow_calls),
        static_cast<unsigned long long>(r.discharges),
        static_cast<unsigned long long>(r.pushes),
        static_cast<unsigned long long>(r.relabels),
        static_cast<unsigned long long>(r.global_relabels),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace dsd::bench

int main(int argc, char** argv) {
  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", argv[1]);
      return 1;
    }
  }
  int status = dsd::bench::Run(out);
  if (out != stdout) std::fclose(out);
  return status;
}
