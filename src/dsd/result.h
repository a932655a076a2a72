// Result and instrumentation types shared by all DSD algorithms.
#ifndef DSD_DSD_RESULT_H_
#define DSD_DSD_RESULT_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace dsd {

/// Instrumentation of the batch-bracket peel engine (MotifCoreDecompose).
/// The pipelined engine overlaps bracket i+1's count ("refill") with
/// bracket i's delta application; these counters say how often that overlap
/// happened and how much refill latency still hit the solve thread.
struct PeelEngineStats {
  /// Brackets processed (every engine mode).
  uint64_t brackets = 0;
  /// Brackets whose count ran on the refill worker while the solve thread
  /// applied the previous bracket (pipelined mode only).
  uint64_t brackets_overlapped = 0;
  /// Speculative counts committed: the popped bracket matched the engine's
  /// post-apply prediction bit-for-bit.
  uint64_t speculation_hits = 0;
  /// Speculative opportunities lost: no prediction was possible, or the
  /// popped bracket diverged from it and the plan was discarded/recounted.
  uint64_t speculation_misses = 0;
  /// Nanoseconds the solve thread spent blocked on counting — waiting for
  /// the refill worker plus any count it had to run inline. In the serial
  /// engine this equals refill_ns: every count stalls the solve thread.
  uint64_t apply_stall_ns = 0;
  /// Total nanoseconds spent counting brackets, wherever the count ran.
  uint64_t refill_ns = 0;

  /// Accumulates another decomposition's counters (one solve may run many
  /// decompositions, e.g. CoreApp's windows).
  void Add(const PeelEngineStats& other) {
    brackets += other.brackets;
    brackets_overlapped += other.brackets_overlapped;
    speculation_hits += other.speculation_hits;
    speculation_misses += other.speculation_misses;
    apply_stall_ns += other.apply_stall_ns;
    refill_ns += other.refill_ns;
  }
};

/// Per-run instrumentation. Populated opportunistically by each algorithm;
/// consumed by the reproduction harness (Figure 9, Figure 10, Table 3).
struct AlgoStats {
  /// Wall-clock total.
  double total_seconds = 0.0;
  /// Time spent in (k, Psi)-core decomposition (Table 3 numerator).
  double decomposition_seconds = 0.0;
  /// Density-search iterations executed (one min cut each; the exact
  /// solvers' Dinkelbach steps).
  int binary_search_iterations = 0;
  /// Flow-network node counts: entry 0 is the network the baseline would
  /// build on the whole graph, entry 1 the first core-located network, then
  /// one entry per min cut of the density search (Figure 9's x-axis
  /// -1, 0, 1, ...).
  std::vector<uint64_t> flow_network_sizes;
  /// Maximum motif-core number kmax, when the algorithm computes it.
  uint32_t kmax = 0;
  /// Vertices of the subgraph the CDS was located in before flow search.
  uint64_t located_vertices = 0;
  /// Flow-engine work counters, summed over every min cut the run solved
  /// (exact/core-exact/query). Every MaxFlow routes from scratch, so
  /// flow_warm_starts is always 0; it stays for the readers of these
  /// stats that still report it.
  uint64_t flow_max_flow_calls = 0;
  uint64_t flow_warm_starts = 0;
  uint64_t flow_discharges = 0;
  uint64_t flow_pushes = 0;
  uint64_t flow_relabels = 0;
  uint64_t flow_global_relabels = 0;
  /// Peel-engine pipeline counters, summed over every decomposition the run
  /// executed (peel/core-app/at-least/inc-app and CoreExact's location
  /// pass). All zero for runs that never peeled.
  PeelEngineStats peel;
};

/// A densest-subgraph answer.
struct DensestResult {
  /// Vertices of the returned subgraph (ids of the input graph), sorted.
  std::vector<VertexId> vertices;
  /// mu(D, Psi): number of motif instances in the subgraph.
  uint64_t instances = 0;
  /// rho(D, Psi) = instances / |vertices| (0 for an empty result).
  double density = 0.0;
  AlgoStats stats;
  /// OK unless the algorithm refused the input (an exact flow network whose
  /// capacities would overflow int64); dsd::Solve returns it as the error.
  Status status = Status::Ok();
};

}  // namespace dsd

#endif  // DSD_DSD_RESULT_H_
