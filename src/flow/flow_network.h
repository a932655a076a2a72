// FlowNetwork: the max-flow / min-cut engine behind the exact DSD
// algorithms — integer capacities, CSR adjacency, parallel discharge.
//
// The exact algorithms answer every density guess alpha = p / q with one
// minimum st-cut on a network whose structure never changes; the solvers
// in dsd/flow_networks.h scale every arc by q so each capacity is an exact
// int64, then re-solve:
//
//   * Arcs are appended to flat arrays (ReserveArcs sizes them up front).
//     The first MaxFlow lays them out once as a CSR: the arcs leaving a
//     node sit next to each other with their heads, residuals and the slot
//     of their paired arc, so a discharge scans contiguous memory. Arc ids
//     stay valid; SetCapacity only changes the configured capacity.
//   * Every MaxFlow starts from the configured capacities: residuals and
//     excesses are reset, a global relabel computes exact heights, every
//     source arc whose head can reach t is saturated, and discharge routes
//     the rest. No state carries over between calls.
//   * Discharge runs over a shared worklist: rounds of parallel node
//     discharges (atomic fetch_add on excesses and residuals, CAS-claimed
//     activation flags, per-thread output buffers) with a global-relabel
//     heartbeat. ctx.threads sizes the worker set; small frontiers stay on
//     the calling thread without atomics, so a 1-thread context is plain
//     sequential push-relabel.
//
// Determinism: capacities are integers, so arithmetic is exact. The
// max-flow value is unique, and so are the inclusion-minimal and the
// inclusion-maximal min-cut source sides: every minimum cut lies between
// them, whichever maximum flow the discharge order found.
// MinCutSourceSide and MaximalMinCutSourceSide therefore return the same
// sets at every thread count. Callers keep the sum of all capacities
// within int64 (CheckCapacitySum), which bounds every excess and residual.
//
// Cooperative stop: MaxFlow polls ctx.ShouldStop() at round granularity
// and returns the flow routed so far; the cut sides of a stopped solve are
// not minimum cuts.
#ifndef DSD_FLOW_FLOW_NETWORK_H_
#define DSD_FLOW_FLOW_NETWORK_H_

#include <cstdint>
#include <vector>

#include "dsd/execution_context.h"
#include "util/status.h"

namespace dsd {

/// Work counters, cumulative across MaxFlow calls (ResetStats() clears).
struct FlowStats {
  uint64_t max_flow_calls = 0;
  uint64_t discharges = 0;  // node visits in the discharge loop
  uint64_t pushes = 0;
  uint64_t relabels = 0;
  uint64_t global_relabels = 0;

  FlowStats& operator+=(const FlowStats& other) {
    max_flow_calls += other.max_flow_calls;
    discharges += other.discharges;
    pushes += other.pushes;
    relabels += other.relabels;
    global_relabels += other.global_relabels;
    return *this;
  }
};

/// Parallel push-relabel max-flow with int64 capacities.
class FlowNetwork {
 public:
  using NodeId = uint32_t;
  using ArcId = uint32_t;

  explicit FlowNetwork(NodeId num_nodes);

  /// Reserves room for `forward_arcs` more AddArc calls.
  void ReserveArcs(size_t forward_arcs);

  /// Adds arc from->to with `capacity` >= 0 and a zero-capacity reverse
  /// arc; returns the forward arc id (always even). Adding arcs after a
  /// MaxFlow is allowed but undoes the CSR layout, which the next MaxFlow
  /// rebuilds.
  ArcId AddArc(NodeId from, NodeId to, int64_t capacity);

  /// Sets a forward arc's capacity; the next MaxFlow uses it. Reverse (odd)
  /// arc ids are a caller bug — assert in debug builds, ignored (no state
  /// change) in release builds.
  void SetCapacity(ArcId arc, int64_t capacity);

  /// Configured capacity of an arc (0 for a reverse arc).
  int64_t Capacity(ArcId arc) const {
    return (arc & 1u) != 0 ? 0 : capacity_[arc >> 1];
  }

  /// Head node of an arc.
  NodeId Head(ArcId arc) const { return head_[Slot(arc)]; }

  NodeId num_nodes() const { return static_cast<NodeId>(excess_.size()); }
  ArcId num_arcs() const { return static_cast<ArcId>(head_.size()); }

  /// OK when the configured capacities, summed in 128-bit arithmetic, fit
  /// in int64 — the precondition of MaxFlow, since no excess or residual
  /// can exceed that sum. OutOfRange otherwise.
  Status CheckCapacitySum() const;

  /// Max flow from s to t, routed from the configured capacities.
  /// ctx supplies the worker budget and the cooperative stop.
  int64_t MaxFlow(NodeId s, NodeId t,
                  const ExecutionContext& ctx = ExecutionContext());

  /// After a completed MaxFlow(s, t): the inclusion-minimal min-cut source
  /// side (nodes reachable from s in the residual graph), sorted.
  std::vector<NodeId> MinCutSourceSide(NodeId s) const;

  /// After a completed MaxFlow(s, t): the inclusion-maximal min-cut source
  /// side (nodes that cannot reach t in the residual graph), sorted.
  std::vector<NodeId> MaximalMinCutSourceSide(NodeId t) const;

  const FlowStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FlowStats(); }

 private:
  struct WorkerState;

  /// Storage slot of an arc: its id before the CSR is built, its CSR
  /// position after.
  uint32_t Slot(ArcId arc) const {
    if (!csr_) return arc;
    const uint32_t forward = slot_[arc >> 1];
    return (arc & 1u) == 0 ? forward : paired_[forward];
  }

  void BuildCsr();
  void UndoCsr();
  void GlobalRelabel(NodeId s, NodeId t);
  void BuildFrontier(NodeId s, NodeId t, std::vector<NodeId>& frontier);
  void Discharge(NodeId s, NodeId t, const ExecutionContext& ctx);
  /// kShared: other workers discharge concurrently, so shared state goes
  /// through atomics; otherwise plain loads and stores.
  template <bool kShared>
  void DischargeNode(NodeId v, NodeId s, NodeId t, WorkerState& local);
  /// Marks every node that reaches (toward_sink) or is reached from `root`
  /// through arcs with residual capacity left.
  std::vector<char> ResidualReach(NodeId root, bool toward_sink) const;

  // Arc storage, indexed by slot. Before the CSR is built a slot is the
  // arc id (AddArc order; arc ^ 1 is the paired arc, head_[arc ^ 1] the
  // tail). BuildCsr permutes the slots so the arcs leaving v occupy
  // [out_begin_[v], out_begin_[v + 1]) in insertion order, and records
  // each forward arc's slot (slot_[id / 2]) and every arc's paired slot
  // (paired_).
  std::vector<NodeId> head_;
  std::vector<int64_t> residual_;
  // Configured capacities of the forward arcs, by id / 2 (a reverse arc's
  // capacity is always 0).
  std::vector<int64_t> capacity_;
  std::vector<uint32_t> paired_;
  std::vector<uint32_t> out_begin_;
  std::vector<uint32_t> slot_;
  bool csr_ = false;  // slots are in CSR order

  std::vector<int64_t> excess_;
  std::vector<uint32_t> height_;
  std::vector<uint32_t> cursor_;  // current-arc offset per node
  std::vector<uint8_t> queued_;   // CAS-claimed worklist membership

  FlowStats stats_;

  std::vector<NodeId> bfs_queue_;  // global-relabel scratch
};

}  // namespace dsd

#endif  // DSD_FLOW_FLOW_NETWORK_H_
