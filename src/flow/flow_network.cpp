#include "flow/flow_network.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <string>

#include "parallel/parallel_for.h"

namespace dsd {
namespace {

// All shared flow state (residual_, excess_, height_, queued_) lives in
// plain vectors — std::atomic is not movable. In a parallel round every
// access that can race goes through std::atomic_ref (kShared = true); the
// per-round thread join is the synchronisation point, and within a round
// the default (seq_cst) orderings keep the invariant reasoning simple.
// Sequential rounds use the same code with plain accesses.

template <bool kShared, typename T>
inline T Load(const T& ref) {
  if constexpr (kShared) {
    return std::atomic_ref<T>(const_cast<T&>(ref)).load();
  } else {
    return ref;
  }
}

/// Returns the value before the add.
template <bool kShared>
inline int64_t Add(int64_t& ref, int64_t delta) {
  if constexpr (kShared) {
    return std::atomic_ref<int64_t>(ref).fetch_add(delta);
  } else {
    const int64_t before = ref;
    ref += delta;
    return before;
  }
}

template <bool kShared>
inline void Store(uint32_t& ref, uint32_t value) {
  if constexpr (kShared) {
    std::atomic_ref<uint32_t>(ref).store(value);
  } else {
    ref = value;
  }
}

/// One-shot 0 -> 1 claim; the winner owns enqueueing the node.
template <bool kShared>
inline bool TryClaim(uint8_t& flag) {
  if constexpr (kShared) {
    uint8_t expected = 0;
    return std::atomic_ref<uint8_t>(flag).compare_exchange_strong(expected,
                                                                   1);
  } else {
    if (flag != 0) return false;
    flag = 1;
    return true;
  }
}

template <bool kShared>
inline void ReleaseClaim(uint8_t& flag) {
  if constexpr (kShared) {
    std::atomic_ref<uint8_t>(flag).store(0);
  } else {
    flag = 0;
  }
}

/// Relabels consumed per node visit before it yields its worklist slot —
/// keeps one stuck node from starving the round.
constexpr uint32_t kMaxRelabelsPerVisit = 8;

/// Below this frontier size a round stays on the calling thread: spawning
/// workers costs more than the discharges they would do.
constexpr size_t kParallelCutoff = 512;

}  // namespace

/// Per-worker scratch for one discharge round; merged after the join, so
/// stats and the next frontier never race.
struct FlowNetwork::WorkerState {
  std::vector<NodeId> next;
  uint64_t discharges = 0;
  uint64_t pushes = 0;
  uint64_t relabels = 0;
  uint64_t work = 0;  // arc scans, for the global-relabel heartbeat
};

FlowNetwork::FlowNetwork(NodeId num_nodes)
    : excess_(num_nodes, 0),
      height_(num_nodes, 0),
      cursor_(num_nodes, 0),
      queued_(num_nodes, 0) {}

void FlowNetwork::ReserveArcs(size_t forward_arcs) {
  head_.reserve(head_.size() + 2 * forward_arcs);
  capacity_.reserve(capacity_.size() + forward_arcs);
}

FlowNetwork::ArcId FlowNetwork::AddArc(NodeId from, NodeId to,
                                       int64_t capacity) {
  assert(from < num_nodes() && to < num_nodes());
  assert(capacity >= 0);
  if (csr_) UndoCsr();
  const ArcId id = static_cast<ArcId>(head_.size());
  head_.push_back(to);
  head_.push_back(from);
  capacity_.push_back(capacity);
  return id;
}

void FlowNetwork::SetCapacity(ArcId arc, int64_t capacity) {
  assert(arc < num_arcs());
  assert((arc & 1u) == 0 &&
         "SetCapacity takes forward arc ids (as returned by AddArc); "
         "a reverse arc's capacity is always zero");
  assert(capacity >= 0);
  if (arc >= num_arcs() || (arc & 1u) != 0) return;  // release-mode reject
  capacity_[arc >> 1] = capacity;
}

Status FlowNetwork::CheckCapacitySum() const {
  __int128 sum = 0;
  for (const int64_t capacity : capacity_) sum += capacity;
  if (sum > std::numeric_limits<int64_t>::max()) {
    return Status::OutOfRange(
        "flow network capacities sum past int64 (" +
        std::to_string(num_arcs() / 2) + " arcs)");
  }
  return Status::Ok();
}

void FlowNetwork::BuildCsr() {
  const NodeId n = num_nodes();
  const ArcId arcs = num_arcs();
  out_begin_.assign(n + 1, 0);
  for (ArcId a = 0; a < arcs; ++a) ++out_begin_[head_[a ^ 1] + 1];
  for (NodeId v = 0; v < n; ++v) out_begin_[v + 1] += out_begin_[v];
  std::vector<uint32_t> slot(arcs);
  {
    std::vector<uint32_t> fill(out_begin_.begin(), out_begin_.end() - 1);
    for (ArcId a = 0; a < arcs; ++a) slot[a] = fill[head_[a ^ 1]]++;
  }
  paired_.resize(arcs);
  for (ArcId a = 0; a < arcs; ++a) paired_[slot[a]] = slot[a ^ 1];
  {
    std::vector<NodeId> head(arcs);
    for (ArcId a = 0; a < arcs; ++a) head[slot[a]] = head_[a];
    head_.swap(head);
  }
  slot_.resize(arcs / 2);
  for (ArcId a = 0; a < arcs; a += 2) slot_[a / 2] = slot[a];
  csr_ = true;
}

void FlowNetwork::UndoCsr() {
  const ArcId arcs = num_arcs();
  std::vector<NodeId> head(arcs);
  for (ArcId a = 0; a < arcs; ++a) head[a] = head_[Slot(a)];
  head_.swap(head);
  slot_.clear();
  paired_.clear();
  csr_ = false;
}

/// Exact-distance relabel of every node against the current residual graph:
/// a two-ended BFS from t (height = distance to t) then from s (height =
/// n + distance to s, the phase-2 labels that route trapped excess back to
/// the source). Runs sequentially between discharge rounds, so plain
/// accesses are safe. Also resets the arc cursors — exact heights
/// invalidate saved scan positions.
void FlowNetwork::GlobalRelabel(NodeId s, NodeId t) {
  ++stats_.global_relabels;
  const NodeId n = num_nodes();
  const uint32_t unreachable = 2 * n;
  std::fill(height_.begin(), height_.end(), unreachable);
  bfs_queue_.clear();
  height_[t] = 0;
  bfs_queue_.push_back(t);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId v = bfs_queue_[head];
    const uint32_t dv = height_[v];
    for (uint32_t a = out_begin_[v]; a < out_begin_[v + 1]; ++a) {
      const NodeId w = head_[a];
      // w can still push to v iff the arc w->v (the pair of v's arc a)
      // has residual left.
      if (height_[w] == unreachable && w != s && residual_[paired_[a]] > 0) {
        height_[w] = dv + 1;
        bfs_queue_.push_back(w);
      }
    }
  }
  height_[s] = n;
  bfs_queue_.clear();
  bfs_queue_.push_back(s);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId v = bfs_queue_[head];
    const uint32_t dv = height_[v];
    for (uint32_t a = out_begin_[v]; a < out_begin_[v + 1]; ++a) {
      const NodeId w = head_[a];
      if (height_[w] == unreachable && residual_[paired_[a]] > 0) {
        height_[w] = dv + 1;  // = n + distance-to-s, < 2n
        bfs_queue_.push_back(w);
      }
    }
  }
  // Nodes still at 2n have no residual path to s, so they cannot hold
  // excess (excess always arrives over an arc whose reversal leads back
  // to the source); leaving them parked is safe.
  std::fill(cursor_.begin(), cursor_.end(), 0);
}

void FlowNetwork::BuildFrontier(NodeId s, NodeId t,
                                std::vector<NodeId>& frontier) {
  const NodeId n = num_nodes();
  const uint32_t hmax = 2 * n;
  frontier.clear();
  std::fill(queued_.begin(), queued_.end(), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v != s && v != t && excess_[v] > 0 && height_[v] < hmax) {
      queued_[v] = 1;
      frontier.push_back(v);
    }
  }
}

int64_t FlowNetwork::MaxFlow(NodeId s, NodeId t, const ExecutionContext& ctx) {
  assert(s < num_nodes() && t < num_nodes() && s != t);
  assert(CheckCapacitySum().ok());
  ++stats_.max_flow_calls;
  if (!csr_) BuildCsr();
  residual_.assign(num_arcs(), 0);
  for (size_t i = 0; i < capacity_.size(); ++i) {
    residual_[slot_[i]] = capacity_[i];
  }
  std::fill(excess_.begin(), excess_.end(), 0);

  // Exact heights first, then saturate the source arcs whose head can
  // reach t; the others could only bounce their flow straight back.
  GlobalRelabel(s, t);
  for (uint32_t a = out_begin_[s]; a < out_begin_[s + 1]; ++a) {
    const int64_t amount = residual_[a];
    if (amount == 0 || height_[head_[a]] >= num_nodes()) continue;
    residual_[a] = 0;
    residual_[paired_[a]] += amount;
    excess_[head_[a]] += amount;
  }

  Discharge(s, t, ctx);
  return excess_[t];
}

void FlowNetwork::Discharge(NodeId s, NodeId t, const ExecutionContext& ctx) {
  // Heartbeat: refresh exact heights after ~one residual-graph sweep worth
  // of scan work — the amortised replacement for a per-relabel gap scan.
  const uint64_t gr_interval =
      std::max<uint64_t>(4ull * num_nodes() + num_arcs(), 1024);
  std::vector<NodeId> frontier;
  BuildFrontier(s, t, frontier);
  uint64_t work_since_gr = 0;

  while (!ctx.ShouldStop()) {
    if (frontier.empty()) {
      // Concurrent relabels can overshoot exact distances and park nodes
      // at 2n with excess; one exact relabel re-admits them. Done only
      // when the frontier is empty against exact heights.
      GlobalRelabel(s, t);
      BuildFrontier(s, t, frontier);
      work_since_gr = 0;
      if (frontier.empty()) return;
      continue;
    }
    if (work_since_gr >= gr_interval) {
      GlobalRelabel(s, t);
      BuildFrontier(s, t, frontier);
      work_since_gr = 0;
      continue;
    }
    const unsigned threads =
        ResolveThreadCount(ctx.threads, frontier.size());
    if (threads <= 1 || frontier.size() < kParallelCutoff) {
      WorkerState local;
      for (const NodeId v : frontier) {
        ReleaseClaim<false>(queued_[v]);
        DischargeNode<false>(v, s, t, local);
      }
      frontier.swap(local.next);
      stats_.discharges += local.discharges;
      stats_.pushes += local.pushes;
      stats_.relabels += local.relabels;
      work_since_gr += local.work;
    } else {
      std::vector<WorkerState> states(threads);
      ParallelForStrided(frontier.size(), threads,
                         [&](unsigned worker, uint64_t i) {
                           const NodeId v = frontier[i];
                           // Release before discharging so excess arriving
                           // mid-visit re-enqueues v for the next round.
                           ReleaseClaim<true>(queued_[v]);
                           DischargeNode<true>(v, s, t, states[worker]);
                         });
      frontier.clear();
      for (const WorkerState& st : states) {
        frontier.insert(frontier.end(), st.next.begin(), st.next.end());
        stats_.discharges += st.discharges;
        stats_.pushes += st.pushes;
        stats_.relabels += st.relabels;
        work_since_gr += st.work;
      }
    }
  }
}

template <bool kShared>
void FlowNetwork::DischargeNode(NodeId v, NodeId s, NodeId t,
                                WorkerState& local) {
  const uint32_t hmax = 2 * num_nodes();
  const uint32_t begin = out_begin_[v];
  const uint32_t end = out_begin_[v + 1];
  int64_t ev = Load<kShared>(excess_[v]);
  if (ev <= 0) return;
  ++local.discharges;
  uint32_t relabels_left = kMaxRelabelsPerVisit;
  uint32_t a = begin + cursor_[v];
  while (true) {
    const uint32_t hv = Load<kShared>(height_[v]);
    if (hv >= hmax) {
      // Parked above every label; the next global relabel re-admits v if
      // it still holds excess.
      cursor_[v] = 0;
      return;
    }
    while (a < end && ev > 0) {
      ++local.work;
      const int64_t ra = Load<kShared>(residual_[a]);
      const NodeId w = head_[a];
      // A concurrent relabel of the head can make this check stale — the
      // push then lands one level too low. Harmless: the preflow stays
      // valid, and the heartbeat's exact relabel restores admissibility.
      if (ra > 0 && hv == Load<kShared>(height_[w]) + 1) {
        const int64_t amount = std::min(ev, ra);
        Add<kShared>(residual_[a], -amount);
        Add<kShared>(residual_[paired_[a]], amount);
        Add<kShared>(excess_[v], -amount);
        const int64_t w_before = Add<kShared>(excess_[w], amount);
        ev -= amount;
        ++local.pushes;
        // Inactive -> active transition: exactly one pusher sees the old
        // excess at zero and owns the (claimed) enqueue.
        if (w_before <= 0 && w != s && w != t &&
            TryClaim<kShared>(queued_[w])) {
          local.next.push_back(w);
        }
        if (ev > 0) ++a;  // arc saturated; otherwise stay on it
      } else {
        ++a;
      }
    }
    // Re-read: pushes from other workers may have landed mid-visit.
    ev = Load<kShared>(excess_[v]);
    if (ev <= 0) {
      cursor_[v] = a - begin;
      return;
    }
    if (a < end) continue;  // fresh excess, cursor still live
    if (relabels_left == 0) {
      // Yield the slot instead of monopolising the round.
      cursor_[v] = a - begin;
      if (TryClaim<kShared>(queued_[v])) local.next.push_back(v);
      return;
    }
    --relabels_left;
    uint32_t best = hmax;
    for (uint32_t b = begin; b < end; ++b) {
      ++local.work;
      if (Load<kShared>(residual_[b]) > 0) {
        const uint32_t hw = Load<kShared>(height_[head_[b]]);
        if (hw + 1 < best) best = hw + 1;
      }
    }
    const uint32_t hv_now = Load<kShared>(height_[v]);
    Store<kShared>(height_[v], std::min(std::max(best, hv_now + 1), hmax));
    ++local.relabels;
    a = begin;
  }
}

std::vector<char> FlowNetwork::ResidualReach(NodeId root,
                                             bool toward_sink) const {
  assert(csr_ && residual_.size() == head_.size() &&
         "cut sides are defined after a MaxFlow");
  std::vector<char> seen(num_nodes(), 0);
  std::vector<NodeId> stack = {root};
  seen[root] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (uint32_t a = out_begin_[v]; a < out_begin_[v + 1]; ++a) {
      const NodeId w = head_[a];
      // Forward search follows v->w with residual left; the search toward
      // the sink follows w->v (the paired arc) backwards.
      if (!seen[w] && residual_[toward_sink ? paired_[a] : a] > 0) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

std::vector<FlowNetwork::NodeId> FlowNetwork::MinCutSourceSide(
    NodeId s) const {
  const std::vector<char> reached = ResidualReach(s, /*toward_sink=*/false);
  std::vector<NodeId> side;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (reached[v]) side.push_back(v);
  }
  return side;
}

std::vector<FlowNetwork::NodeId> FlowNetwork::MaximalMinCutSourceSide(
    NodeId t) const {
  const std::vector<char> reaches_t = ResidualReach(t, /*toward_sink=*/true);
  std::vector<NodeId> side;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!reaches_t[v]) side.push_back(v);
  }
  return side;
}

}  // namespace dsd
