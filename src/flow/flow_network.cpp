#include "flow/flow_network.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

namespace dsd {
namespace {

/// Relabels consumed per node visit before it yields its worklist slot
/// to the back of the queue.
constexpr uint32_t kMaxRelabelsPerVisit = 8;

}  // namespace

FlowNetwork::FlowNetwork(NodeId num_nodes)
    : excess_(num_nodes, 0),
      height_(num_nodes, 0),
      cursor_(num_nodes, 0) {}

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
/// the source). Also resets the arc cursors — exact heights invalidate
/// saved scan positions.
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
  frontier.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (v != s && v != t && excess_[v] > 0) {
      assert(height_[v] < 2 * n);
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
  std::vector<NodeId> next;
  BuildFrontier(s, t, frontier);
  uint64_t work_since_gr = 0;

  // Every active node (positive excess, not s or t) is in `frontier` or
  // `next` exactly once: it is appended when its excess rises from zero
  // and when it yields. Heights stay a valid labelling, and an active node
  // has a residual path to s, so it never climbs to 2n; an empty worklist
  // therefore means every excess has reached s or t.
  while (!ctx.ShouldStop()) {
    if (frontier.empty()) {
#ifndef NDEBUG
      for (NodeId v = 0; v < num_nodes(); ++v) {
        assert((v == s || v == t || excess_[v] == 0) &&
               "discharge ended with a node still holding excess");
      }
#endif
      return;
    }
    if (work_since_gr >= gr_interval) {
      GlobalRelabel(s, t);
      BuildFrontier(s, t, frontier);
      work_since_gr = 0;
      continue;
    }
    next.clear();
    for (const NodeId v : frontier) {
      work_since_gr += DischargeNode(v, s, t, next);
    }
    frontier.swap(next);
  }
}

uint64_t FlowNetwork::DischargeNode(NodeId v, NodeId s, NodeId t,
                                    std::vector<NodeId>& next) {
  const uint32_t begin = out_begin_[v];
  const uint32_t end = out_begin_[v + 1];
  assert(excess_[v] > 0);
  ++stats_.discharges;
  uint64_t work = 0;
  uint32_t relabels_left = kMaxRelabelsPerVisit;
  uint32_t a = begin + cursor_[v];
  while (true) {
    const uint32_t hv = height_[v];
    for (; a < end; ++a) {
      ++work;
      const NodeId w = head_[a];
      if (residual_[a] == 0 || hv != height_[w] + 1) continue;
      const int64_t amount = std::min(excess_[v], residual_[a]);
      residual_[a] -= amount;
      residual_[paired_[a]] += amount;
      excess_[v] -= amount;
      if (excess_[w] == 0 && w != s && w != t) next.push_back(w);
      excess_[w] += amount;
      ++stats_.pushes;
      if (excess_[v] == 0) {
        cursor_[v] = a - begin;  // the arc may have residual left
        return work;
      }
    }
    if (relabels_left == 0) {
      cursor_[v] = a - begin;
      next.push_back(v);
      return work;
    }
    --relabels_left;
    // Arcs behind the cursor stay inadmissible until v relabels, so every
    // residual arc leads to a node at height >= hv.
    uint32_t best = 2 * num_nodes();
    for (uint32_t b = begin; b < end; ++b) {
      ++work;
      if (residual_[b] > 0) best = std::min(best, height_[head_[b]] + 1);
    }
    assert(best > hv && best < 2 * num_nodes());
    height_[v] = best;
    ++stats_.relabels;
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
