#include "flow/push_relabel.h"

#include <algorithm>
#include <cassert>

namespace dsd {

PushRelabelNetwork::PushRelabelNetwork(NodeId num_nodes) : out_(num_nodes) {}

PushRelabelNetwork::ArcId PushRelabelNetwork::AddArc(NodeId from, NodeId to,
                                                     double capacity) {
  assert(from < num_nodes() && to < num_nodes());
  ArcId id = static_cast<ArcId>(to_.size());
  to_.push_back(to);
  residual_.push_back(capacity);
  initial_capacity_.push_back(capacity);
  out_[from].push_back(id);
  to_.push_back(from);
  residual_.push_back(0);
  initial_capacity_.push_back(0);
  out_[to].push_back(id + 1);
  return id;
}

void PushRelabelNetwork::SetCapacity(ArcId arc, double capacity) {
  assert(arc < to_.size());
  assert((arc & 1u) == 0 &&
         "SetCapacity takes forward arc ids (as returned by AddArc); "
         "retuning a reverse arc would corrupt the residual invariant");
  if (arc >= to_.size() || (arc & 1u) != 0) return;  // release-mode reject
  initial_capacity_[arc] = capacity;
  initial_capacity_[arc ^ 1] = 0.0;
}

void PushRelabelNetwork::Push(NodeId v, ArcId arc) {
  const NodeId w = to_[arc];
  const double amount = std::min(excess_[v], residual_[arc]);
  residual_[arc] -= amount;
  residual_[arc ^ 1] += amount;
  excess_[v] -= amount;
  if (excess_[w] <= kTolerance && amount > kTolerance && w != t_ && w != s_) {
    // w becomes active (never s or t: they are skipped on pop anyway, so
    // enqueueing them is pure queue churn).
    if (height_[w] < active_.size()) {
      active_[height_[w]].push_back(w);
      highest_ = std::max(highest_, height_[w]);
    }
  }
  excess_[w] += amount;
}

void PushRelabelNetwork::Relabel(NodeId v) {
  uint32_t best = 2 * num_nodes();
  for (ArcId a : out_[v]) {
    if (residual_[a] > kTolerance) best = std::min(best, height_[to_[a]] + 1);
  }
  if (height_[v] < count_.size()) --count_[height_[v]];
  height_[v] = best;
  if (best < count_.size()) ++count_[best];
  cursor_[v] = 0;
}

void PushRelabelNetwork::Gap(uint32_t gap_height) {
  // Any node above the gap can never reach t again: lift it past n.
  const NodeId n = num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    if (height_[v] > gap_height && height_[v] < n) {
      --count_[height_[v]];
      height_[v] = n + 1;
      ++count_[n + 1];
      cursor_[v] = 0;
    }
  }
}

double PushRelabelNetwork::MaxFlow(NodeId s, NodeId t) {
  const NodeId n = num_nodes();
  assert(s < n && t < n && s != t);
  s_ = s;
  t_ = t;
  residual_ = initial_capacity_;
  excess_.assign(n, 0.0);
  height_.assign(n, 0);
  count_.assign(2 * n + 2, 0);
  cursor_.assign(n, 0);
  active_.assign(2 * n + 2, {});
  highest_ = 0;
  height_[s] = n;
  count_[0] = n - 1;
  count_[n] = 1;

  // Saturate source arcs.
  for (ArcId a : out_[s]) {
    const double amount = residual_[a];
    if (amount > kTolerance) {
      NodeId w = to_[a];
      residual_[a] = 0;
      residual_[a ^ 1] += amount;
      if (excess_[w] <= kTolerance && w != t && w != s) {
        active_[height_[w]].push_back(w);
      }
      excess_[w] += amount;
    }
  }

  while (true) {
    // Find the highest active node.
    while (highest_ > 0 && active_[highest_].empty()) --highest_;
    if (active_[highest_].empty()) break;
    NodeId v = active_[highest_].back();
    active_[highest_].pop_back();
    if (v == s || v == t || excess_[v] <= kTolerance) continue;
    if (height_[v] != highest_) {
      // Stale entry (node was relabelled since enqueue): re-enqueue at its
      // current height.
      if (height_[v] < active_.size()) {
        active_[height_[v]].push_back(v);
        if (height_[v] > highest_) highest_ = height_[v];
      }
      continue;
    }
    // Discharge v.
    while (excess_[v] > kTolerance && height_[v] < 2 * n) {
      if (cursor_[v] == out_[v].size()) {
        const uint32_t old_height = height_[v];
        Relabel(v);
        if (old_height < n && count_[old_height] == 0) Gap(old_height);
        continue;
      }
      ArcId a = out_[v][cursor_[v]];
      if (residual_[a] > kTolerance && height_[v] == height_[to_[a]] + 1) {
        Push(v, a);
      } else {
        ++cursor_[v];
      }
    }
  }

  // Flow value = excess accumulated at t.
  return excess_[t];
}

std::vector<PushRelabelNetwork::NodeId> PushRelabelNetwork::MinCutSourceSide(
    NodeId s) const {
  std::vector<char> seen(num_nodes(), 0);
  std::vector<NodeId> stack = {s};
  seen[s] = 1;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (ArcId a : out_[v]) {
      if (residual_[a] > kTolerance && !seen[to_[a]]) {
        seen[to_[a]] = 1;
        stack.push_back(to_[a]);
      }
    }
  }
  std::vector<NodeId> side;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (seen[v]) side.push_back(v);
  }
  return side;
}

}  // namespace dsd
