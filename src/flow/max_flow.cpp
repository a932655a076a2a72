#include "flow/max_flow.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace dsd {

MaxFlowNetwork::MaxFlowNetwork(NodeId num_nodes) : out_(num_nodes) {}

MaxFlowNetwork::ArcId MaxFlowNetwork::AddArc(NodeId from, NodeId to,
                                             double capacity) {
  assert(from < num_nodes() && to < num_nodes());
  assert(capacity >= 0);
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

void MaxFlowNetwork::SetCapacity(ArcId arc, double capacity) {
  assert(arc < num_arcs());
  assert((arc & 1u) == 0 &&
         "SetCapacity takes forward arc ids (as returned by AddArc); "
         "retuning a reverse arc would corrupt the residual invariant");
  assert(capacity >= 0);
  if (arc >= num_arcs() || (arc & 1u) != 0) return;  // release-mode reject
  initial_capacity_[arc] = capacity;
  initial_capacity_[arc ^ 1] = 0.0;
}

bool MaxFlowNetwork::BuildLevels(NodeId s, NodeId t) {
  level_.assign(num_nodes(), UINT32_MAX);
  level_[s] = 0;
  std::queue<NodeId> queue;
  queue.push(s);
  while (!queue.empty()) {
    NodeId v = queue.front();
    queue.pop();
    for (ArcId a : out_[v]) {
      if (residual_[a] > kTolerance && level_[to_[a]] == UINT32_MAX) {
        level_[to_[a]] = level_[v] + 1;
        queue.push(to_[a]);
      }
    }
  }
  return level_[t] != UINT32_MAX;
}

double MaxFlowNetwork::Push(NodeId v, NodeId t, double limit) {
  if (v == t) return limit;
  for (uint32_t& i = iter_[v]; i < out_[v].size(); ++i) {
    ArcId a = out_[v][i];
    NodeId w = to_[a];
    if (residual_[a] > kTolerance && level_[w] == level_[v] + 1) {
      double pushed = Push(w, t, std::min(limit, residual_[a]));
      if (pushed > kTolerance) {
        residual_[a] -= pushed;
        residual_[a ^ 1] += pushed;
        return pushed;
      }
    }
  }
  return 0;
}

double MaxFlowNetwork::MaxFlow(NodeId s, NodeId t) {
  assert(s < num_nodes() && t < num_nodes() && s != t);
  residual_ = initial_capacity_;
  double flow = 0;
  while (BuildLevels(s, t)) {
    iter_.assign(num_nodes(), 0);
    while (true) {
      double pushed = Push(s, t, kInfinity);
      if (pushed <= kTolerance) break;
      flow += pushed;
    }
  }
  return flow;
}

std::vector<MaxFlowNetwork::NodeId> MaxFlowNetwork::MinCutSourceSide(
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
