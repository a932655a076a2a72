// Push-relabel max-flow (highest-label selection, gap + global-relabel
// heuristics), real-valued capacities.
//
// Second max-flow backend beside Dinic (flow/max_flow.h). The paper computes
// its min cuts with Gusfield's variant of push-relabel-era algorithms; we
// keep two independent solvers so the flow layer can be cross-validated
// (tests assert identical flow values and equivalent cuts) and benchmarked
// (bench_ablation_flow) on the DSD networks.
#ifndef DSD_FLOW_PUSH_RELABEL_H_
#define DSD_FLOW_PUSH_RELABEL_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace dsd {

/// Highest-label push-relabel max-flow with the gap heuristic.
class PushRelabelNetwork {
 public:
  using NodeId = uint32_t;
  using ArcId = uint32_t;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  static constexpr double kTolerance = 1e-9;

  explicit PushRelabelNetwork(NodeId num_nodes);

  /// Adds arc from->to with `capacity` and a zero reverse arc; returns the
  /// arc id.
  ArcId AddArc(NodeId from, NodeId to, double capacity);

  /// Retunes an arc's capacity (takes effect at the next MaxFlow call).
  void SetCapacity(ArcId arc, double capacity);

  NodeId num_nodes() const { return static_cast<NodeId>(out_.size()); }

  /// Max flow from s to t. Resets previous flow state.
  double MaxFlow(NodeId s, NodeId t);

  /// After MaxFlow: source side of a minimum cut (residual reachability
  /// from s). Sorted.
  std::vector<NodeId> MinCutSourceSide(NodeId s) const;

 private:
  void Push(NodeId v, ArcId arc);
  void Relabel(NodeId v);
  void Gap(uint32_t height);

  std::vector<std::vector<ArcId>> out_;
  std::vector<NodeId> to_;
  std::vector<double> residual_;
  std::vector<double> initial_capacity_;

  std::vector<double> excess_;
  std::vector<uint32_t> height_;
  std::vector<uint32_t> count_;   // nodes per height (gap heuristic)
  std::vector<uint32_t> cursor_;  // current-arc pointer per node
  // Highest-label bucket queue of active nodes.
  std::vector<std::vector<NodeId>> active_;
  uint32_t highest_ = 0;
  // Terminals of the running MaxFlow; Push never activates them.
  NodeId s_ = 0;
  NodeId t_ = 0;
};

}  // namespace dsd

#endif  // DSD_FLOW_PUSH_RELABEL_H_
