#include "dsd/flow_networks.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "clique/clique_enumerator.h"
#include "dsd/parallel_oracle.h"

namespace dsd {

namespace {

using NodeId = FlowNetwork::NodeId;
using ArcId = FlowNetwork::ArcId;

/// A capacity computed in 128 bits, clamped to int64: a clamped arc makes
/// the capacity-sum check fail instead of wrapping.
int64_t Clamp(__int128 capacity) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  return capacity > kMax ? kMax : static_cast<int64_t>(capacity);
}

// Common shape of the three constructions: node 0 is s, nodes 1..n are the
// graph vertices, the auxiliary nodes follow, the last node is t. Arc 4v is
// s->(v+1) and arc 4v+2 is (v+1)->t; the interior arcs come after them.
// Subclasses add the interior arcs in their constructor and rescale them in
// RescaleInterior.
class FlowSolverBase : public DensestFlowSolver {
 public:
  DensityCut Solve(Density alpha) override {
    assert(alpha.vertices >= 1 && alpha.instances <= scale_.instances &&
           alpha.vertices <= scale_.vertices);
    Rescale(alpha, /*all_forced=*/false);
    const NodeId t = network_.num_nodes() - 1;
    const int64_t flow = network_.MaxFlow(0, t, ctx_);
    DensityCut cut;
    cut.minimal = GraphVertices(network_.MinCutSourceSide(0));
    cut.maximal = GraphVertices(network_.MaximalMinCutSourceSide(t));
    // The cut with vertex side S costs q * total_degree - h * gain(S).
    const __int128 lost =
        static_cast<__int128>(alpha.vertices) * total_degree_ - flow;
    cut.gain = static_cast<int64_t>(lost / h_);
    return cut;
  }

  Density GraphDensity() const override {
    return Density::Of(total_degree_ / h_, std::max<uint64_t>(n_, 1));
  }

  uint64_t NumNodes() const override { return network_.num_nodes(); }

  void ForceToSource(const std::vector<VertexId>& vertices) override {
    for (VertexId v : vertices) forced_[v] = 1;
  }

  FlowStats Stats() const override { return network_.stats(); }

  /// Sizes the solver for alphas up to `scale` (see the factories) and
  /// checks the network fits at that scale. Call once the interior arcs
  /// are in place.
  Status CheckScale(Density scale) {
    scale_ = {std::max(total_degree_ / h_, scale.instances),
              std::max<uint64_t>(n_, scale.vertices)};
    // Capacities only grow with p and q, and a forced source arc is the
    // larger of its two settings, so this is the largest network Solve
    // will route.
    Rescale(scale_, /*all_forced=*/true);
    return network_.CheckCapacitySum();
  }

 protected:
  // Subclasses reserve and add their interior arcs after this.
  FlowSolverBase(VertexId n, NodeId aux_nodes, int h,
                 std::vector<uint64_t> degrees, const ExecutionContext& ctx)
      : n_(n),
        h_(h),
        ctx_(ctx),
        network_(n + aux_nodes + 2),
        degrees_(std::move(degrees)),
        forced_(n, 0) {
    assert(degrees_.size() == n);
    // Saturating: a sum past uint64 already fails the capacity check.
    unsigned __int128 total = 0;
    for (const uint64_t d : degrees_) total += d;
    total_degree_ = total > std::numeric_limits<uint64_t>::max()
                        ? std::numeric_limits<uint64_t>::max()
                        : static_cast<uint64_t>(total);
    network_.ReserveArcs(2 * static_cast<size_t>(n));
    const NodeId t = network_.num_nodes() - 1;
    for (VertexId v = 0; v < n; ++v) {
      network_.AddArc(0, v + 1, 0);
      network_.AddArc(v + 1, t, 0);
    }
  }

  /// Node of auxiliary node i.
  NodeId AuxNode(size_t i) const {
    return static_cast<NodeId>(n_ + 1 + i);
  }

  /// Capacity of an arc standing in for an infinite one into vertex v:
  /// one more than v's out-capacity h * p + q * deg(v).
  int64_t Bound(VertexId v, uint64_t p, uint64_t q) const {
    return Clamp(1 + static_cast<__int128>(h_) * p +
                 static_cast<__int128>(q) * degrees_[v]);
  }

  /// Sets every interior arc for alpha = p / q.
  virtual void RescaleInterior(uint64_t p, uint64_t q) = 0;

  VertexId n_;
  int h_;
  ExecutionContext ctx_;
  FlowNetwork network_;
  std::vector<uint64_t> degrees_;  // deg(v, Psi)
  ArcId interior_begin_ = 0;       // first interior arc

 private:
  void Rescale(Density alpha, bool all_forced) {
    const uint64_t p = alpha.instances;
    const uint64_t q = alpha.vertices;
    const int64_t to_sink = Clamp(static_cast<__int128>(h_) * p);
    for (VertexId v = 0; v < n_; ++v) {
      network_.SetCapacity(4 * v,
                           all_forced || forced_[v]
                               ? Bound(v, p, q)
                               : Clamp(static_cast<__int128>(q) * degrees_[v]));
      network_.SetCapacity(4 * v + 2, to_sink);
    }
    RescaleInterior(p, q);
  }

  std::vector<VertexId> GraphVertices(const std::vector<NodeId>& side) const {
    std::vector<VertexId> vertices;
    for (NodeId node : side) {
      if (node >= 1 && node <= n_) vertices.push_back(node - 1);
    }
    return vertices;
  }

  uint64_t total_degree_ = 0;  // sum of deg(v, Psi) = h * mu
  Density scale_;
  std::vector<char> forced_;
};

// Goldberg's edge-density network.
class EdsFlowSolver : public FlowSolverBase {
 public:
  EdsFlowSolver(const Graph& graph, const ExecutionContext& ctx)
      : FlowSolverBase(graph.NumVertices(), 0, 2, VertexDegrees(graph), ctx) {
    network_.ReserveArcs(2 * graph.NumEdges());
    interior_begin_ = network_.num_arcs();
    for (const Edge& e : graph.Edges()) {
      network_.AddArc(e.first + 1, e.second + 1, 0);
      network_.AddArc(e.second + 1, e.first + 1, 0);
    }
  }

 private:
  static std::vector<uint64_t> VertexDegrees(const Graph& graph) {
    std::vector<uint64_t> degrees(graph.NumVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      degrees[v] = graph.Degree(v);
    }
    return degrees;
  }

  void RescaleInterior(uint64_t, uint64_t q) override {
    const int64_t cap = Clamp(q);
    for (ArcId a = interior_begin_; a < network_.num_arcs(); a += 2) {
      network_.SetCapacity(a, cap);
    }
  }
};

// Algorithm 1's network for h-cliques, h >= 3. Lambda nodes are the
// (h-1)-clique instances.
class CliqueFlowSolver : public FlowSolverBase {
 public:
  // `lambda` holds the (h-1)-cliques back to back; `degrees` are the
  // h-clique degrees, supplied by the caller so the pass can run on a
  // parallel or caching oracle.
  CliqueFlowSolver(const Graph& graph, int h, std::vector<uint64_t> degrees,
                   const std::vector<VertexId>& lambda,
                   const ExecutionContext& ctx)
      : FlowSolverBase(graph.NumVertices(),
                       static_cast<NodeId>(lambda.size() / (h - 1)), h,
                       std::move(degrees), ctx) {
    assert(h >= 3);
    const size_t arity = h - 1;
    const size_t num_psi = lambda.size() / arity;
    // Every h-clique contributes h completion arcs.
    network_.ReserveArcs(lambda.size() +
                         std::accumulate(degrees_.begin(), degrees_.end(),
                                         size_t{0}));
    // psi -> members (bounded), one block, so RescaleInterior can tell
    // them apart from the completions by arc id alone.
    interior_begin_ = network_.num_arcs();
    for (size_t i = 0; i < num_psi; ++i) {
      for (size_t j = 0; j < arity; ++j) {
        network_.AddArc(AuxNode(i), lambda[i * arity + j] + 1, 0);
      }
    }
    completions_begin_ = network_.num_arcs();
    // v -> psi (capacity q) when v completes psi, i.e. v is adjacent to
    // every member: intersect the members' sorted adjacency lists.
    std::vector<VertexId> completions;
    std::vector<VertexId> next;
    for (size_t i = 0; i < num_psi; ++i) {
      const VertexId* members = lambda.data() + i * arity;
      completions.assign(graph.Neighbors(members[0]).begin(),
                         graph.Neighbors(members[0]).end());
      for (size_t j = 1; j < arity && !completions.empty(); ++j) {
        auto nbrs = graph.Neighbors(members[j]);
        next.clear();
        std::set_intersection(completions.begin(), completions.end(),
                              nbrs.begin(), nbrs.end(),
                              std::back_inserter(next));
        completions.swap(next);
      }
      for (VertexId v : completions) network_.AddArc(v + 1, AuxNode(i), 0);
    }
  }

 private:
  void RescaleInterior(uint64_t p, uint64_t q) override {
    for (ArcId a = interior_begin_; a < completions_begin_; a += 2) {
      network_.SetCapacity(a, Bound(network_.Head(a) - 1, p, q));
    }
    const int64_t cap = Clamp(q);
    for (ArcId a = completions_begin_; a < network_.num_arcs(); a += 2) {
      network_.SetCapacity(a, cap);
    }
  }

  ArcId completions_begin_ = 0;
};

// Algorithm 8 (grouped = false) / construct+ Algorithm 7 (grouped = true).
// Auxiliary node i stands for weights_[i] instances on one vertex set
// (always 1 when ungrouped); its arcs are, per member v, v->i with weight
// weights_[i] then i->v with weight weights_[i] * (h - 1).
class PatternFlowSolver : public FlowSolverBase {
 public:
  PatternFlowSolver(const Graph& graph, const MotifOracle& oracle,
                    bool grouped, const ExecutionContext& ctx)
      : PatternFlowSolver(graph, oracle.MotifSize(), oracle.Groups(graph, {}),
                          grouped, oracle.Degrees(graph, {}, ctx), ctx) {}

 private:
  PatternFlowSolver(const Graph& graph, int h,
                    const std::vector<InstanceGroup>& groups, bool grouped,
                    std::vector<uint64_t> degrees, const ExecutionContext& ctx)
      : FlowSolverBase(graph.NumVertices(), AuxCount(groups, grouped), h,
                       std::move(degrees), ctx) {
    weights_.reserve(AuxCount(groups, grouped));
    for (const InstanceGroup& g : groups) {
      if (grouped) {
        weights_.push_back(g.multiplicity);
      } else {
        weights_.insert(weights_.end(), g.multiplicity, 1);
      }
    }
    network_.ReserveArcs(2 * static_cast<size_t>(h) * weights_.size());
    interior_begin_ = network_.num_arcs();
    size_t aux = 0;
    for (const InstanceGroup& g : groups) {
      assert(g.vertices.size() == static_cast<size_t>(h));
      const uint64_t copies = grouped ? 1 : g.multiplicity;
      for (uint64_t c = 0; c < copies; ++c, ++aux) {
        for (VertexId v : g.vertices) {
          network_.AddArc(v + 1, AuxNode(aux), 0);
          network_.AddArc(AuxNode(aux), v + 1, 0);
        }
      }
    }
  }

  static NodeId AuxCount(const std::vector<InstanceGroup>& groups,
                         bool grouped) {
    if (grouped) return static_cast<NodeId>(groups.size());
    uint64_t instances = 0;
    for (const InstanceGroup& g : groups) instances += g.multiplicity;
    return static_cast<NodeId>(instances);
  }

  void RescaleInterior(uint64_t, uint64_t q) override {
    ArcId a = interior_begin_;
    for (const uint64_t weight : weights_) {
      const __int128 in = static_cast<__int128>(q) * weight;
      const int64_t to_aux = Clamp(in);
      const int64_t from_aux = Clamp(in * (h_ - 1));
      for (int j = 0; j < h_; ++j, a += 4) {
        network_.SetCapacity(a, to_aux);
        network_.SetCapacity(a + 2, from_aux);
      }
    }
  }

  std::vector<uint64_t> weights_;
};

/// Finishes a factory: sizes the solver for `scale` and checks it fits.
template <typename SolverT>
FlowSolverOr Checked(std::unique_ptr<SolverT> solver, Density scale) {
  Status status = solver->CheckScale(scale);
  if (!status.ok()) return status;
  return std::unique_ptr<DensestFlowSolver>(std::move(solver));
}

/// The (h-1)-cliques of `graph`, back to back.
std::vector<VertexId> SubCliques(const Graph& graph, int h) {
  std::vector<VertexId> lambda;
  CliqueEnumerator sub_cliques(graph, h - 1);
  sub_cliques.Enumerate([&lambda](std::span<const VertexId> c) {
    lambda.insert(lambda.end(), c.begin(), c.end());
  });
  return lambda;
}

}  // namespace

uint64_t DensityCut::Instances(Density alpha,
                               const std::vector<VertexId>& side) const {
  const __int128 scaled =
      gain + static_cast<__int128>(alpha.instances) * side.size();
  assert(scaled >= 0 && scaled % alpha.vertices == 0);
  return static_cast<uint64_t>(scaled / alpha.vertices);
}

FlowSolverOr MakeEdsFlowSolver(const Graph& graph, const ExecutionContext& ctx,
                               Density scale) {
  return Checked(std::make_unique<EdsFlowSolver>(graph, ctx), scale);
}

FlowSolverOr MakeCliqueFlowSolver(const Graph& graph, int h,
                                  const ExecutionContext& ctx,
                                  Density scale) {
  // One dispatch path for the degree pass: the parallel oracle degrades to
  // the sequential enumeration under a 1-thread context.
  ParallelCliqueOracle oracle(h);
  return Checked(
      std::make_unique<CliqueFlowSolver>(graph, h,
                                         oracle.Degrees(graph, {}, ctx),
                                         SubCliques(graph, h), ctx),
      scale);
}

FlowSolverOr MakePatternFlowSolver(const Graph& graph,
                                   const MotifOracle& oracle, bool grouped,
                                   const ExecutionContext& ctx,
                                   Density scale) {
  return Checked(
      std::make_unique<PatternFlowSolver>(graph, oracle, grouped, ctx), scale);
}

FlowSolverOr MakeDefaultFlowSolver(const Graph& graph,
                                   const MotifOracle& oracle,
                                   const ExecutionContext& ctx,
                                   Density scale) {
  // Dispatch on the undecorated oracle so a CachingOracle around a clique
  // oracle still gets the clique network; the degree pass itself goes
  // through the decorated `oracle`, keeping memoization and parallelism.
  if (const auto* clique =
          dynamic_cast<const CliqueOracle*>(&oracle.Underlying())) {
    if (clique->h() == 2) return MakeEdsFlowSolver(graph, ctx, scale);
    return Checked(std::make_unique<CliqueFlowSolver>(
                       graph, clique->h(), oracle.Degrees(graph, {}, ctx),
                       SubCliques(graph, clique->h()), ctx),
                   scale);
  }
  return MakePatternFlowSolver(graph, oracle, /*grouped=*/true, ctx, scale);
}

}  // namespace dsd
