// Pattern (motif) descriptions for the PDS problem (Section 7).
//
// A pattern is a small connected simple graph Psi(V_Psi, E_Psi). Instances in
// a data graph are subgraphs (not necessarily vertex-induced) isomorphic to
// Psi, distinguished by edge set and not by automorphism (Definition 8 and
// the remark below it).
#ifndef DSD_PATTERN_PATTERN_H_
#define DSD_PATTERN_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace dsd {

/// A small connected pattern graph. Vertex ids are 0..size-1.
class Pattern {
 public:
  /// Builds a pattern from explicit edges; `name` is for display.
  /// Duplicate edges and self-loops are rejected (assert).
  Pattern(std::string name, int num_vertices, std::vector<Edge> edges);

  // --- The paper's pattern vocabulary (Figure 7).

  /// Single edge (2-clique).
  static Pattern EdgePattern();
  /// Triangle (3-clique).
  static Pattern Triangle();
  /// h-clique, h >= 2.
  static Pattern Clique(int h);
  /// Star with x tail vertices: K_{1,x}. Star(2) is the paper's "2-star".
  static Pattern Star(int x);
  /// 2-star: K_{1,2} (path on three vertices).
  static Pattern TwoStar();
  /// 3-star: K_{1,3}.
  static Pattern ThreeStar();
  /// c3-star (paw): triangle plus a pendant edge.
  static Pattern C3Star();
  /// Diamond: the 4-cycle C4 (the "loop" pattern of appendix D).
  static Pattern Diamond();
  /// 2-triangle: two triangles sharing an edge (K4 minus an edge).
  static Pattern TwoTriangle();
  /// 3-triangle: book graph B3 — three triangles sharing a common edge.
  static Pattern ThreeTriangle();
  /// Basket: house graph — a 4-cycle with a roof triangle (5 vertices).
  static Pattern Basket();
  /// Cycle C_len, len >= 3.
  static Pattern Cycle(int len);

  const std::string& name() const { return name_; }
  int size() const { return num_vertices_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Adjacency test in the pattern.
  bool HasEdge(int u, int v) const {
    return (adjacency_[u] >> v) & 1u;
  }

  /// Neighbor bitmask of pattern vertex u.
  uint32_t AdjacencyMask(int u) const { return adjacency_[u]; }

  /// Degree of pattern vertex u.
  int Degree(int u) const;

  /// True iff the pattern is connected (required by the PDS problem).
  bool IsConnected() const;

  /// True iff the pattern is a complete graph.
  bool IsClique() const;

  /// If the pattern is a star K_{1,x} with x >= 2, returns x; otherwise 0.
  int StarTails() const;

  /// True iff the pattern is the 4-cycle.
  bool IsFourCycle() const;

  /// All automorphisms, each as a permutation image vector. Computed by
  /// brute force (patterns are tiny). Cached after first call.
  const std::vector<std::vector<int>>& Automorphisms() const;

  /// Number of automorphisms |Aut(Psi)|.
  uint64_t AutomorphismCount() const { return Automorphisms().size(); }

 private:
  std::string name_;
  int num_vertices_;
  std::vector<Edge> edges_;
  std::vector<uint32_t> adjacency_;  // bitmask per vertex
  mutable std::vector<std::vector<int>> automorphisms_;  // lazy cache
};

}  // namespace dsd

#endif  // DSD_PATTERN_PATTERN_H_
