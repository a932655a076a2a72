// Specialised pattern-degree kernels (appendix D of the paper).
//
// For star and loop (4-cycle "diamond") patterns the generic embedding
// enumerator is overkill: pattern-degrees have closed forms over 1- and 2-hop
// neighborhoods, reducing core decomposition from O(n d^x) to O(n d^2).
// These kernels are cross-checked against the generic engine in tests.
//
// Each closed form has exactly one body: the per-vertex routines below
// (StarDegreeAt, FourCycleDegreeAt, StarPeelAt, FourCyclePeelAt). They are
// templated on an aliveness predicate and an emit functor so that every
// caller instantiates them inline — the whole-graph entry points further
// down with the plain alive mask, the parallel passes of src/parallel/ with
// per-worker scratch and, for batch peeling, a rank-aware predicate.
#ifndef DSD_PATTERN_SPECIAL_H_
#define DSD_PATTERN_SPECIAL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/combinatorics.h"

namespace dsd {

/// Aliveness predicate of a plain mask: empty = every vertex alive.
struct MaskAlive {
  std::span<const char> alive;
  bool operator()(VertexId v) const { return alive.empty() || alive[v] != 0; }
};

/// Number of neighbors of v for which `is_alive` holds.
template <typename Alive>
uint64_t AliveDegree(const Graph& graph, VertexId v, Alive is_alive) {
  uint64_t d = 0;
  for (VertexId u : graph.Neighbors(v)) d += is_alive(u) ? 1 : 0;
  return d;
}

/// Same for the plain mask; an empty (all-alive) mask reads the stored
/// degree instead of scanning the neighbors.
inline uint64_t AliveDegree(const Graph& graph, VertexId v,
                            MaskAlive is_alive) {
  if (is_alive.alive.empty()) return graph.Degree(v);
  return AliveDegree<MaskAlive>(graph, v, is_alive);
}

/// Appendix D.1: x-star degree of the alive vertex v (x >= 2), given the
/// alive degree of every alive vertex:
///   deg(v) = C(D(v), x) + sum over alive neighbors u of C(D(u) - 1, x - 1).
template <typename Alive>
uint64_t StarDegreeAt(const Graph& graph, int x, VertexId v,
                      std::span<const uint64_t> alive_degree, Alive is_alive) {
  const uint64_t ux = static_cast<uint64_t>(x);
  // v as the star center.
  uint64_t d = Binomial(alive_degree[v], ux);
  // v as a tail of a star centered at a neighbor u: choose the remaining
  // x-1 tails among u's other alive neighbors.
  for (VertexId u : graph.Neighbors(v)) {
    if (is_alive(u)) d += Binomial(alive_degree[u] - 1, ux - 1);
  }
  return d;
}

/// Counts the alive 2-paths v-u-w (w != v) into paths[w], listing each
/// endpoint once in `touched` (cleared first). `paths` must be all zero.
template <typename Alive>
void CountTwoPaths(const Graph& graph, VertexId v, Alive is_alive,
                   std::span<uint64_t> paths, std::vector<VertexId>& touched) {
  touched.clear();
  for (VertexId u : graph.Neighbors(v)) {
    if (!is_alive(u)) continue;
    for (VertexId w : graph.Neighbors(u)) {
      if (w == v || !is_alive(w)) continue;
      if (paths[w] == 0) touched.push_back(w);
      ++paths[w];
    }
  }
}

/// Appendix D.2: 4-cycle degree of the alive vertex v. Every pair of
/// distinct 2-paths to the same endpoint w closes a 4-cycle, so
///   deg(v) = sum over 2-hop endpoints w of C(#paths(v, w), 2).
/// `paths` (size n, all zero) and `touched` are caller-owned scratch;
/// `paths` is all zero again on return.
template <typename Alive>
uint64_t FourCycleDegreeAt(const Graph& graph, VertexId v, Alive is_alive,
                           std::span<uint64_t> paths,
                           std::vector<VertexId>& touched) {
  CountTwoPaths(graph, v, is_alive, paths, touched);
  uint64_t d = 0;
  for (VertexId w : touched) {
    d += paths[w] * (paths[w] - 1) / 2;
    paths[w] = 0;
  }
  return d;
}

/// Appendix D.1.2, star peeling: reports via `emit(u, count)` how many
/// x-star instances each other vertex loses when v is removed, via the
/// closed forms over v's 1- and 2-hop neighborhood (O(d^2) instead of
/// enumerating embeddings), and returns the number of destroyed instances.
/// `is_alive` describes the set v is removed from; it is never asked about
/// v itself. `emit` may fire several times per u, and with count 0.
template <typename Alive, typename Emit>
uint64_t StarPeelAt(const Graph& graph, int x, VertexId v, Alive is_alive,
                    Emit&& emit) {
  const uint64_t ux = static_cast<uint64_t>(x);
  // D(w): degree of w in the graph induced by alive ∪ {v} (v participates in
  // the instances being destroyed even though it is no longer alive).
  auto degree_with_v = [&](VertexId w) {
    uint64_t d = 0;
    for (VertexId u : graph.Neighbors(w)) d += (u == v || is_alive(u)) ? 1 : 0;
    return d;
  };
  const uint64_t dv = AliveDegree(graph, v, is_alive);  // D(v)
  uint64_t destroyed = Binomial(dv, ux);
  for (VertexId u : graph.Neighbors(v)) {
    if (!is_alive(u)) continue;
    const uint64_t du = degree_with_v(u);
    destroyed += Binomial(du - 1, ux - 1);
    // Case a: v is the center, u one of its tails — the other x-1 tails come
    // from N(v) \ {u}. Case b: u is the center with v as a tail.
    emit(u, Binomial(dv - 1, ux - 1) + Binomial(du - 1, ux - 1));
    // Case c: u (the current neighbor) is the center of stars that have BOTH
    // v and some other alive tail t: every such star also disappears for t.
    if (du >= 2) {
      const uint64_t shared = Binomial(du - 2, ux - 2);
      if (shared > 0) {
        for (VertexId t : graph.Neighbors(u)) {
          if (t != v && is_alive(t)) emit(t, shared);
        }
      }
    }
  }
  return destroyed;
}

/// Appendix D.2.2, loop (4-cycle) peeling: same contract as StarPeelAt for
/// the diamond pattern, via 2-path group bookkeeping (O(d^2)). Scratch as
/// in FourCycleDegreeAt. `emit` fires only with positive counts.
template <typename Alive, typename Emit>
uint64_t FourCyclePeelAt(const Graph& graph, VertexId v, Alive is_alive,
                         std::span<uint64_t> paths,
                         std::vector<VertexId>& touched, Emit&& emit) {
  // P(w): number of alive 2-paths v -> w. Every unordered pair of such paths
  // is a destroyed 4-cycle.
  CountTwoPaths(graph, v, is_alive, paths, touched);
  uint64_t destroyed = 0;
  for (VertexId w : touched) {
    const uint64_t pairs = paths[w] * (paths[w] - 1) / 2;
    destroyed += pairs;
    // w is the corner opposite v in those cycles.
    if (pairs > 0) emit(w, pairs);
  }
  // Middle vertices: u on the path v-u-w loses one cycle per OTHER path to
  // the same endpoint w.
  for (VertexId u : graph.Neighbors(v)) {
    if (!is_alive(u)) continue;
    uint64_t lost = 0;
    for (VertexId w : graph.Neighbors(u)) {
      if (w == v || !is_alive(w)) continue;
      lost += paths[w] - 1;
    }
    if (lost > 0) emit(u, lost);
  }
  for (VertexId w : touched) paths[w] = 0;
  return destroyed;
}

/// Pattern-degrees for the x-star K_{1,x} restricted to alive vertices
/// (empty alive = all alive), x >= 2 (StarDegreeAt for every vertex).
std::vector<uint64_t> StarDegrees(const Graph& graph, int x,
                                  std::span<const char> alive);

/// Number of x-star instances restricted to alive vertices:
/// each instance has a unique center, so mu = sum_v C(deg(v), x).
uint64_t StarCount(const Graph& graph, int x, std::span<const char> alive);

/// Pattern-degrees for the 4-cycle restricted to alive vertices
/// (FourCycleDegreeAt for every vertex).
std::vector<uint64_t> FourCycleDegrees(const Graph& graph,
                                       std::span<const char> alive);

/// Number of 4-cycle instances restricted to alive vertices
/// (= sum of degrees / 4: each cycle contains 4 vertices).
uint64_t FourCycleCount(const Graph& graph, std::span<const char> alive);

/// StarPeelAt for `v`, which the caller has already cleared from `alive`.
/// `cb(u, count)` may fire several times per u.
uint64_t StarPeelVertex(const Graph& graph, int x, VertexId v,
                        std::span<const char> alive,
                        const std::function<void(VertexId, uint64_t)>& cb);

/// FourCyclePeelAt for `v`, which the caller has already cleared from
/// `alive`.
uint64_t FourCyclePeelVertex(
    const Graph& graph, VertexId v, std::span<const char> alive,
    const std::function<void(VertexId, uint64_t)>& cb);

}  // namespace dsd

#endif  // DSD_PATTERN_SPECIAL_H_
