#include "pattern/special.h"

#include <cassert>

namespace dsd {

std::vector<uint64_t> StarDegrees(const Graph& graph, int x,
                                  std::span<const char> alive) {
  // x == 1 (a single edge) is excluded: center and tail are then symmetric
  // and the closed form would double count.
  assert(x >= 2);
  const VertexId n = graph.NumVertices();
  const MaskAlive is_alive{alive};
  std::vector<uint64_t> alive_degree(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (is_alive(v)) alive_degree[v] = AliveDegree(graph, v, is_alive);
  }
  std::vector<uint64_t> degrees(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (is_alive(v)) {
      degrees[v] = StarDegreeAt(graph, x, v, alive_degree, is_alive);
    }
  }
  return degrees;
}

uint64_t StarCount(const Graph& graph, int x, std::span<const char> alive) {
  const MaskAlive is_alive{alive};
  uint64_t total = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!is_alive(v)) continue;
    total +=
        Binomial(AliveDegree(graph, v, is_alive), static_cast<uint64_t>(x));
  }
  return total;
}

std::vector<uint64_t> FourCycleDegrees(const Graph& graph,
                                       std::span<const char> alive) {
  const VertexId n = graph.NumVertices();
  const MaskAlive is_alive{alive};
  std::vector<uint64_t> degrees(n, 0);
  std::vector<uint64_t> paths(n, 0);
  std::vector<VertexId> touched;
  for (VertexId v = 0; v < n; ++v) {
    if (is_alive(v)) {
      degrees[v] = FourCycleDegreeAt(graph, v, is_alive, paths, touched);
    }
  }
  return degrees;
}

uint64_t FourCycleCount(const Graph& graph, std::span<const char> alive) {
  uint64_t total = 0;
  for (uint64_t d : FourCycleDegrees(graph, alive)) total += d;
  assert(total % 4 == 0);
  return total / 4;
}

uint64_t StarPeelVertex(const Graph& graph, int x, VertexId v,
                        std::span<const char> alive,
                        const std::function<void(VertexId, uint64_t)>& cb) {
  assert(x >= 2);
  return StarPeelAt(graph, x, v, MaskAlive{alive}, cb);
}

uint64_t FourCyclePeelVertex(
    const Graph& graph, VertexId v, std::span<const char> alive,
    const std::function<void(VertexId, uint64_t)>& cb) {
  std::vector<uint64_t> paths(graph.NumVertices(), 0);
  std::vector<VertexId> touched;
  return FourCyclePeelAt(graph, v, MaskAlive{alive}, paths, touched, cb);
}

}  // namespace dsd
