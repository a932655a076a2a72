#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "dsd/solver.h"

namespace perfbench {
namespace {

uint64_t CountEdgesFromCsr(const dsd::Graph& graph,
                           const std::vector<dsd::VertexId>& sorted) {
  uint64_t edges = 0;
  for (const dsd::VertexId v : sorted) {
    for (const dsd::VertexId u : graph.Neighbors(v)) {
      if (u > v && std::binary_search(sorted.begin(), sorted.end(), u)) {
        ++edges;
      }
    }
  }
  return edges;
}

}  // namespace

std::string CheckAnswer(const dsd::Graph& graph, const std::string& motif,
                        const dsd::DensestResult& result) {
  const std::vector<dsd::VertexId>& vertices = result.vertices;
  if (vertices.empty()) return "empty answer";
  if (!std::is_sorted(vertices.begin(), vertices.end()) ||
      std::adjacent_find(vertices.begin(), vertices.end()) != vertices.end()) {
    return "answer vertices not sorted and distinct";
  }
  if (vertices.back() >= graph.NumVertices()) return "answer vertex out of range";

  uint64_t recount = 0;
  if (motif == "edge") {
    recount = CountEdgesFromCsr(graph, vertices);
  } else {
    dsd::StatusOr<std::unique_ptr<dsd::MotifOracle>> oracle =
        dsd::ParseMotif(motif);
    if (!oracle.ok()) return "cannot build reference oracle for " + motif;
    std::vector<char> alive(graph.NumVertices(), 0);
    for (const dsd::VertexId v : vertices) alive[v] = 1;
    recount = oracle.value()->CountInstances(graph, alive);
  }
  if (recount != result.instances) {
    return "instances " + std::to_string(result.instances) +
           " but the answer holds " + std::to_string(recount);
  }
  const double density =
      static_cast<double>(recount) / static_cast<double>(vertices.size());
  if (std::abs(density - result.density) > 1e-12 * std::max(1.0, density)) {
    return "density is not instances / |vertices|";
  }
  return "";
}

bool SameAnswer(const dsd::DensestResult& a, const dsd::DensestResult& b) {
  return a.vertices == b.vertices && a.instances == b.instances &&
         a.density == b.density;
}

std::string CheckAgainstExact(double density, double exact, int motif_size,
                              bool guaranteed) {
  // Relative slack for the division in the exact density only.
  const double slack = 1e-12 * std::max(1.0, exact);
  char message[160];
  if (density > exact + slack) {
    std::snprintf(message, sizeof(message),
                  "density %.17g exceeds the exact optimum %.17g", density,
                  exact);
    return message;
  }
  if (guaranteed && density < exact / motif_size - slack) {
    std::snprintf(message, sizeof(message),
                  "density %.17g below exact / |V_Psi| = %.17g", density,
                  exact / motif_size);
    return message;
  }
  return "";
}

}  // namespace perfbench
