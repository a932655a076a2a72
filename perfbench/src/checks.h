// Answer checks of the benchmark. Every solve the benchmark times is
// checked here, outside the timed spans; a violation counts the op as
// failed and fails the run.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>

#include "dsd/result.h"
#include "graph/graph.h"

namespace perfbench {

/// Recounts the motif instances of `result.vertices` through a path the
/// solve did not take: edges straight from the CSR, every other motif
/// through a fresh sequential, uncached oracle. Also checks that the
/// vertex list is sorted, duplicate-free, in range and non-empty, and that
/// the density is instances / |vertices|. Empty string when consistent,
/// otherwise what is wrong.
std::string CheckAnswer(const dsd::Graph& graph, const std::string& motif,
                        const dsd::DensestResult& result);

/// Bitwise equality of two answers (vertices, instances, density).
bool SameAnswer(const dsd::DensestResult& a, const dsd::DensestResult& b);

/// Checks an approximate answer's density against the exact optimum of the
/// same graph and motif: within [exact / |V_Psi|, exact] when
/// `guaranteed` (peel, core-app), at most exact otherwise (at-least,
/// query). Empty string when it holds.
std::string CheckAgainstExact(double density, double exact, int motif_size,
                              bool guaranteed);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
