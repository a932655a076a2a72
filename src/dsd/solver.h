// Unified request/response entry point for every densest-subgraph algorithm
// in the library.
//
// Callers describe a run declaratively — algorithm and motif by name plus
// the per-algorithm knobs — and get back either a SolveResponse or a Status
// explaining what was wrong with the request. Nothing in this layer exits or
// throws; it is the boundary embedders (CLI, services, benches) are meant to
// program against, while the per-algorithm free functions (Exact, CoreExact,
// PeelApp, ...) remain available for callers that already hold an oracle and
// want a specific algorithm's options struct.
//
//   dsd::SolveRequest request;
//   request.algorithm = "core-exact";
//   request.motif = "triangle";
//   dsd::StatusOr<dsd::SolveResponse> response = dsd::Solve(graph, request);
//   if (!response.ok()) { /* response.status() says why */ }
//
// Algorithms are looked up in a SolverRegistry, so embedders can enumerate
// what is available ("--list-algos") and plug in their own Solver
// implementations without touching the dispatch code.
#ifndef DSD_DSD_SOLVER_H_
#define DSD_DSD_SOLVER_H_

#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dsd {

/// A declarative description of one densest-subgraph run.
///
/// Only `algorithm` and `motif` matter for every run; the remaining fields
/// are consumed by the algorithms that need them and validated accordingly
/// (e.g. "at-least" rejects a request without `min_size`).
struct SolveRequest {
  /// Registry name of the algorithm ("exact", "core-exact", "peel",
  /// "inc-app", "core-app", "stream", "at-least", "query").
  std::string algorithm = "core-exact";

  /// Motif name as understood by ParseMotif ("edge", "triangle",
  /// "<h>-clique" for h in 2..9, "2-star", "3-star", "c3-star", "diamond",
  /// "2-triangle", "3-triangle", "basket").
  std::string motif = "edge";

  /// Slack for "stream" (Bahmani et al.); must be finite and > 0.
  double eps = 0.1;

  /// Minimum answer size for "at-least"; 0 means "not provided".
  VertexId min_size = 0;

  /// Anchor vertices for "query". Validation rejects out-of-range ids and
  /// drops duplicates (keeping first occurrence order is not needed — the
  /// sanitized list is sorted).
  std::vector<VertexId> seeds;

  /// Worker-thread budget; 0 means "auto" (hardware concurrency). The
  /// resolved value, clamped by what the algorithm and oracle can exploit,
  /// becomes ExecutionContext::threads for the run: dsd::Solve builds the
  /// oracle through MakeOracle, so a clique motif with a budget > 1 gets
  /// the parallel kernels of src/parallel/ behind its hot queries. The
  /// clamped (effective) count is reported in SolveStats::threads.
  /// Explicit values above kMaxThreadBudget are rejected as
  /// InvalidArgument — the budget spawns real OS threads, and Solve's
  /// never-throws contract must hold for hostile requests too.
  unsigned threads = 0;

  /// Upper bound on an explicit `threads` value (far beyond any current
  /// hardware; a guard against resource-exhaustion requests, not a tuning
  /// limit).
  static constexpr unsigned kMaxThreadBudget = 1024;

  /// Optional wall-clock budget in seconds; 0 means unlimited. Enforcement
  /// is best-effort at algorithm granularity: a run that finishes past the
  /// budget yields Status::DeadlineExceeded instead of a response.
  double time_budget_seconds = 0.0;
};

/// Request-level instrumentation, complementing the per-algorithm
/// AlgoStats carried inside DensestResult.
struct SolveStats {
  /// Canonical registry name the request resolved to.
  std::string algorithm;
  /// Display name of the motif oracle the run used ("3-clique", ...).
  std::string motif;
  /// Effective worker-thread count of the run: the request's budget after
  /// the 0 = "auto" substitution, clamped by the algorithm's MaxThreads()
  /// and the oracle's MaxUsefulThreads(). A sequential algorithm (stream,
  /// inc-app) or a motif with no parallel kernel reports 1 here no matter
  /// what was requested.
  unsigned threads = 0;
  /// Wall-clock time of the whole solve, including oracle setup.
  double wall_seconds = 0.0;
  /// Duplicate seed ids dropped by request sanitisation.
  size_t seeds_deduplicated = 0;
};

/// A densest-subgraph answer plus how it was obtained.
struct SolveResponse {
  DensestResult result;
  SolveStats stats;
};

/// One algorithm behind the unified API. Implementations are stateless;
/// the registry owns one instance per name for the process lifetime.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry key ("core-exact").
  virtual std::string Name() const = 0;

  /// One-line human description for listings.
  virtual std::string Description() const = 0;

  /// Algorithm-specific request checks beyond the common validation
  /// (e.g. "at-least" requires min_size >= 1). `request` is already
  /// sanitized: seeds deduplicated/sorted and common fields checked.
  virtual Status Validate(const Graph& graph,
                          const SolveRequest& request) const {
    (void)graph;
    (void)request;
    return Status::Ok();
  }

  /// Worker threads this algorithm can exploit; 1 declares it sequential.
  /// dsd::Solve clamps the request's thread budget by this before building
  /// the execution context, so SolveStats::threads stays honest.
  virtual unsigned MaxThreads() const {
    return std::numeric_limits<unsigned>::max();
  }

  /// Executes the algorithm. Only called with a request that passed both
  /// common and per-solver validation. `ctx` carries the run's execution
  /// policy (effective thread count, deadline, cancel flag); implementations
  /// pass it to the oracle's hot queries and may poll ctx.ShouldStop() to
  /// abandon a run whose result will be discarded anyway.
  virtual DensestResult Run(const Graph& graph, const MotifOracle& oracle,
                            const SolveRequest& request,
                            const ExecutionContext& ctx) const = 0;
};

/// Name -> Solver map. The process-wide instance (Global()) comes
/// pre-populated with the paper's eight algorithms; embedders may register
/// additional solvers under fresh names. Registration and lookup are
/// mutex-guarded, so registering from one thread while another is solving
/// is safe; a registered Solver itself must be stateless (const Run), as
/// the built-ins are, since one instance serves concurrent solves.
class SolverRegistry {
 public:
  /// The shared registry with the built-in algorithms.
  static SolverRegistry& Global();

  /// Takes ownership; fails with InvalidArgument if the name is already
  /// taken or empty.
  Status Register(std::unique_ptr<Solver> solver);

  /// nullptr when the name is unknown.
  const Solver* Find(std::string_view name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  SolverRegistry() = default;
  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

 private:
  const Solver* FindLocked(std::string_view name) const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Solver>> solvers_;
};

/// Builds the oracle for a motif name: CliqueOracle for "edge" /
/// "triangle" / "<h>-clique" (h in 2..9), PatternOracle for the named
/// patterns. NotFound for names outside the vocabulary. Equivalent to
/// MakeOracle(name) with default options — use MakeOracle (dsd/
/// oracle_factory.h) when a thread budget or caching should apply.
StatusOr<std::unique_ptr<MotifOracle>> ParseMotif(const std::string& name);

/// Every name ParseMotif/MakeOracle accepts, in listing order.
std::vector<std::string> KnownMotifNames();

/// Validates `request`, resolves its algorithm and motif, runs it, and
/// returns the answer. The oracle is built through MakeOracle from the
/// request's thread budget (parallel kernels when > 1) with caching
/// enabled, and the run executes under an ExecutionContext carrying the
/// effective thread count and the time budget as a deadline. All failures
/// surface as Status (NotFound for unknown algorithm/motif names,
/// InvalidArgument for bad parameters, DeadlineExceeded for a blown time
/// budget) — this function never exits or throws on bad input.
StatusOr<SolveResponse> Solve(const Graph& graph, const SolveRequest& request);

/// Same, but with a caller-supplied oracle — `request.motif` is ignored.
/// For motifs the name vocabulary cannot express (e.g. a PatternOracle with
/// special kernels disabled). The effective thread count is clamped by the
/// supplied oracle's MaxUsefulThreads(): a plain CliqueOracle or
/// PatternOracle spends the whole budget, while an oracle that keeps
/// MotifOracle's default of 1 runs sequentially.
StatusOr<SolveResponse> Solve(const Graph& graph, const MotifOracle& oracle,
                              const SolveRequest& request);

}  // namespace dsd

#endif  // DSD_DSD_SOLVER_H_
