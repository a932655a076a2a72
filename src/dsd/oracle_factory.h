// OracleFactory / MakeOracle: the one place that turns a motif name and an
// execution policy into a ready-to-run MotifOracle stack.
//
// Mirrors the SolverRegistry design on the oracle side: a process-wide
// registry maps motif names to builders, pre-populated with the paper's
// vocabulary (h-cliques 2..9 with the edge/triangle aliases, and the named
// patterns), and embedders may register their own motifs under fresh names.
// The factory — not the caller — assembles the stack for a request: one
// oracle per motif family (CliqueOracle or PatternOracle, each of which
// picks sequential or parallel kernels from the context's thread count per
// query), with the caching decorator layered on top for motifs whose
// queries are expensive enough to memoize. dsd::Solve routes every request
// through here, so execution policy set on a SolveRequest reaches the
// oracle without any call site knowing the concrete types.
#ifndef DSD_DSD_ORACLE_FACTORY_H_
#define DSD_DSD_ORACLE_FACTORY_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dsd/motif_oracle.h"
#include "util/status.h"

namespace dsd {

/// How the oracle for one run should execute.
struct OracleOptions {
  /// Resolved worker-thread budget. The built-in oracles serve every
  /// budget with one class (the run's ExecutionContext carries the count
  /// they spend); plugged-in motifs may pick an implementation from it in
  /// their builder.
  unsigned threads = 1;

  /// Wrap the oracle in a memoizing CachingOracle. Applied only to motifs
  /// of size >= 3, whose queries out-cost the cache bookkeeping (keying is
  /// the graph's O(1) generation tag plus an O(n) mask scan, and a hit
  /// still copies the memoized vector); an edge-degree scan is itself
  /// linear, so the edge motif skips the decorator.
  bool cache = false;

  /// Byte budget for the cache's memoized vectors (see CachingOracle).
  size_t cache_budget_bytes = size_t{64} << 20;

  /// PatternOracle toggle: false forces the generic embedding engine even
  /// for stars and 4-cycles (the bench_ablation baseline).
  bool use_special_kernels = true;
};

/// Name -> oracle-builder registry. Global() comes pre-populated with the
/// paper's motif vocabulary; registration and lookup are mutex-guarded.
class OracleFactory {
 public:
  /// Builds the bare oracle for one registered name. The factory applies
  /// policy decorators (caching) on top, so builders only pick the concrete
  /// implementation from the options.
  using Builder =
      std::function<std::unique_ptr<MotifOracle>(const OracleOptions&)>;

  /// The shared factory with the built-in motif vocabulary.
  static OracleFactory& Global();

  /// Registers `builder` under `name`; InvalidArgument if the name is
  /// empty or already taken.
  Status Register(std::string name, Builder builder);

  /// Builds the oracle stack for `name`: the registered builder's oracle,
  /// wrapped per `options`. NotFound for unknown names; InvalidArgument for
  /// recognisable-but-malformed clique spellings ("03-clique", "12-clique")
  /// so diagnostics distinguish typos from unsupported sizes.
  StatusOr<std::unique_ptr<MotifOracle>> Make(
      const std::string& name, const OracleOptions& options = {}) const;

  /// All registered names, in registration (listing) order.
  std::vector<std::string> Names() const;

  OracleFactory() = default;
  OracleFactory(const OracleFactory&) = delete;
  OracleFactory& operator=(const OracleFactory&) = delete;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Builder>> builders_;
};

/// Convenience shell over OracleFactory::Global().Make(): the entry point
/// embedders and dsd::Solve use to obtain an oracle for a motif name.
StatusOr<std::unique_ptr<MotifOracle>> MakeOracle(
    const std::string& motif, const OracleOptions& options = {});

}  // namespace dsd

#endif  // DSD_DSD_ORACLE_FACTORY_H_
