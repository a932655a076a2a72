#include "server/graph_registry.h"

#include <utility>

#include "dsd/oracle_factory.h"
#include "parallel/parallel_for.h"

namespace dsd::server {

ResidentGraph::ResidentGraph(std::string name, Graph graph,
                             unsigned hardware_threads)
    : name_(std::move(name)),
      graph_(std::move(graph)),
      hardware_threads_(ResolveThreadCount(hardware_threads)) {}

StatusOr<std::shared_ptr<const MotifOracle>> ResidentGraph::OracleFor(
    const std::string& motif) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto alias = aliases_.find(motif);
    if (alias != aliases_.end()) return oracles_.at(alias->second);
  }

  // Build outside the lock: plan compilation is cheap but not free, and a
  // request for an unknown motif must not stall every other lookup. The
  // per-call ExecutionContext.threads (the executor's partition) decides
  // what any one query spends.
  OracleOptions options;
  options.threads = hardware_threads_;
  options.cache = true;
  StatusOr<std::unique_ptr<MotifOracle>> built = MakeOracle(motif, options);
  if (!built.ok()) return built.status();

  std::lock_guard<std::mutex> lock(mutex_);
  const std::string canonical = built.value()->Name();
  auto it = oracles_.find(canonical);
  if (it == oracles_.end()) {
    // First builder wins; a concurrent identical build is discarded here.
    it = oracles_
             .emplace(canonical, std::shared_ptr<const MotifOracle>(
                                     std::move(built).value()))
             .first;
  }
  aliases_.emplace(motif, canonical);
  return it->second;
}

CachingOracle::CacheStats ResidentGraph::AggregateCacheStats() const {
  CachingOracle::CacheStats total;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, oracle] : oracles_) {
    const auto* caching = dynamic_cast<const CachingOracle*>(oracle.get());
    if (caching == nullptr) continue;
    const CachingOracle::CacheStats stats = caching->cache_stats();
    total.degree_hits += stats.degree_hits;
    total.degree_misses += stats.degree_misses;
    total.count_hits += stats.count_hits;
    total.count_misses += stats.count_misses;
  }
  return total;
}

GraphRegistry::GraphRegistry(unsigned hardware_threads)
    : hardware_threads_(ResolveThreadCount(hardware_threads)) {}

Status GraphRegistry::Add(std::string name, Graph graph) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  auto resident = std::make_shared<ResidentGraph>(name, std::move(graph),
                                                  hardware_threads_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!graphs_.emplace(name, std::move(resident)).second) {
    return Status::InvalidArgument("graph '" + name +
                                   "' is already resident");
  }
  return Status::Ok();
}

std::shared_ptr<ResidentGraph> GraphRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  return it != graphs_.end() ? it->second : nullptr;
}

std::vector<std::string> GraphRegistry::Names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  names.reserve(graphs_.size());
  for (const auto& [name, resident] : graphs_) names.push_back(name);
  return names;
}

}  // namespace dsd::server
