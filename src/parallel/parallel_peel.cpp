#include "parallel/parallel_peel.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "clique/clique_degree.h"
#include "parallel/chunked_accumulator.h"
#include "parallel/parallel_for.h"
#include "pattern/special.h"

namespace dsd {

namespace {

// Rank sentinel shared with the generic engine: survivors carry
// kNoPeelRank (pattern/isomorphism.h), which is also the natural "alive
// forever" maximum for the rank comparisons below.
constexpr uint32_t kNoRank = kNoPeelRank;

// rank[v] = position of v in the frontier, kNoRank for survivors. The rank
// mask turns "peel the bracket one vertex at a time in rank order" into a
// per-member predicate: when member i is peeled, vertex u counts as alive
// iff it is a live survivor or a bracket member still waiting its turn.
std::vector<uint32_t> BuildRanks(VertexId n,
                                 std::span<const VertexId> frontier) {
  std::vector<uint32_t> rank(n, kNoRank);
  for (size_t i = 0; i < frontier.size(); ++i) {
    rank[frontier[i]] = static_cast<uint32_t>(i);
  }
  return rank;
}

// The closed forms' aliveness under the rank mask: when member `my_rank`
// is peeled, u counts as alive iff it is a live survivor or a bracket
// member still waiting its turn.
struct RankAlive {
  std::span<const uint32_t> rank;
  std::span<const char> alive;
  uint32_t my_rank;
  bool operator()(VertexId u) const {
    return rank[u] == kNoRank ? alive[u] != 0 : rank[u] > my_rank;
  }
};

// The closed forms' emit under the rank mask: stages survivor deltas only
// (bracket members' own losses are moot — they leave with the bracket).
struct SurvivorDeltas {
  std::span<const uint32_t> rank;
  ChunkedAccumulator& deltas;
  unsigned worker;
  void operator()(VertexId u, uint64_t count) const {
    if (rank[u] == kNoRank && count > 0) deltas.Add(worker, u, count);
  }
};

// Shared chunked driver: processes frontier ranks [0, b) in contiguous
// chunks, polling the deadline between chunks, and returns the number of
// members processed. peel_one(worker, i) must compute destroyed[i] and
// stage member i's survivor deltas. The chunk scales with the bracket
// (b/16, floored at ~64 items per worker) so huge brackets pay a bounded
// number of ParallelForStrided spawn/join rounds, not hundreds, while
// truncation stays rank-prefix shaped.
template <typename PeelOne>
size_t RunChunked(size_t b, unsigned t, const ExecutionContext& ctx,
                  PeelOne&& peel_one) {
  const size_t chunk = std::max(
      {b / 16, static_cast<size_t>(t) * 64, static_cast<size_t>(256)});
  size_t processed = 0;
  while (processed < b) {
    if (ctx.ShouldStop()) break;
    const size_t end = std::min(b, processed + chunk);
    ParallelForStrided(end - processed, t,
                       [&](unsigned worker, uint64_t offset) {
                         peel_one(worker, processed + offset);
                       });
    processed = end;
  }
  return processed;
}

// Drains the summed survivor deltas into the caller's (single-threaded)
// callback and, in consume mode, clears the processed frontier prefix from
// the alive mask. Count mode (consume_alive = false) skips the clear — the
// kernels never wrote the mask, so it is left bitwise untouched.
std::vector<uint64_t> FinishBatch(std::vector<uint64_t> destroyed,
                                  size_t processed,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive, bool consume_alive,
                                  ChunkedAccumulator&& deltas,
                                  const PeelCallback& cb) {
  destroyed.resize(processed);
  if (consume_alive) {
    for (size_t i = 0; i < processed; ++i) alive[frontier[i]] = 0;
  }
  std::vector<uint64_t> totals = std::move(deltas).Finish();
  for (uint64_t u = 0; u < totals.size(); ++u) {
    if (totals[u] > 0) cb(static_cast<VertexId>(u), totals[u]);
  }
  return destroyed;
}

}  // namespace

std::vector<uint64_t> ParallelCliquePeelBatch(const Graph& graph, int h,
                                              std::span<const VertexId> frontier,
                                              std::span<char> alive,
                                              const PeelCallback& cb,
                                              const ExecutionContext& ctx,
                                              bool consume_alive) {
  const VertexId n = graph.NumVertices();
  const size_t b = frontier.size();
  const unsigned t = ResolveThreadCount(ctx.threads, b);
  const std::vector<uint32_t> rank = BuildRanks(n, frontier);
  std::vector<uint64_t> destroyed(b, 0);
  ChunkedAccumulator deltas(n, t);
  // Enumeration runs against the bracket-start mask (every member still
  // alive); the rank filter below restores each member's sequential view.
  const std::span<const char> mask(alive.data(), alive.size());
  const size_t processed =
      RunChunked(b, t, ctx, [&](unsigned worker, size_t i) {
        const VertexId v = frontier[i];
        const uint32_t my_rank = static_cast<uint32_t>(i);
        uint64_t lost = 0;
        EnumerateCliquesContaining(
            graph, h, v, mask, [&](std::span<const VertexId> rest) {
              // The clique is destroyed at the step of its minimum-rank
              // member; members of lower rank than i own it (or already
              // destroyed it), so member i must skip it.
              uint32_t min_rank = my_rank;
              for (VertexId u : rest) min_rank = std::min(min_rank, rank[u]);
              if (min_rank != my_rank) return;
              ++lost;
              for (VertexId u : rest) {
                if (rank[u] == kNoRank) deltas.Add(worker, u);
              }
            });
        destroyed[i] = lost;
      });
  return FinishBatch(std::move(destroyed), processed, frontier, alive,
                     consume_alive, std::move(deltas), cb);
}

std::vector<uint64_t> ParallelStarPeelBatch(const Graph& graph, int x,
                                            std::span<const VertexId> frontier,
                                            std::span<char> alive,
                                            const PeelCallback& cb,
                                            const ExecutionContext& ctx,
                                            bool consume_alive) {
  assert(x >= 2);
  const VertexId n = graph.NumVertices();
  const size_t b = frontier.size();
  const unsigned t = ResolveThreadCount(ctx.threads, b);
  const std::vector<uint32_t> rank = BuildRanks(n, frontier);
  std::vector<uint64_t> destroyed(b, 0);
  ChunkedAccumulator deltas(n, t);
  const size_t processed =
      RunChunked(b, t, ctx, [&](unsigned worker, size_t i) {
        const RankAlive is_alive{rank, alive, static_cast<uint32_t>(i)};
        const SurvivorDeltas emit{rank, deltas, worker};
        destroyed[i] = StarPeelAt(graph, x, frontier[i], is_alive, emit);
      });
  return FinishBatch(std::move(destroyed), processed, frontier, alive,
                     consume_alive, std::move(deltas), cb);
}

std::vector<uint64_t> ParallelFourCyclePeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb, const ExecutionContext& ctx,
    bool consume_alive) {
  const VertexId n = graph.NumVertices();
  const size_t b = frontier.size();
  const unsigned t = ResolveThreadCount(ctx.threads, b);
  const std::vector<uint32_t> rank = BuildRanks(n, frontier);
  std::vector<uint64_t> destroyed(b, 0);
  ChunkedAccumulator deltas(n, t);
  // Per-worker two-path scratch, as in ParallelFourCycleDegrees.
  std::vector<std::vector<uint64_t>> paths(t, std::vector<uint64_t>(n, 0));
  std::vector<std::vector<VertexId>> touched(t);
  const size_t processed =
      RunChunked(b, t, ctx, [&](unsigned worker, size_t i) {
        const RankAlive is_alive{rank, alive, static_cast<uint32_t>(i)};
        const SurvivorDeltas emit{rank, deltas, worker};
        destroyed[i] = FourCyclePeelAt(graph, frontier[i], is_alive,
                                       paths[worker], touched[worker], emit);
      });
  return FinishBatch(std::move(destroyed), processed, frontier, alive,
                     consume_alive, std::move(deltas), cb);
}

std::vector<uint64_t> ParallelPatternPeelBatch(
    const Graph& graph, const PatternPlanSet& plans,
    std::span<const VertexId> frontier, std::span<char> alive,
    const PeelCallback& cb, const ExecutionContext& ctx, bool consume_alive) {
  const VertexId n = graph.NumVertices();
  const size_t b = frontier.size();
  const unsigned t = ResolveThreadCount(ctx.threads, b);
  const std::vector<uint32_t> rank = BuildRanks(n, frontier);
  std::vector<uint64_t> destroyed(b, 0);
  ChunkedAccumulator deltas(n, t);
  PatternMatcher matcher(graph, plans);
  std::vector<PatternMatcher::Scratch> scratch;
  scratch.reserve(t);
  for (unsigned w = 0; w < t; ++w) scratch.push_back(matcher.MakeScratch());
  // Enumeration runs against the bracket-start mask (every member still
  // alive); PeelContaining's rank filter restores each member's sequential
  // view and reports survivor deltas only.
  const std::span<const char> mask(alive.data(), alive.size());
  const size_t processed =
      RunChunked(b, t, ctx, [&](unsigned worker, size_t i) {
        destroyed[i] = matcher.PeelContaining(
            frontier[i], rank, static_cast<uint32_t>(i), mask, scratch[worker],
            [&](VertexId u, uint64_t count) { deltas.Add(worker, u, count); });
      });
  return FinishBatch(std::move(destroyed), processed, frontier, alive,
                     consume_alive, std::move(deltas), cb);
}

}  // namespace dsd
