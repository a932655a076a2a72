// Ablation benches for the design choices DESIGN.md calls out:
//  (a) min-cut backend: the Dinic reference vs FlowNetwork, the
//      integer-capacity push-relabel engine the exact solvers run on,
//      on Goldberg EDS networks; exits non-zero if their flows differ;
//  (b) appendix-D kernels: specialised star/4-cycle peeling vs the generic
//      embedding engine inside IncApp;
//  (c) construct+ grouping: grouped vs ungrouped pattern-network size and
//      solve time at a fixed alpha.
#include <cstdint>
#include <cstdio>

#include "dsd/exact.h"
#include "dsd/flow_networks.h"
#include "dsd/inc_app.h"
#include "flow/flow_network.h"
#include "flow/max_flow.h"
#include "graph/generators.h"
#include "harness/datasets.h"
#include "harness/report.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

// (a) Solve the same EDS network with both max-flow backends. At integer
// alpha every capacity (m, m + 2 alpha - deg, 1) is an integer, so the two
// flow values must be equal. Returns false if any pair differs.
bool FlowBackendAblation() {
  Banner("Ablation (a): Dinic vs FlowNetwork on Goldberg EDS networks");
  Table table({"graph", "alpha", "Dinic", "FlowNetwork", "flows equal"});
  bool all_equal = true;
  for (const DatasetSpec& spec : SmallDatasets()) {
    Graph g = spec.make();
    const int64_t m = static_cast<int64_t>(g.NumEdges());
    const VertexId n = g.NumVertices();
    for (const int64_t alpha : {1, 4}) {
      MaxFlowNetwork dinic(n + 2);
      FlowNetwork net(n + 2);
      for (VertexId v = 0; v < n; ++v) {
        const int64_t vt = m + 2 * alpha - static_cast<int64_t>(g.Degree(v));
        dinic.AddArc(0, v + 1, static_cast<double>(m));
        dinic.AddArc(v + 1, n + 1, static_cast<double>(vt));
        net.AddArc(0, v + 1, m);
        net.AddArc(v + 1, n + 1, vt);
      }
      for (const Edge& e : g.Edges()) {
        dinic.AddArc(e.first + 1, e.second + 1, 1.0);
        dinic.AddArc(e.second + 1, e.first + 1, 1.0);
        net.AddArc(e.first + 1, e.second + 1, 1);
        net.AddArc(e.second + 1, e.first + 1, 1);
      }
      Timer dinic_timer;
      const double dinic_flow = dinic.MaxFlow(0, n + 1);
      const double dinic_seconds = dinic_timer.Seconds();
      Timer net_timer;
      const int64_t net_flow = net.MaxFlow(0, n + 1);
      const double net_seconds = net_timer.Seconds();
      const bool equal = dinic_flow == static_cast<double>(net_flow);
      all_equal = all_equal && equal;
      table.AddRow({spec.name, std::to_string(alpha),
                    FormatSeconds(dinic_seconds), FormatSeconds(net_seconds),
                    equal ? "yes" : "NO"});
    }
  }
  table.Print();
  return all_equal;
}

// (b) IncApp with and without the appendix-D peeling kernels.
void KernelAblation() {
  Banner("Ablation (b): appendix-D kernels vs generic engine (IncApp)");
  Graph g = gen::PowerLawWithCommunities(8000, 2, 10, 10, 0.85, 0xAB1);
  Table table({"pattern", "specialised", "generic", "speedup"});
  for (const Pattern& p :
       {Pattern::TwoStar(), Pattern::ThreeStar(), Pattern::Diamond()}) {
    PatternOracle fast(p, /*use_special_kernels=*/true);
    PatternOracle slow(p, /*use_special_kernels=*/false);
    DensestResult a = IncApp(g, fast);
    DensestResult b = IncApp(g, slow);
    table.AddRow({p.name(), FormatSeconds(a.stats.total_seconds),
                  FormatSeconds(b.stats.total_seconds),
                  FormatDouble(b.stats.total_seconds /
                                   std::max(a.stats.total_seconds, 1e-9),
                               1) +
                      "x"});
  }
  table.Print();
}

// (c) Grouped (construct+) vs ungrouped (PExact) network size/time.
void GroupingAblation() {
  Banner("Ablation (c): construct+ grouping vs per-instance nodes");
  Graph g = gen::ErdosRenyi(400, 0.05, 0xAB2);
  Table table({"pattern", "nodes grouped", "nodes ungrouped", "solve grouped",
               "solve ungrouped"});
  for (const Pattern& p : {Pattern::Diamond(), Pattern::TwoTriangle()}) {
    PatternOracle oracle(p);
    auto grouped = MakePatternFlowSolver(g, oracle, /*grouped=*/true).value();
    auto ungrouped =
        MakePatternFlowSolver(g, oracle, /*grouped=*/false).value();
    Timer grouped_timer;
    grouped->Solve(Density::Of(1, 1));
    double grouped_seconds = grouped_timer.Seconds();
    Timer ungrouped_timer;
    ungrouped->Solve(Density::Of(1, 1));
    double ungrouped_seconds = ungrouped_timer.Seconds();
    table.AddRow({p.name(), std::to_string(grouped->NumNodes()),
                  std::to_string(ungrouped->NumNodes()),
                  FormatSeconds(grouped_seconds),
                  FormatSeconds(ungrouped_seconds)});
  }
  table.Print();
}

}  // namespace
}  // namespace dsd::bench

int main() {
  std::printf("Ablation benches for DESIGN.md's design choices\n");
  const bool flows_equal = dsd::bench::FlowBackendAblation();
  dsd::bench::KernelAblation();
  dsd::bench::GroupingAblation();
  if (!flows_equal) {
    std::fprintf(stderr, "ablation (a): Dinic and FlowNetwork flows differ\n");
    return 1;
  }
  return 0;
}
