// Figure 9: flow-network sizes across CoreExact's density-search iterations
// on Ca-HepTh and As-Caida, h = 2..6.
//
// Paper's claim to reproduce: the core-located networks are dramatically
// smaller than the whole-graph network ("-1" on the x-axis), and shrink
// further as iterations raise the lower bound (over 95% of nodes pruned
// after six iterations for the triangle on Ca-HepTh).
#include <cstdio>

#include "dsd/core_exact.h"
#include "harness/datasets.h"
#include "harness/report.h"

namespace dsd::bench {
namespace {

void Run() {
  for (const DatasetSpec& spec : SmallDatasets()) {
    if (spec.name != "Ca-HepTh" && spec.name != "As-Caida") continue;
    Graph g = spec.make();
    Banner("Figure 9: flow-network size per iteration, " + spec.name);
    Table table({"h-clique", "it=-1(full G)", "it=0", "it=1", "it=2", "it=3",
                 "it=4", "it=5", "pruned@last"});
    for (int h = 2; h <= 6; ++h) {
      CliqueOracle oracle(h);
      CoreExactOptions options;
      options.track_network_sizes = true;
      DensestResult r = CoreExact(g, oracle, options);
      const auto& sizes = r.stats.flow_network_sizes;
      std::vector<std::string> row = {oracle.Name()};
      for (size_t i = 0; i < 7; ++i) {
        row.push_back(i < sizes.size() ? std::to_string(sizes[i]) : "-");
      }
      if (sizes.size() >= 2) {
        double pruned =
            100.0 * (1.0 - static_cast<double>(sizes.back()) /
                               static_cast<double>(sizes.front()));
        row.push_back(FormatDouble(pruned, 1) + "%");
      } else {
        row.push_back("-");
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
}

}  // namespace
}  // namespace dsd::bench

int main() {
  std::printf("Figure 9: CoreExact flow-network sizes per iteration\n");
  dsd::bench::Run();
  return 0;
}
