// Dataset registry for the reproduction harness.
//
// The environment is offline, so each real SNAP/LAW dataset of the paper's
// Table 2 is replaced by a synthetic replica whose generator and parameters
// are chosen to match the original's size (scaled down for the million-edge
// graphs), degree skew, and — where Table 5 / Figure 18 pins it down — the
// size of the near-clique that forms its densest subgraph (e.g. Netscience's
// kmax = 171 = C(19,2) betrays a 20-clique; S-DBLP's density column is
// exactly a K13). README.md's "Figures and tables" map names the bench
// behind each paper figure and table that runs on these replicas.
#ifndef DSD_BENCH_HARNESS_DATASETS_H_
#define DSD_BENCH_HARNESS_DATASETS_H_

#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace dsd::bench {

/// A named benchmark graph. `make` builds it deterministically on demand.
struct DatasetSpec {
  std::string name;
  std::function<Graph()> make;
};

/// The five small real graphs of Table 2 (exact algorithms, Figures 8a-e).
/// Yeast / Netscience / As-733 at original scale; Ca-HepTh and As-Caida
/// size-faithful but with the densest near-clique scaled to keep the Exact
/// baseline's flow networks laptop-sized.
const std::vector<DatasetSpec>& SmallDatasets();

/// The five large real graphs (approximation algorithms, Figures 8f-j),
/// scaled replicas: DBLP, Cit-Patents, Friendster, Enwiki-2017, UK-2002.
const std::vector<DatasetSpec>& LargeDatasets();

/// The three GTgraph synthetics of Table 2: SSCA, ER, R-MAT (Figures 13-14).
const std::vector<DatasetSpec>& RandomDatasets();

/// The three additional datasets of appendix E: Flickr, Google, Foursquare
/// (Figure 20), scaled replicas.
const std::vector<DatasetSpec>& AdditionalDatasets();

/// S-DBLP: the 478-vertex co-authorship subgraph used by Table 5 and the
/// Figure 17 case study. Contains a planted K13 (the paper's density column
/// for S-DBLP is exactly that of a 13-clique).
Graph MakeSDblp();

/// Yeast replica (case study of appendix F and Table 5).
Graph MakeYeast();

}  // namespace dsd::bench

#endif  // DSD_BENCH_HARNESS_DATASETS_H_
