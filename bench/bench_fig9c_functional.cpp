// Figure 9c: functional box-sum query cost — total execution time of a
// batch of QBS = 1% queries under the paper's cost model (CPU time + #I/Os x
// 10ms), for value functions of degree 0 and degree 2, BA-tree vs aR-tree.
//
// Paper result: higher degree worsens both (bigger coefficient tuples ->
// bigger index), and the BA-tree remains drastically faster than the
// aR-tree at both degrees.

#include <utility>

#include "batree/packed_ba_tree.h"
#include "bench/common.h"
#include "bench/suite.h"
#include "core/functional_box_sum.h"
#include "rtree/rstar_tree.h"

using namespace boxagg;
using namespace boxagg::bench;

namespace {

struct Cell {
  double model_ms;
  uint64_t ios;
  double checksum;
};

template <int DEG>
Cell RunBat(const Config& cfg, const std::vector<FunctionalObject>& objs,
            const std::vector<Box>& queries, const char* tag) {
  Storage storage(cfg, tag);
  FunctionalBoxSumIndex<PackedBaTree<Poly2<DEG>>, DEG> index(
      PackedBaTree<Poly2<DEG>>(storage.pool(), 2));
  DieIf(index.BulkLoad(objs), "BAT functional bulk load");
  BatchCost c = MeasureQueries(storage.pool(), queries,
                               [&](const Box& q, double* r) {
                                 DieIf(index.Query(q, r), "BAT functional");
                               });
  return Cell{c.ModelMillis(), c.ios, c.checksum};
}

Cell RunAr(const Config& cfg, const std::vector<FunctionalObject>& objs,
           const std::vector<Box>& queries, const char* tag) {
  Storage storage(cfg, tag);
  RStarTree<FunctionalObjectTraits> tree(storage.pool(), 2);
  std::vector<RStarTree<FunctionalObjectTraits>::Object> items;
  items.reserve(objs.size());
  for (const auto& o : objs) {
    Poly2<2> payload;
    for (const auto& m : o.f) payload.Add(m.p, m.q, m.a);
    items.push_back({o.box, payload});
  }
  DieIf(tree.BulkLoad(std::move(items)), "aR functional bulk load");
  BatchCost c = MeasureQueries(storage.pool(), queries,
                               [&](const Box& q, double* r) {
                                 DieIf(tree.AggregateQuery(q, true, r),
                                       "aR functional");
                               });
  return Cell{c.ModelMillis(), c.ios, c.checksum};
}

}  // namespace

int main() {
  Config cfg = Config::FromEnv();
  cfg.Log("Figure 9c: functional box-sum, QBS=1%, degree 0 vs degree 2");

  workload::RectConfig rc;
  rc.n = cfg.n;
  rc.seed = cfg.seed;
  auto objects = workload::UniformRects(rc);
  auto d0 = workload::MakeFunctional(objects, 0, cfg.seed + 1);
  auto d2 = workload::MakeFunctional(objects, 2, cfg.seed + 1);
  auto queries = workload::QueryBoxes(cfg.queries, 0.01, cfg.seed + 7);

  Cell bat_d0 = RunBat<1>(cfg, d0, queries, "fbat0");
  Cell ar_d0 = RunAr(cfg, d0, queries, "far0");
  Cell bat_d2 = RunBat<3>(cfg, d2, queries, "fbat2");
  Cell ar_d2 = RunAr(cfg, d2, queries, "far2");

  auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
  };
  if (!close(bat_d0.checksum, ar_d0.checksum) ||
      !close(bat_d2.checksum, ar_d2.checksum)) {
    std::fprintf(stderr, "checksum mismatch between BAT and aR!\n");
    return 1;
  }

  obs::LogInfo("execution time = CPU + I/Os x 10ms, %zu queries:",
               cfg.queries);
  obs::LogInfo("  %-8s %14s %12s", "index", "exec time(ms)", "I/Os");
  // The table goes to stderr; stdout carries one BASELINE line per index
  // with its I/O count, which CI diffs against
  // bench/baselines/fig9c_io_small.txt.
  const std::pair<const char*, const Cell*> rows[] = {
      {"BATd0", &bat_d0}, {"aRd0", &ar_d0}, {"BATd2", &bat_d2},
      {"aRd2", &ar_d2}};
  for (const auto& [name, cell] : rows) {
    const auto ios = static_cast<unsigned long long>(cell->ios);
    obs::LogInfo("  %-8s %14.1f %12llu", name, cell->model_ms, ios);
    std::printf("BASELINE index=%s ios=%llu\n", name, ios);
  }
  // Paper shape: the BA-tree is cheaper than the aR-tree at both degrees
  // (BAT/aR cost ratio below 1), and degree 2 costs the BA-tree more.
  const double ratio_d0 = bat_d0.model_ms / std::max(1.0, ar_d0.model_ms);
  const double ratio_d2 = bat_d2.model_ms / std::max(1.0, ar_d2.model_ms);
  obs::LogInfo(
      "paper shape check: BAT/aR cost ratio %.2f at degree 0 (BAT faster: "
      "%s) and %.2f at degree 2 (BAT faster: %s); degree 2 costlier than "
      "degree 0 for BAT: %s",
      ratio_d0, ratio_d0 < 1.0 ? "yes" : "NO", ratio_d2,
      ratio_d2 < 1.0 ? "yes" : "NO",
      bat_d2.model_ms >= bat_d0.model_ms ? "yes" : "NO");
  return 0;
}
