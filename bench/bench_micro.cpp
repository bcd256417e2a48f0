// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// experiment harness: 1-d aggregate B+-tree insert/query, BA-tree point
// insert/dominance query, polynomial evaluation, and the corner-update
// construction.

#include <benchmark/benchmark.h>

#include <random>

#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "poly/corner_updates.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

void BM_AggBTreeInsert(benchmark::State& state) {
  MemPageFile file(8192);
  BufferPool pool(&file, 4096);
  AggBTree<double> tree(&pool);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(0, 1);
  for (auto _ : state) {
    Status s = tree.Insert(u(rng), 1.0);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggBTreeInsert);

void BM_AggBTreeDominanceSum(benchmark::State& state) {
  MemPageFile file(8192);
  BufferPool pool(&file, 4096);
  AggBTree<double> tree(&pool);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(0, 1);
  std::vector<AggBTree<double>::Entry> entries;
  for (int64_t i = 0; i < state.range(0); ++i) {
    entries.push_back({static_cast<double>(i) / static_cast<double>(state.range(0)), 1.0});
  }
  if (!tree.BulkLoad(entries).ok()) state.SkipWithError("bulk load failed");
  for (auto _ : state) {
    double s;
    Status st = tree.DominanceSum(u(rng), &s);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggBTreeDominanceSum)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_BaTreeInsert2D(benchmark::State& state) {
  MemPageFile file(8192);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> tree(&pool, 2);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(0, 1);
  for (auto _ : state) {
    Status s = tree.Insert(Point(u(rng), u(rng)), 1.0);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BaTreeInsert2D);

void BM_BaTreeDominanceSum2D(benchmark::State& state) {
  MemPageFile file(8192);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> tree(&pool, 2);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(0, 1);
  std::vector<PointEntry<double>> pts;
  for (int64_t i = 0; i < state.range(0); ++i) {
    pts.push_back({Point(u(rng), u(rng)), 1.0});
  }
  if (!tree.BulkLoad(std::move(pts)).ok()) {
    state.SkipWithError("bulk load failed");
  }
  for (auto _ : state) {
    double s;
    Status st = tree.DominanceSum(Point(u(rng), u(rng)), &s);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BaTreeDominanceSum2D)->Arg(10000)->Arg(100000);

void BM_Poly2Evaluate(benchmark::State& state) {
  Poly2<3> p;
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> u(-1, 1);
  for (int i = 0; i <= 3; ++i) {
    for (int j = 0; j <= 3; ++j) p.Set(i, j, u(rng));
  }
  double x = 0.3, y = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Evaluate(x, y));
    x += 1e-9;
  }
}
BENCHMARK(BM_Poly2Evaluate);

void BM_MakeCornerUpdatesDeg2(benchmark::State& state) {
  Box box(Point(0.2, 0.3), Point(0.4, 0.6));
  std::vector<Monomial2> f = {{3.0, 0, 0}, {1.0, 1, 0}, {0.5, 0, 1},
                              {0.25, 2, 0}, {0.1, 1, 1}, {0.05, 0, 2}};
  for (auto _ : state) {
    auto updates = MakeCornerUpdates<3>(box, f);
    benchmark::DoNotOptimize(updates[3].value.At(0, 0));
  }
}
BENCHMARK(BM_MakeCornerUpdatesDeg2);

}  // namespace
}  // namespace boxagg

BENCHMARK_MAIN();
