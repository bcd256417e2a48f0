// Tests for the BA-tree (Sec. 5) with the paper's border packing:
// dominance-sum correctness against the naive oracle across dimensions,
// bulk-loaded and incrementally built trees (with pages small enough to force
// leaf splits, index splits, k-d-B forced-split cascades and border spills),
// split border maintenance, storage accounting, and hostile node bytes. The
// BaTree suite holds the general BA-tree cases; the PackedBaTree suite holds
// the cases about packed storage and further data sets for the same
// behaviours.

#include <gtest/gtest.h>

#include <random>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "core/naive.h"
#include "hostile_bytes.h"
#include "obs/query_obs.h"
#include "poly/poly2.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> RandomPoints(int n, int dims, uint32_t seed,
                                             double key_range = 100.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(0, key_range);
  std::uniform_real_distribution<double> uv(-5, 5);
  std::vector<PointEntry<double>> out;
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = std::floor(uc(rng));
    e.value = uv(rng);
    out.push_back(e);
  }
  return out;
}

std::vector<Point> RandomQueries(int n, int dims, uint32_t seed,
                                 double key_range = 100.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(-5, key_range + 5);
  std::vector<Point> out;
  for (int i = 0; i < n; ++i) {
    Point p;
    for (int d = 0; d < dims; ++d) p[d] = uc(rng);
    out.push_back(p);
  }
  return out;
}

struct PParam {
  int dims;
  bool bulk;
  int n;
  uint32_t page_size;
  std::string Name() const {
    // Appended, not "literal" + string: gcc 12 -Wrestrict false positive.
    std::string s = "d";
    s += std::to_string(dims) + (bulk ? "_bulk_n" : "_inc_n");
    s += std::to_string(n) + "_ps" + std::to_string(page_size);
    return s;
  }
};

// Builds one tree of configuration `p` from the data set `seed_base + n` in
// a pool of `pool_frames` frames and checks it against the naive oracle.
void SweepMatchesNaiveOracle(const PParam& p, uint32_t seed_base,
                             size_t pool_frames) {
  MemPageFile file(p.page_size);
  BufferPool pool(&file, pool_frames);
  PackedBaTree<double> tree(&pool, p.dims);
  NaiveDominanceSum<double> naive(p.dims);
  auto pts = RandomPoints(p.n, p.dims, seed_base + static_cast<uint32_t>(p.n));
  for (const auto& e : pts) naive.Insert(e.pt, e.value);
  if (p.bulk) {
    ASSERT_TRUE(tree.BulkLoad(pts).ok());
  } else {
    for (const auto& e : pts) {
      ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
  }
  for (const Point& q : RandomQueries(200, p.dims, 9)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6) << q.ToString(p.dims);
  }
  // Also probe exactly at data points (boundary semantics).
  for (int i = 0; i < 50; ++i) {
    const Point& q = pts[static_cast<size_t>(i * 7 % p.n)].pt;
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6) << q.ToString(p.dims);
  }
}

const auto kSweepParams = ::testing::Values(PParam{1, false, 2000, 512},
                                            PParam{2, false, 1200, 512},
                                            PParam{2, false, 4000, 1024},
                                            PParam{2, true, 4000, 512},
                                            PParam{2, true, 8000, 1024},
                                            PParam{3, false, 900, 1024},
                                            PParam{3, true, 3000, 1024},
                                            PParam{3, true, 2000, 4096});

std::string SweepName(const ::testing::TestParamInfo<PParam>& info) {
  return info.param.Name();
}

// A pool large enough to hold the whole tree: no page is ever evicted.
class PackedBaTreeSweep : public ::testing::TestWithParam<PParam> {};

TEST_P(PackedBaTreeSweep, MatchesNaiveOracle) {
  SweepMatchesNaiveOracle(GetParam(), 700u, 512);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PackedBaTreeSweep, kSweepParams, SweepName);

// The same configurations on a second data set in a pool of 16 frames: every
// tree but the 1-d one outgrows the pool, so its splits, border spills and
// queries run while pages are evicted and re-read.
class BaTreeSweep : public ::testing::TestWithParam<PParam> {};

TEST_P(BaTreeSweep, MatchesNaiveOracle) {
  SweepMatchesNaiveOracle(GetParam(), 300u, 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaTreeSweep, kSweepParams, SweepName);

TEST(BaTree, EmptyTree) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  PackedBaTree<double> tree(&pool, 2);
  double s = -1;
  ASSERT_TRUE(tree.DominanceSum(Point(10, 10), &s).ok());
  EXPECT_EQ(s, 0.0);
  uint64_t pages = 7;
  ASSERT_TRUE(tree.PageCount(&pages).ok());
  EXPECT_EQ(pages, 0u);
}

TEST(BaTree, SingleLeafBasics) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.Insert(Point(5, 5), 3.0).ok());
  ASSERT_TRUE(tree.Insert(Point(2, 8), 4.0).ok());
  ASSERT_TRUE(tree.Insert(Point(5, 5), 1.0).ok());  // coalesces
  double s;
  ASSERT_TRUE(tree.DominanceSum(Point(5, 5), &s).ok());
  EXPECT_EQ(s, 4.0);
  ASSERT_TRUE(tree.DominanceSum(Point(4, 10), &s).ok());
  EXPECT_EQ(s, 4.0);
  ASSERT_TRUE(tree.DominanceSum(Point(10, 10), &s).ok());
  EXPECT_EQ(s, 8.0);
  ASSERT_TRUE(tree.DominanceSum(Point(1, 1), &s).ok());
  EXPECT_EQ(s, 0.0);
  std::vector<PointEntry<double>> all;
  ASSERT_TRUE(tree.ScanAll(&all).ok());
  EXPECT_EQ(all.size(), 2u);
}

TEST(PackedBaTree, InsertAfterBulkLoad) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  auto pts = RandomPoints(4000, 2, 71);
  std::vector<PointEntry<double>> first(pts.begin(), pts.begin() + 2000);
  ASSERT_TRUE(tree.BulkLoad(first).ok());
  for (const auto& e : first) naive.Insert(e.pt, e.value);
  for (size_t i = 2000; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    naive.Insert(pts[i].pt, pts[i].value);
  }
  for (const Point& q : RandomQueries(200, 2, 10)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

// Bulk-loads into 512-byte pages, so the later inserts split a deeper tree
// than PackedBaTree.InsertAfterBulkLoad does.
TEST(BaTree, InsertAfterBulkLoad) {
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  auto pts = RandomPoints(4000, 2, 72);
  std::vector<PointEntry<double>> first(pts.begin(), pts.begin() + 2000);
  ASSERT_TRUE(tree.BulkLoad(first).ok());
  for (const auto& e : first) naive.Insert(e.pt, e.value);
  for (size_t i = 2000; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    naive.Insert(pts[i].pt, pts[i].value);
  }
  for (const Point& q : RandomQueries(200, 2, 10)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

TEST(PackedBaTree, DeletionViaInverseValues) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  auto pts = RandomPoints(1500, 2, 41);
  for (const auto& e : pts) {
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
  }
  NaiveDominanceSum<double> naive(2);
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, -pts[i].value).ok());
    } else {
      naive.Insert(pts[i].pt, pts[i].value);
    }
  }
  for (const Point& q : RandomQueries(150, 2, 12)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

// Deletions interleaved with the inserts: each point in the first half is
// cancelled while the second half is still being inserted and splitting.
TEST(BaTree, DeletionViaInverseValues) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  auto pts = RandomPoints(2000, 2, 43);
  const size_t half = pts.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
  }
  for (size_t i = half; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    naive.Insert(pts[i].pt, pts[i].value);
    const PointEntry<double>& old = pts[i - half];
    if ((i - half) % 2 == 0) {
      ASSERT_TRUE(tree.Insert(old.pt, -old.value).ok());
    } else {
      naive.Insert(old.pt, old.value);
    }
  }
  for (const Point& q : RandomQueries(150, 2, 12)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

TEST(PackedBaTree, DestroyReleasesEverything) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  uint64_t before = file.live_page_count();
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(5000, 2, 21)).ok());
  uint64_t pages = 0;
  ASSERT_TRUE(tree.PageCount(&pages).ok());
  EXPECT_GT(pages, 10u);
  EXPECT_EQ(file.live_page_count() - before, pages);
  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(file.live_page_count(), before);
}

// An incrementally built tree on 512-byte pages: Destroy must also free the
// pages that splits and border spills allocated.
TEST(BaTree, DestroyReleasesEverything) {
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  uint64_t before = file.live_page_count();
  PackedBaTree<double> tree(&pool, 2);
  for (const auto& e : RandomPoints(3000, 2, 21)) {
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
  }
  uint64_t pages = 0;
  ASSERT_TRUE(tree.PageCount(&pages).ok());
  EXPECT_GT(pages, 20u);
  EXPECT_EQ(file.live_page_count() - before, pages);
  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(file.live_page_count(), before);
}

TEST(BaTree, SkewedInsertionOrderStressesSplits) {
  // Sorted insertion order drives repeated splits on the same boundary and
  // exercises the forced-split cascade.
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  std::vector<PointEntry<double>> pts;
  for (int i = 0; i < 1500; ++i) {
    PointEntry<double> e{Point(i % 40, i / 40 + (i % 7) * 0.25), 1.0};
    pts.push_back(e);
  }
  std::sort(pts.begin(), pts.end(),
            [](const auto& a, const auto& b) {
              return LexLess(a.pt, b.pt, 2);
            });
  for (const auto& e : pts) {
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    naive.Insert(e.pt, e.value);
  }
  for (const Point& q : RandomQueries(150, 2, 13, 45.0)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

TEST(BaTree, ColumnsAndRowsOfDuplicateCoordinates) {
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  // Dense grid columns: many identical x values, many identical y values.
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 80; ++y) {
      Point p(x, y);
      ASSERT_TRUE(tree.Insert(p, 1.0).ok());
      naive.Insert(p, 1.0);
    }
  }
  for (const Point& q :
       {Point(6, 40), Point(0, 0), Point(11, 79), Point(5.5, 200),
        Point(-1, 50), Point(200, 200)}) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-9) << q.ToString(2);
  }
}

TEST(PackedBaTree, SpilledBordersStillCorrect) {
  // Adversarial shape: one very wide row of points under a tall column makes
  // some borders huge (forced spills) while others stay tiny (inline).
  MemPageFile file(512);  // tiny pages force spills early
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  std::mt19937 rng(8);
  std::uniform_real_distribution<double> u(0, 1000);
  for (int i = 0; i < 3000; ++i) {
    // 80% of mass on a thin horizontal band, 20% spread out.
    Point p = (i % 5 != 0) ? Point(u(rng), u(rng) / 100.0)
                           : Point(u(rng), u(rng));
    ASSERT_TRUE(tree.Insert(p, 1.0).ok());
    naive.Insert(p, 1.0);
  }
  for (const Point& q : RandomQueries(200, 2, 15, 1000.0)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-9) << q.ToString(2);
  }
}

TEST(PackedBaTree, WorksInsideBoxSumReduction) {
  MemPageFile file(2048);
  BufferPool pool(&file, 1024);
  workload::RectConfig cfg;
  cfg.n = 3000;
  cfg.avg_side = 0.03;
  auto objs = workload::UniformRects(cfg);
  NaiveBoxSum naive(2);
  for (const auto& o : objs) naive.Insert(o.box, o.value);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.BulkLoad(objs).ok());
  for (double qbs : {0.0001, 0.01, 0.2}) {
    for (const Box& q : workload::QueryBoxes(25, qbs, 77)) {
      double got;
      ASSERT_TRUE(index.Query(q, &got).ok());
      ASSERT_NEAR(got, naive.Sum(q), 1e-6 + 1e-9 * std::abs(naive.Sum(q)));
    }
  }
}

TEST(BaTree, PolynomialValues) {
  MemPageFile file(4096);
  BufferPool pool(&file, 512);
  PackedBaTree<Poly2<1>> tree(&pool, 2);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> uc(0, 100);
  std::vector<PointEntry<Poly2<1>>> pts;
  for (int i = 0; i < 600; ++i) {
    PointEntry<Poly2<1>> e;
    e.pt = Point(std::floor(uc(rng)), std::floor(uc(rng)));
    e.value.Set(1, 1, uc(rng));
    e.value.Set(0, 0, uc(rng) - 50);
    pts.push_back(e);
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
  }
  NaiveDominanceSum<Poly2<1>> naive(2);
  for (const auto& e : pts) naive.Insert(e.pt, e.value);
  for (const Point& q : RandomQueries(60, 2, 14)) {
    Poly2<1> got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    EXPECT_TRUE(got.NearlyEquals(naive.Query(q), 1e-6)) << q.ToString(2);
  }
}

TEST(BaTree, MassiveCoalescingKeepsOneEntry) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  PackedBaTree<double> tree(&pool, 2);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Insert(Point(3, 4), 1.0).ok());
  }
  std::vector<PointEntry<double>> all;
  ASSERT_TRUE(tree.ScanAll(&all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].value, 500.0);
  double s;
  ASSERT_TRUE(tree.DominanceSum(Point(3, 4), &s).ok());
  EXPECT_EQ(s, 500.0);
}

// Hostile bytes (tests/hostile_bytes.h): each round's query batch and
// audits must return a Status. The 2-d trees keep their borders inline; the
// 3-d tree's probes reach spilled 2-d borders. The Debug + ASan CI job runs
// this test.
/// The query batch, then the audit of every tree (structure only: the
/// batch already covers the descent), as the statuses of one round.
template <class Tree, class Query>
std::vector<Status> QueryAndAudit(const std::vector<const Tree*>& trees,
                                  Query query) {
  std::vector<Status> out{query()};
  for (const Tree* t : trees) {
    CheckContext ctx;
    ctx.check_oracle = false;
    out.push_back(t->CheckConsistency(&ctx));
  }
  return out;
}

TEST(PackedBaTree, HostileNodeBytesYieldStatusNotCrash) {
  {
    SCOPED_TRACE("2-d, inline borders");
    workload::RectConfig rc;
    rc.n = 1000;
    rc.seed = 71;
    const auto queries = workload::QueryBoxes(48, 0.01, 72);
    MemPageFile file(1024);
    BufferPool pool(&file, 4096);
    BoxSumIndex<PackedBaTree<double>> index(
        2, [&] { return PackedBaTree<double>(&pool, 2); });
    ASSERT_TRUE(index.BulkLoad(workload::UniformRects(rc)).ok());
    std::vector<const PackedBaTree<double>*> trees;
    for (uint32_t s = 0; s < index.index_count(); ++s) {
      trees.push_back(&index.index(s));
    }
    std::vector<double> out(queries.size());
    auto query = [&] {
      return index.QueryBatch(queries.data(), queries.size(), out.data());
    };
    ASSERT_TRUE(query().ok());
    ExpectStatusUnderMutation(&pool, file.page_count(),
                              [&] { return QueryAndAudit(trees, query); });
  }
  {
    SCOPED_TRACE("3-d, spilled 2-d borders");
    MemPageFile file(1024);
    BufferPool pool(&file, 4096);
    PackedBaTree<double> tree(&pool, 3);
    ASSERT_TRUE(tree.BulkLoad(RandomPoints(1000, 3, 73)).ok());
    const std::vector<Point> qs = RandomQueries(48, 3, 74);
    std::vector<double> out(qs.size());
    auto query = [&] {
      return tree.DominanceSumBatch(qs.data(), qs.size(), out.data());
    };
    obs::QueryObs query_obs;
    obs::InstallQueryObs(&query_obs);
    const Status intact = query();
    obs::InstallQueryObs(nullptr);
    ASSERT_TRUE(intact.ok()) << intact.ToString();
    ASSERT_GT(query_obs.Snapshot().border_probes, 0u);
    ExpectStatusUnderMutation(&pool, file.page_count(), [&] {
      return QueryAndAudit(std::vector<const PackedBaTree<double>*>{&tree},
                           query);
    });
  }
}

}  // namespace
}  // namespace boxagg
