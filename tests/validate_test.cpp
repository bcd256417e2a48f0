// Structural-audit tests: PackedBaTree::CheckConsistency() checks record-box
// containment and tiling, the packed page layout, and a self-oracle query
// sample; these tests run the audit after every kind of structural stress
// (bulk loads, incremental splits, forced-split cascades, deletions) and
// also prove the audit actually detects corruption when a page is tampered
// with.

#include <gtest/gtest.h>

#include <random>

#include "batree/packed_ba_tree.h"
#include "core/naive.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> RandomPoints(int n, int dims, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(0, 100);
  std::uniform_real_distribution<double> uv(0.1, 5);  // positive: no
                                                      // cancellation
  std::vector<PointEntry<double>> out;
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = std::floor(uc(rng));
    e.value = uv(rng);
    out.push_back(e);
  }
  return out;
}

// Audits trees built four ways from the data sets `seed` to `seed + 3`.
template <class Tree>
void RunAuditScenarios(uint32_t page_size, uint32_t seed) {
  MemPageFile file(page_size);
  BufferPool pool(&file, 512);
  // Bulk-loaded.
  {
    Tree tree(&pool, 2);
    ASSERT_TRUE(tree.BulkLoad(RandomPoints(5000, 2, seed)).ok());
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
  // Incremental (many leaf/index splits and forced splits).
  {
    Tree tree(&pool, 2);
    for (const auto& e : RandomPoints(3000, 2, seed + 1)) {
      ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
  // Mixed bulk + inserts + deletions.
  {
    Tree tree(&pool, 2);
    auto pts = RandomPoints(4000, 2, seed + 2);
    std::vector<PointEntry<double>> first(pts.begin(), pts.begin() + 2000);
    ASSERT_TRUE(tree.BulkLoad(first).ok());
    for (size_t i = 2000; i < pts.size(); ++i) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    }
    for (size_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, -pts[i].value).ok());
    }
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
  // 3-d (recursive borders are 2-d trees with their own audits implied).
  {
    Tree tree(&pool, 3);
    for (const auto& e : RandomPoints(1500, 3, seed + 3)) {
      ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
}

TEST(ValidateAudit, PackedBaTreeAllScenarios) {
  RunAuditScenarios<PackedBaTree<double>>(512, 1);
}

TEST(ValidateAudit, PackedBaTreeLargePages) {
  RunAuditScenarios<PackedBaTree<double>>(4096, 1);
}

// The same scenarios on a second family of data sets.
TEST(ValidateAudit, BaTreeAllScenarios) {
  RunAuditScenarios<PackedBaTree<double>>(512, 11);
}

TEST(ValidateAudit, BaTreeLargePages) {
  RunAuditScenarios<PackedBaTree<double>>(4096, 11);
}

TEST(ValidateAudit, DetectsTamperedSubtotal) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(3000, 2, 5)).ok());
  ASSERT_TRUE(tree.CheckConsistency().ok());
  // Corrupt the root page: flip bytes in the middle of the first record's
  // subtotal region.
  {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(tree.root(), &g).ok());
    // Record layout: Box(64) + child(8) + subtotal(8) + ... at offset 16.
    uint32_t off = 16 + 64 + 8;
    double v = g.page()->ReadAt<double>(off);
    g.page()->WriteAt<double>(off, v + 1234.5);
    g.MarkDirty();
  }
  Status s = tree.CheckConsistency();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

// The packed tree and the plain linear-scan oracle, fed the identical insert
// sequence, agree at checkpoints throughout: every intermediate tree, through
// all its splits and border spills, answers like the scan.
TEST(ValidateAudit, PackedAndPlainAgreeUnderIncrementalMutation) {
  MemPageFile file(1024);
  BufferPool pool(&file, 1024);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  auto pts = RandomPoints(5000, 2, 7);
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> uc(-5, 105);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    naive.Insert(pts[i].pt, pts[i].value);
    if (i % 97 == 0) {
      Point q(uc(rng), uc(rng));
      double got;
      ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
      ASSERT_NEAR(got, naive.Query(q), 1e-7) << "at step " << i;
    }
  }
  ASSERT_TRUE(tree.CheckConsistency().ok());
}

}  // namespace
}  // namespace boxagg
