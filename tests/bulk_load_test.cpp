// BA-tree bulk load against one-at-a-time Insert, checked with an exact
// integer dominance-sum oracle in one to three dimensions.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "core/point_entry.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> IntegerPoints(int n, int dims, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coord(0, 500);
  std::vector<PointEntry<double>> out;
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = coord(rng);
    e.value = 1 + rng() % 9;  // integers: exact addition in any order
    out.push_back(e);
  }
  return out;
}

class BaTreeBulkLoad : public ::testing::TestWithParam<int> {};

// Bulk load vs one-at-a-time Insert: different trees are allowed, but both
// must pass the deep structural audit and agree with the exact integer
// dominance-sum oracle.
TEST_P(BaTreeBulkLoad, BulkAndIncrementalAgreeWithOracle) {
  const int dims = GetParam();
  auto entries = IntegerPoints(4000, dims, 41);
  MemPageFile file_a(1024), file_b(1024);
  BufferPool pool_a(&file_a, 8192), pool_b(&file_b, 8192);
  PackedBaTree<double> bulk(&pool_a, dims), incremental(&pool_b, dims);
  ASSERT_TRUE(bulk.BulkLoad(entries).ok());
  for (const auto& e : entries) {
    ASSERT_TRUE(incremental.Insert(e.pt, e.value).ok());
  }
  EXPECT_TRUE(bulk.CheckConsistency().ok());
  EXPECT_TRUE(incremental.CheckConsistency().ok());

  std::mt19937 rng(42);
  std::uniform_int_distribution<int> coord(0, 500);
  for (int i = 0; i < 100; ++i) {
    Point q;
    for (int d = 0; d < dims; ++d) q[d] = coord(rng);
    double oracle = 0;
    for (const auto& e : entries) {
      bool dom = true;
      for (int d = 0; d < dims; ++d) dom &= q[d] >= e.pt[d];
      if (dom) oracle += e.value;
    }
    double a = 0, b = 0;
    ASSERT_TRUE(bulk.DominanceSum(q, &a).ok());
    ASSERT_TRUE(incremental.DominanceSum(q, &b).ok());
    ASSERT_EQ(a, oracle) << i;
    ASSERT_EQ(b, oracle) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BaTreeBulkLoad, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace boxagg
