// Hostile node bytes for the page-backed trees: the pool-level mutation loop
// the EcdfBTree and PackedBaTree tests share. Writing through the pool
// bypasses the page crc, so every reader sees the bad bytes.

#ifndef BOXAGG_TESTS_HOSTILE_BYTES_H_
#define BOXAGG_TESTS_HOSTILE_BYTES_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/status.h"

namespace boxagg {

/// Each of 300 rounds writes 1-8 random bytes into one random page of
/// [0, pages), runs `calls` (a callable returning std::vector<Status>) and
/// restores the page. Every status must be OK, Corruption, or NotFound (an
/// id past the end of the file): no crash, hang or out-of-bounds read. Some
/// call must fail, or the mutations never reached a check.
template <class Calls>
void ExpectStatusUnderMutation(BufferPool* pool, uint64_t pages, Calls calls) {
  std::mt19937_64 rng(0x5eed);
  int failed = 0;
  for (int round = 0; round < 300; ++round) {
    const PageId pid = rng() % pages;
    std::vector<uint8_t> saved;
    {
      PageGuard g;
      ASSERT_TRUE(pool->Fetch(pid, &g).ok());
      Page* page = g.page();
      saved.assign(page->data(), page->data() + page->size());
      const uint32_t at = static_cast<uint32_t>(rng() % page->size());
      const uint32_t n =
          std::min<uint32_t>(1 + rng() % 8, page->size() - at);
      for (uint32_t i = 0; i < n; ++i) {
        page->data()[at + i] = static_cast<uint8_t>(rng());
      }
      g.MarkDirty();
    }
    for (const Status& st : calls()) {
      EXPECT_TRUE(st.ok() || st.code() == Status::Code::kCorruption ||
                  st.code() == Status::Code::kNotFound)
          << "round " << round << ": " << st.ToString();
      failed += st.ok() ? 0 : 1;
    }
    {
      PageGuard g;
      ASSERT_TRUE(pool->Fetch(pid, &g).ok());
      std::memcpy(g.page()->data(), saved.data(), saved.size());
      g.MarkDirty();
    }
  }
  EXPECT_GT(failed, 0);
}

}  // namespace boxagg

#endif  // BOXAGG_TESTS_HOSTILE_BYTES_H_
