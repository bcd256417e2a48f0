// ParallelQueryExecutor: fans a batch of independent box queries out across
// a ThreadPool and collects per-query results plus aggregate latency and
// throughput statistics.
//
// This is the concurrent read path motivated by the paper's experiments
// (Sec. 6 replays large batches of independent box-sum queries against a
// read-mostly index). Queries are pure reads: the only shared mutable state
// they touch is the sharded BufferPool, which is thread-safe for Fetch.
// Any index exposing a box query is adapted through QueryFn (see
// query_adapters.h); results are deterministic — each query slot is computed
// by exactly one worker with the same arithmetic as a sequential run, so
// parallel output is byte-identical to the sequential oracle.

#ifndef BOXAGG_EXEC_PARALLEL_EXECUTOR_H_
#define BOXAGG_EXEC_PARALLEL_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "exec/thread_pool.h"
#include "geom/box.h"
#include "storage/io_stats.h"
#include "storage/status.h"

namespace boxagg {

class BagFile;
class BufferPool;
class GenerationPin;

namespace exec {

/// A read-only query against some index: fills *out for the given box.
using QueryFn = std::function<Status(const Box&, double*)>;

/// A read-only batched query: answers `count` boxes, filling out[0..count).
/// Implementations amortize work across the batch (corner dedup, sorted
/// multi-probe descent) but must return results bit-identical to `count`
/// single-box calls.
using BatchQueryFn = std::function<Status(const Box*, size_t, double*)>;

/// A read-only batched query answered against a pinned generation snapshot
/// (see BatchQueryFn for the batch contract). The pin is acquired once per
/// batch by RunBatchGroupedPinned and shared by every worker — the function
/// must treat it as read-only shared state (GenerationPin's const interface
/// is thread-safe).
using PinnedBatchQueryFn = std::function<Status(const GenerationPin&,
                                                const Box*, size_t, double*)>;

/// \brief Aggregate statistics for one executed batch.
struct BatchExecStats {
  size_t threads = 0;        ///< workers used
  size_t queries = 0;        ///< batch size
  size_t morsels = 0;        ///< work units claimed (grouped path only)
  double wall_ms = 0;        ///< wall-clock time for the whole batch
  double queries_per_sec = 0;
  // Per-query latency distribution, microseconds. On the grouped path the
  // unit is one morsel (a contiguous run of queries answered together).
  double latency_mean_us = 0;
  double latency_p50_us = 0;
  double latency_p95_us = 0;
  double latency_p99_us = 0;
  double latency_max_us = 0;
  // Buffer-pool traffic attributable to this batch (snapshot delta around
  // the run), filled when a pool is passed to RunBatch/RunBatchGrouped.
  bool has_io = false;
  IoStats io{};
  double hit_rate = 0;  ///< io.HitRate() of the delta
};

/// \brief Executes query batches on an owned ThreadPool.
///
/// The executor is reusable: construct once per thread count, run many
/// batches. RunBatch blocks the caller until the batch completes.
class ParallelQueryExecutor {
 public:
  explicit ParallelQueryExecutor(size_t threads);
  ~ParallelQueryExecutor();

  ParallelQueryExecutor(const ParallelQueryExecutor&) = delete;
  ParallelQueryExecutor& operator=(const ParallelQueryExecutor&) = delete;

  [[nodiscard]] size_t threads() const { return pool_->size(); }

  /// Runs `fn` over every box in `queries`, writing results[i] for
  /// queries[i]. Returns the first query error encountered (remaining
  /// queries still run to completion). `stats` is optional; when `pool` is
  /// given too, stats->io is filled with the batch's buffer-pool delta.
  Status RunBatch(const QueryFn& fn, const std::vector<Box>& queries,
                  std::vector<double>* results,
                  BatchExecStats* stats = nullptr,
                  BufferPool* pool = nullptr);

  /// Morsel-style batched execution: the query vector is cut into contiguous
  /// runs of `morsel` queries (the last may be shorter); workers claim runs
  /// atomically and answer each with ONE `fn` call, so a batch-aware query
  /// function amortizes page fetches across the whole morsel. Queries should
  /// be pre-sorted by the caller if probe locality is wanted — contiguity is
  /// what makes sorted ranges land in one descent. `morsel` == 0 means the
  /// whole batch is one morsel. Results are bit-identical to RunBatch with
  /// the equivalent per-query fn.
  Status RunBatchGrouped(const BatchQueryFn& fn,
                         const std::vector<Box>& queries, size_t morsel,
                         std::vector<double>* results,
                         BatchExecStats* stats = nullptr,
                         BufferPool* pool = nullptr);

  /// RunBatchGrouped against one pinned generation of `bag`: a single pin is
  /// acquired before any worker dispatches and released only after the
  /// completion latch, so every morsel answers from the same immutable
  /// snapshot even while a writer commits newer generations concurrently.
  /// Returns the pin-acquisition error without running any query if the bag
  /// cannot be pinned.
  Status RunBatchGroupedPinned(BagFile* bag, const PinnedBatchQueryFn& fn,
                               const std::vector<Box>& queries, size_t morsel,
                               std::vector<double>* results,
                               BatchExecStats* stats = nullptr,
                               BufferPool* pool = nullptr);

 private:
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace exec
}  // namespace boxagg

#endif  // BOXAGG_EXEC_PARALLEL_EXECUTOR_H_
