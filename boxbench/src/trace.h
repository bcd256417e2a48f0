// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code: the forwarding
// PageFile and Index wrappers in stack.h and the closed loops in
// workloads.cc time their calls into each layer's public functions. A span
// carries its name, start and end (steady clock, ns), the span that caused
// it (parent) and the request it belongs to. Each thread appends to its own
// log, so recording takes no lock; the logs are merged once the run is
// over. A layer's self time is its span's duration minus the part of that
// interval its child spans cover (see Analyze).

#ifndef BOXBENCH_TRACE_H_
#define BOXBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace boxbench {

/// Every span name the benchmark records, grouped by the repo module it
/// times. Keep kSpanNames in trace.cc in the same order.
enum class SpanName : uint16_t {
  // client-facing calls (roots of a request)
  kCoreQuery,      ///< BoxSumIndex::Query / QueryBatch
  kCoreInsert,     ///< BoxSumIndex::Insert
  kCoreBulkLoad,   ///< BoxSumIndex::BulkLoad (set-up)
  kPoolFlushAll,   ///< BufferPool::FlushAll
  kCoreCommit,     ///< BagFile::Commit
  kExecRequest,    ///< ParallelQueryExecutor::RunBatchGrouped
  kExecMorsel,     ///< one BatchQueryFn call on an executor worker
  // index layer (forwarding Index under BoxSumIndex)
  kBatreeDescent,  ///< PackedBaTree::DominanceSumBatch
  kBatreeInsert,   ///< PackedBaTree::Insert
  kBatreeBulkLoad, ///< PackedBaTree::BulkLoad
  kReplicaDescent, ///< CompactReplica::DominanceSumBatch
  kReplicaBuild,   ///< ReplicaBuilder::Build (set-up)
  kReplicaOpen,    ///< CompactReplica::Open (set-up)
  // logical page layer (forwarding PageFile between BufferPool and BagFile)
  kBagRead,
  kBagWrite,
  kBagAlloc,
  kBagFree,
  kBagSync,
  // physical page layer (forwarding PageFile between BagFile and the file)
  kStorageRead,
  kStorageWrite,
  kStorageSync,
  kStorageExtend,
  kCount
};

inline constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);

const char* SpanNameString(SpanName n);

struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t req = 0;     ///< request id; 0 = set-up / untracked
  int64_t t0 = 0;       ///< steady-clock ns
  int64_t t1 = 0;
  uint32_t arg = 0;     ///< probes for descents, queries for morsels
  uint16_t name = 0;
  uint16_t tid = 0;
};

namespace trace {

/// Recording is off by default; ScopedSpan is then a relaxed load and a
/// branch. Warm-up passes and answer checks run with recording off.
void SetEnabled(bool on);

/// Request id stamped on spans opened by this thread from now on.
void SetRequest(uint64_t req);

/// Drops every recorded span (all threads). Call only while no span is open.
void Clear();

/// All spans recorded so far, merged across threads. Call only while no
/// thread is recording (after the executor's completion latch).
std::vector<SpanRec> Collect();

int64_t NowNs();

}  // namespace trace

/// \brief RAII span. No-op while recording is disabled.
class ScopedSpan {
 public:
  /// Child of this thread's innermost open span.
  explicit ScopedSpan(SpanName name, uint32_t arg = 0);
  /// Child of `parent` (a span opened on another thread) in request `req`.
  ScopedSpan(SpanName name, uint64_t parent, uint64_t req, uint32_t arg = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  void Open(SpanName name, uint64_t parent, uint64_t req, uint32_t arg);

  void* log_ = nullptr;  // the owning thread's log; null when disabled
  size_t index_ = 0;
  uint64_t id_ = 0;
  uint64_t prev_span_ = 0;
  uint64_t prev_req_ = 0;
};

/// ScopedSpan in the traced build of a workload, nothing in the untraced
/// one: the untraced run carries no tracing code at all.
template <bool kOn>
struct MaybeSpan {
  template <class... A>
  explicit MaybeSpan(A&&...) {}
  [[nodiscard]] uint64_t id() const { return 0; }
};
template <>
struct MaybeSpan<true> : ScopedSpan {
  using ScopedSpan::ScopedSpan;
};

/// \brief Per-name totals and the cross-span figures the per-layer metrics
/// need, computed from one phase's spans.
struct TraceAnalysis {
  struct Totals {
    uint64_t calls = 0;
    double total_us = 0;  ///< sum of span durations
    double self_us = 0;   ///< sum of durations minus child coverage
    uint64_t arg_sum = 0;
  };
  std::array<Totals, kNumSpanNames> by_name{};

  double self_sum_us = 0;      ///< wall-attributed self time over all spans
  uint64_t commit_writes = 0;  ///< storage.write under core.commit
  uint64_t commit_syncs = 0;   ///< storage.sync under core.commit
  uint64_t replica_misses = 0; ///< core.bag.read directly under replica.descent
  std::vector<double> commit_us;  ///< duration of each core.commit span

  // Executor figures, one entry per exec.request.
  double exec_request_us = 0;   ///< sum of request durations
  double exec_dispatch_us = 0;  ///< request time covered by no morsel
  double exec_morsel_us = 0;    ///< sum of morsel durations
  std::vector<double> morsel_skew;  ///< slowest / median morsel per request
  uint64_t exec_requests = 0;

  [[nodiscard]] const Totals& of(SpanName n) const {
    return by_name[static_cast<size_t>(n)];
  }
};

TraceAnalysis Analyze(const std::vector<SpanRec>& spans);

/// Writes up to `max_events` spans (earliest first) as a chrome://tracing
/// (Trace Event Format) JSON file. Returns false on an I/O error.
bool WriteChromeTrace(const std::vector<SpanRec>& spans, size_t max_events,
                      const std::string& path);

}  // namespace boxbench

#endif  // BOXBENCH_TRACE_H_
