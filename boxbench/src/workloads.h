// The four benchmark workloads. Each runs the same closed loop twice over
// when asked: once on the plain stack (end-to-end numbers) and once on the
// traced stack (per-layer numbers), with identical inputs and operations.

#ifndef BOXBENCH_WORKLOADS_H_
#define BOXBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/naive.h"
#include "geom/box.h"
#include "storage/io_stats.h"
#include "trace.h"

namespace boxbench {

enum class Kind { kColdPoint, kWarmBatch, kIngestCommit, kReplicaCold };

/// Everything that shapes one workload, as SpecFor sets it.
struct Spec {
  std::string name;
  Kind kind = Kind::kColdPoint;
  size_t n = 0;               ///< objects bulk-loaded in set-up
  double qbs = 0;             ///< query box area, fraction of the space
  size_t query_pool = 0;      ///< distinct queries, cycled by the loop
  size_t pool_pages = 0;      ///< BufferPool capacity in pages
  size_t shards = 1;          ///< BufferPool shards
  size_t threads = 0;         ///< executor workers (0 = none)
  size_t batch = 0;           ///< queries per warm_batch request
  size_t morsel = 0;          ///< queries per executor morsel
  size_t inserts = 0;         ///< distinct objects ingest_commit inserts
  size_t commit_every = 0;    ///< inserts per FlushAll + Commit
  size_t setup_reps = 3;      ///< set-ups timed per run (median reported)
  size_t trace_ops = 0;       ///< operations in the traced replay
};

/// The spec of workload `name` on a machine with `cpus` CPUs; `tiny`
/// shrinks it for the smoke test. Returns false for an unknown name.
bool SpecFor(const std::string& name, unsigned cpus, bool tiny, Spec* out);

/// Generated inputs; the same seed gives the same inputs.
struct Inputs {
  std::vector<boxagg::BoxObject> objects;  ///< bulk-loaded in set-up
  std::vector<boxagg::Box> queries;        ///< cycled by the loop
  std::vector<boxagg::BoxObject> inserts;  ///< ingest_commit only
};

Inputs MakeInputs(const Spec& spec, uint64_t seed);

/// When the measured loop stops: `seconds` after it starts or after
/// `max_ops` operations, whichever comes first (0 = unset).
struct Budget {
  double seconds = 0;
  uint64_t max_ops = 0;
  uint64_t prefix_ops = 0;  ///< I/O counters are also snapshot after this op
};

/// What one run (plain or traced) measured.
struct RunResult {
  std::vector<double> setup_s;  ///< one per timed set-up
  uint64_t file_bytes = 0;      ///< index file size after set-up
  uint64_t data_pages = 0;      ///< pages the index occupies
  uint64_t ops = 0;             ///< closed-loop operations completed
  uint64_t queries = 0;         ///< box-sum answers produced
  uint64_t inserts = 0;
  uint64_t commits = 0;
  double loop_s = 0;
  std::vector<double> op_us;      ///< latency of each operation
  std::vector<double> query_us;   ///< latency of each single Query call
  std::vector<double> commit_us;  ///< latency of each FlushAll + Commit
  std::vector<double> answers;    ///< answers[k] answers queries[k % pool]
  boxagg::IoStats io_loop;        ///< pool counters over the whole loop
  boxagg::IoStats io_prefix;      ///< pool counters over the first prefix ops
  uint64_t prefix_ops = 0;
  uint64_t prefix_queries = 0;
  uint64_t prefix_inserts = 0;
  uint64_t failed = 0;  ///< operations that returned an error
  std::string first_error;
  std::vector<SpanRec> spans;  ///< traced run only
};

/// Runs `spec` once. kTraced selects the traced stack (and records spans).
template <bool kTraced>
bool Run(const Spec& spec, const Inputs& in, const Budget& budget,
         const std::string& run_dir, RunResult* out);

}  // namespace boxbench

#endif  // BOXBENCH_WORKLOADS_H_
