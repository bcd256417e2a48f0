// boxbench: the boxagg benchmark. One invocation runs one workload in one
// process and prints, as its last stdout line, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on the plain
// stack for --seconds. With --trace 1 the workload's first trace_ops
// operations run twice, on the plain stack and on the traced stack, and the
// metrics are the per-layer ones taken from the traced run's spans. See
// README.md for the workloads and what each metric should move.
//
//   boxbench --workload cold_point --seed 1 --seconds 10 --trace 0
//            [--tiny] [--run-dir DIR] [--out-dir DIR]
//
// --tiny shrinks every workload to a few thousand objects and a short
// traced replay, for the schema smoke test.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "simd/simd.h"
#include "storage/page_file.h"
#include "workloads.h"

namespace boxbench {
namespace {

/// A traced run's layer self times must add up to its wall time within
/// this share (the ROADMAP's "layer times sum to wall time" rule).
constexpr double kSelfSumBound = 0.05;
/// The paper's cost model (Sec. 6): CPU + #I/Os x 10 ms.
constexpr double kPaperIoMs = boxagg::kPaperIoMillis;
/// Tolerance of the oracle check, in units of DBL_EPSILON x (sum of |value|
/// over the indexed objects). The index answers a box sum as a signed sum of
/// 2^d dominance sums, each up to the whole mass of the objects, so its
/// rounding error scales with that mass even when the answer is small; the
/// naive oracle adds only the objects that meet the query. Measured errors
/// stay below 30 units (README.md, Checks); a lost or doubled object is off
/// by its value, about 1e10 units at the benchmark's sizes.
constexpr double kOracleTolUnits = 1e3;
/// Answers per run compared with the oracle, spread evenly over the loop.
constexpr uint64_t kOracleSample = 200;
/// Spans written to the chrome://tracing file of a traced run.
constexpr size_t kDumpSpans = 50000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  std::string run_dir = ".bench_run";
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      --i;  // a flag without a value
      continue;
    }
    if (i + 1 == argc) return false;
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--run-dir") {
      a->run_dir = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

unsigned CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Compares a spread sample of answers against the naive oracle
/// (core/naive.h); for ingest_commit the oracle holds the bulk-loaded
/// objects plus every object inserted before the query. Returns the
/// number of mismatches.
uint64_t OracleCheck(const Spec& sp, const Inputs& in, const RunResult& r,
                     uint64_t* checked) {
  boxagg::NaiveBoxSum naive(2);
  double mass = 0;
  for (const auto& o : in.objects) {
    naive.Insert(o.box, o.value);
    mass += std::fabs(o.value);
  }
  for (const auto& o : in.inserts) mass += std::fabs(o.value);
  const double tol = kOracleTolUnits * DBL_EPSILON * mass;
  const uint64_t answers = r.answers.size();
  const uint64_t sample = std::min<uint64_t>(kOracleSample, answers);
  uint64_t bad = 0;
  for (uint64_t j = 0; j < sample; ++j) {
    const uint64_t k = j * answers / sample;
    const boxagg::Box& q = in.queries[k % in.queries.size()];
    double want = naive.Sum(q);
    if (sp.kind == Kind::kIngestCommit) {
      for (uint64_t i = 0; i <= k; ++i) {  // query k follows insert k
        const auto& o = in.inserts[i % in.inserts.size()];
        if (o.box.Intersects(q, 2)) want += o.value;
      }
    }
    if (std::fabs(r.answers[k] - want) > tol) {
      if (bad++ < 3) {
        std::fprintf(stderr,
                     "boxbench: oracle mismatch at query %llu: %.17g vs "
                     "%.17g\n",
                     static_cast<unsigned long long>(k), r.answers[k], want);
      }
    }
  }
  *checked = sample;
  return bad;
}

/// replica_cold answers must equal the live tree's, bit for bit: the
/// replica mirrors the source descent addition for addition. The live tree
/// is rebuilt in memory from the same objects, outside any timing.
uint64_t ReplicaMatchesLive(const Inputs& in, const RunResult& r) {
  boxagg::MemPageFile file;
  boxagg::BufferPool pool(&file, 1u << 16);
  boxagg::BoxSumIndex<boxagg::PackedBaTree<double>> live(
      2, [&] { return boxagg::PackedBaTree<double>(&pool, 2); });
  if (!live.BulkLoad(in.objects).ok()) return 1;
  const uint64_t answers = r.answers.size();
  const uint64_t sample = std::min<uint64_t>(kOracleSample, answers);
  uint64_t bad = 0;
  for (uint64_t j = 0; j < sample; ++j) {
    const uint64_t k = j * answers / sample;
    double want = 0;
    if (!live.Query(in.queries[k % in.queries.size()], &want).ok() ||
        std::memcmp(&want, &r.answers[k], sizeof(double)) != 0) {
      if (bad++ < 3) {
        std::fprintf(stderr,
                     "boxbench: replica answer %llu is %.17g, live tree "
                     "%.17g\n",
                     static_cast<unsigned long long>(k), r.answers[k], want);
      }
    }
  }
  return bad;
}

/// Counter fields that differ between two pool deltas.
int IoMismatches(const boxagg::IoStats& a, const boxagg::IoStats& b) {
  return (a.physical_reads != b.physical_reads) +
         (a.physical_writes != b.physical_writes) +
         (a.logical_reads != b.logical_reads) +
         (a.buffer_hits != b.buffer_hits) +
         (a.probe_fetches_saved != b.probe_fetches_saved) +
         (a.checksum_failures != b.checksum_failures) +
         (a.evictions != b.evictions) +
         (a.dirty_writebacks != b.dirty_writebacks);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit);
  }
  std::printf("}}\n");
}

/// One JSON line describing the run under per-workload names: build, data
/// size against pool size, client and thread counts, and every
/// per-operation figure (including those that apply to only some
/// workloads).
void PrintRecord(const Spec& sp, const Args& a, const RunResult& r,
                 uint64_t checked, double failed_frac) {
  const double page_mb = boxagg::kDefaultPageSize / (1024.0 * 1024.0);
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"build\": \"%s\", "
      "\"simd\": \"%s\", \"objects\": %zu, "
      "\"data_pages\": %llu, \"data_mb\": %.1f, \"pool_pages\": %zu, "
      "\"pool_mb\": %.1f, \"clients\": 1, \"loop\": \"closed\", "
      "\"threads\": %zu, \"shards\": %zu, \"ops\": %llu, \"queries\": %llu, "
      "\"inserts\": %llu, \"commits\": %llu, \"oracle_checked\": %llu, "
      "\"query_p50_us\": %.3f, \"query_p99_us\": %.3f, "
      "\"batch_p50_ms\": %.4f, \"batch_p99_ms\": %.4f, "
      "\"insert_p50_us\": %.3f, \"insert_p99_us\": %.3f, "
      "\"commit_p50_ms\": %.4f, \"phys_reads_per_query\": %.6f, "
      "\"phys_writes_per_insert\": %.6f, \"prefix_ops\": %llu, "
      "\"ops_failed_frac\": %.6g}}\n",
      sp.name.c_str(), static_cast<unsigned long long>(a.seed),
      BOXBENCH_BUILD_TYPE, boxagg::simd::kBackend, sp.n,
      static_cast<unsigned long long>(r.data_pages),
      static_cast<double>(r.data_pages) * page_mb, sp.pool_pages,
      static_cast<double>(sp.pool_pages) * page_mb,
      std::max<size_t>(sp.threads, 1), sp.shards,
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.queries),
      static_cast<unsigned long long>(r.inserts),
      static_cast<unsigned long long>(r.commits),
      static_cast<unsigned long long>(checked),
      sp.kind == Kind::kWarmBatch ? 0.0 : Percentile(r.query_us, 0.5),
      sp.kind == Kind::kWarmBatch ? 0.0 : Percentile(r.query_us, 0.99),
      sp.kind == Kind::kWarmBatch ? Percentile(r.op_us, 0.5) / 1e3 : 0.0,
      sp.kind == Kind::kWarmBatch ? Percentile(r.op_us, 0.99) / 1e3 : 0.0,
      sp.kind == Kind::kIngestCommit ? Percentile(r.op_us, 0.5) : 0.0,
      sp.kind == Kind::kIngestCommit ? Percentile(r.op_us, 0.99) : 0.0,
      Percentile(r.commit_us, 0.5) / 1e3,
      Div(static_cast<double>(r.io_prefix.physical_reads),
          static_cast<double>(r.prefix_queries)),
      Div(static_cast<double>(r.io_prefix.physical_writes),
          static_cast<double>(r.prefix_inserts)),
      static_cast<unsigned long long>(r.prefix_ops), failed_frac);
}

/// The end-to-end metrics. The I/O part of the paper cost comes from the
/// counts over the fixed first prefix_ops operations, so it repeats exactly
/// for a fixed seed; only its CPU part carries machine noise.
std::vector<Metric> EndToEnd(const Spec& sp, const RunResult& r,
                             double rss_mb) {
  const double q = static_cast<double>(r.queries);
  const double ios_per_query =
      Div(static_cast<double>(r.io_prefix.physical_reads +
                              r.io_prefix.physical_writes),
          static_cast<double>(r.prefix_queries));
  return {
      {"setup_s", Percentile(r.setup_s, 0.5), "s"},
      {"op_p50_us", Percentile(r.op_us, 0.5), "us"},
      {"op_p90_us", Percentile(r.op_us, 0.9), "us"},
      {"query_qps", Div(q, r.loop_s), "1/s"},
      {"paper_cost_ms_per_query",
       Div(r.loop_s * 1e3, q) + kPaperIoMs * ios_per_query, "ms"},
      {"bytes_per_object",
       Div(static_cast<double>(r.file_bytes), static_cast<double>(sp.n)),
       "B"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// Per-layer metrics from the traced replay `t`, with `u` the plain run of
/// the same operations. Counts are per closed-loop operation unless named
/// otherwise; "self" times exclude the time of child spans.
std::vector<Metric> PerLayer(const Spec& sp, const RunResult& u,
                             const RunResult& t, const TraceAnalysis& loop,
                             const TraceAnalysis& setup,
                             double* unattributed, int* io_mismatch) {
  const double ops = static_cast<double>(t.ops);
  const double queries = static_cast<double>(t.queries);
  const double loop_us = t.loop_s * 1e6;
  const auto& io = t.io_loop;
  auto calls = [&](SpanName n) {
    return static_cast<double>(loop.of(n).calls);
  };
  auto self = [&](SpanName n) { return loop.of(n).self_us; };
  auto args = [&](SpanName n) {
    return static_cast<double>(loop.of(n).arg_sum);
  };
  const double commits = calls(SpanName::kCoreCommit);
  *unattributed = std::fabs(loop_us - loop.self_sum_us) / loop_us;
  *io_mismatch = IoMismatches(u.io_loop, t.io_loop);
  return {
      {"storage.read.calls", Div(calls(SpanName::kStorageRead), ops), "1/op"},
      {"storage.read.us_per_call",
       Div(self(SpanName::kStorageRead), calls(SpanName::kStorageRead)), "us"},
      {"storage.read.share", Div(self(SpanName::kStorageRead), loop_us),
       "frac"},
      {"storage.write.calls", Div(calls(SpanName::kStorageWrite), ops), "1/op"},
      {"storage.write.us_per_call",
       Div(self(SpanName::kStorageWrite), calls(SpanName::kStorageWrite)),
       "us"},
      {"storage.sync.calls", Div(calls(SpanName::kStorageSync), ops), "1/op"},
      {"storage.sync.us_per_call",
       Div(self(SpanName::kStorageSync), calls(SpanName::kStorageSync)), "us"},
      {"pool.logical_reads_per_op",
       Div(static_cast<double>(io.logical_reads), ops), "1/op"},
      {"pool.hit_rate", io.HitRate(), "frac"},
      {"pool.evictions_per_op", Div(static_cast<double>(io.evictions), ops),
       "1/op"},
      {"pool.dirty_writebacks_per_op",
       Div(static_cast<double>(io.dirty_writebacks), ops), "1/op"},
      {"pool.checksum_failures", static_cast<double>(io.checksum_failures),
       "count"},
      {"pool.phys_reads_per_query",
       Div(static_cast<double>(io.physical_reads), queries), "1/query"},
      {"pool.phys_writes_per_insert",
       Div(static_cast<double>(io.physical_writes),
           static_cast<double>(t.inserts)),
       "1/insert"},
      {"core.bag.read_self_us",
       Div(self(SpanName::kBagRead), calls(SpanName::kBagRead)), "us"},
      {"core.query.self_us_per_query", Div(self(SpanName::kCoreQuery), queries),
       "us"},
      {"core.probes_per_query",
       Div(args(SpanName::kBatreeDescent) + args(SpanName::kReplicaDescent),
           queries),
       "1/query"},
      {"core.commit.us", Div(loop.of(SpanName::kCoreCommit).total_us, commits),
       "us"},
      {"core.commit.p50_ms", Percentile(loop.commit_us, 0.5) / 1e3, "ms"},
      {"core.commit.phys_writes",
       Div(static_cast<double>(loop.commit_writes), commits), "1/commit"},
      {"core.commit.syncs",
       Div(static_cast<double>(loop.commit_syncs), commits),
       "1/commit"},
      {"batree.descent.self_us_per_probe",
       Div(self(SpanName::kBatreeDescent), args(SpanName::kBatreeDescent)),
       "us"},
      {"batree.insert.self_us",
       Div(self(SpanName::kBatreeInsert), calls(SpanName::kBatreeInsert)),
       "us"},
      {"batree.bulkload_s", setup.of(SpanName::kBatreeBulkLoad).total_us / 1e6,
       "s"},
      {"replica.descent.self_us_per_probe",
       Div(self(SpanName::kReplicaDescent), args(SpanName::kReplicaDescent)),
       "us"},
      {"replica.phys_reads_per_probe",
       Div(static_cast<double>(loop.replica_misses),
           args(SpanName::kReplicaDescent)),
       "1/probe"},
      {"replica.build_s", setup.of(SpanName::kReplicaBuild).total_us / 1e6,
       "s"},
      {"exec.worker_busy_frac",
       Div(loop.exec_morsel_us,
           static_cast<double>(sp.threads) * loop.exec_request_us),
       "frac"},
      {"exec.dispatch_self_us",
       Div(loop.exec_dispatch_us, static_cast<double>(loop.exec_requests)),
       "us"},
      {"exec.morsel_skew", Percentile(loop.morsel_skew, 0.5), "ratio"},
      {"trace.overhead_frac", Div(t.loop_s - u.loop_s, t.loop_s), "frac"},
      {"trace.unattributed_frac", *unattributed, "frac"},
      {"trace.io_mismatches", static_cast<double>(*io_mismatch), "count"},
  };
}

/// Human-readable layer table on stderr: self time per span name.
void PrintLayerTable(const TraceAnalysis& a, double loop_s) {
  std::fprintf(stderr, "%-18s %10s %12s %10s\n", "span", "calls",
               "self_us", "share");
  for (size_t i = 0; i < kNumSpanNames; ++i) {
    const auto& t = a.by_name[i];
    if (t.calls == 0) continue;
    std::fprintf(stderr, "%-18s %10llu %12.0f %9.1f%%\n",
                 SpanNameString(static_cast<SpanName>(i)),
                 static_cast<unsigned long long>(t.calls), t.self_us,
                 100.0 * t.self_us / (loop_s * 1e6));
  }
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: boxbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--run-dir DIR] [--out-dir DIR]\n");
    return 2;
  }
  Spec sp;
  if (!SpecFor(a.workload, CpuCount(), a.tiny, &sp)) {
    std::fprintf(stderr, "boxbench: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  ::mkdir(a.run_dir.c_str(), 0755);
  ::mkdir(a.out_dir.c_str(), 0755);

  const Inputs in = MakeInputs(sp, a.seed);
  const bool traced = a.trace == 1;
  // A traced invocation replays a fixed number of operations on both
  // stacks; its time limit only guards against a pathologically slow
  // machine.
  Budget b;
  b.seconds = traced ? 4 * a.seconds + 30 : a.seconds;
  b.prefix_ops = sp.trace_ops;
  if (traced) {
    b.max_ops = sp.trace_ops;
    sp.setup_reps = 1;
  }

  RunResult u;
  if (!Run<false>(sp, in, b, a.run_dir, &u)) {
    std::fprintf(stderr, "boxbench: %s: %s\n", sp.name.c_str(),
                 u.first_error.c_str());
    return 1;
  }
  const double rss_mb = PeakRssMb();
  uint64_t checked = 0;
  uint64_t failed = u.failed + OracleCheck(sp, in, u, &checked);
  if (sp.kind == Kind::kReplicaCold) {
    failed += ReplicaMatchesLive(in, u);
  }
  if (u.io_loop.checksum_failures != 0) {
    std::fprintf(stderr, "boxbench: %llu checksum failures\n",
                 static_cast<unsigned long long>(u.io_loop.checksum_failures));
    ++failed;
  }
  if (u.failed != 0) {
    std::fprintf(stderr, "boxbench: first error: %s\n", u.first_error.c_str());
  }

  std::vector<Metric> metrics;
  bool correct = true;
  if (!traced) {
    metrics = EndToEnd(sp, u, rss_mb);
  } else {
    RunResult t;
    Budget tb = b;
    tb.max_ops = u.ops;
    if (!Run<true>(sp, in, tb, a.run_dir, &t)) {
      std::fprintf(stderr, "boxbench: traced %s: %s\n", sp.name.c_str(),
                   t.first_error.c_str());
      return 1;
    }
    std::vector<SpanRec> setup_spans, loop_spans, dump;
    for (const SpanRec& s : t.spans) {
      (s.req == 0 ? setup_spans : loop_spans).push_back(s);
      // The dump keeps set-up above the page layers (its page spans would
      // crowd out the loop) and the loop in full.
      if (s.req != 0 || s.name < static_cast<uint16_t>(SpanName::kBagRead)) {
        dump.push_back(s);
      }
    }
    const TraceAnalysis setup = Analyze(setup_spans);
    const TraceAnalysis loop = Analyze(loop_spans);
    double unattributed = 0;
    int io_mismatch = 0;
    metrics = PerLayer(sp, u, t, loop, setup, &unattributed, &io_mismatch);
    // The wrappers must change neither answers nor I/O.
    uint64_t answer_mismatch = t.answers.size() != u.answers.size() ? 1 : 0;
    for (size_t k = 0; k < std::min(t.answers.size(), u.answers.size()); ++k) {
      if (std::memcmp(&t.answers[k], &u.answers[k], sizeof(double)) != 0) {
        ++answer_mismatch;
      }
    }
    failed += t.failed + answer_mismatch;
    if (io_mismatch != 0 || t.ops != u.ops) {
      std::fprintf(stderr, "boxbench: traced run changed the I/O counts\n");
      correct = false;
    }
    if (unattributed > kSelfSumBound) {
      std::fprintf(stderr,
                   "boxbench: layer self times miss wall time by %.1f%% "
                   "(bound %.0f%%)\n",
                   100 * unattributed, 100 * kSelfSumBound);
      correct = false;
    }
    PrintLayerTable(loop, t.loop_s);
    const std::string path = a.out_dir + "/trace-" + sp.name + "-" +
                             std::to_string(a.seed) + ".json";
    if (WriteChromeTrace(dump, kDumpSpans, path)) {
      std::fprintf(stderr, "boxbench: spans written to %s\n", path.c_str());
    }
  }
  correct = correct && failed == 0;
  PrintRecord(sp, a, u, checked,
              Div(static_cast<double>(failed), static_cast<double>(u.ops)));
  PrintResult(correct, u.ops, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace boxbench

int main(int argc, char** argv) { return boxbench::Main(argc, argv); }
