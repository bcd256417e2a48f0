#include "workloads.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"
#include "replica/replica_builder.h"
#include "stack.h"
#include "workload/generators.h"

namespace boxbench {

using boxagg::Box;
using boxagg::BoxObject;
using boxagg::BoxSumIndex;
using boxagg::CompactReplica;
using boxagg::IoStats;
using boxagg::PackedBaTree;
namespace exec = boxagg::exec;

namespace {

constexpr int kDims = 2;
constexpr uint32_t kRoots = 1u << kDims;  // one root per sign index

template <bool kTraced>
using Tree = IndexT<kTraced, PackedBaTree<double>>;
template <bool kTraced>
using Replica = IndexT<kTraced, CompactReplica<double>>;

template <bool kTraced, class Inner>
IndexT<kTraced, Inner> Wrap(Inner inner) {
  if constexpr (kTraced) {
    return TracedIndex<Inner>(std::move(inner));
  } else {
    return inner;
  }
}

template <class Idx>
std::vector<PageId> Roots(BoxSumIndex<Idx>& idx) {
  std::vector<PageId> roots;
  for (uint32_t s = 0; s < idx.index_count(); ++s) {
    roots.push_back(idx.index(s).root());
  }
  return roots;
}

/// The index a workload queries, over its own file. Members are destroyed
/// bottom-up: the index handles before the store they read from.
template <bool kTraced>
struct Engine {
  Store<kTraced> store;
  std::unique_ptr<BoxSumIndex<Tree<kTraced>>> live;
  std::unique_ptr<BoxSumIndex<Replica<kTraced>>> replica;
};

/// Everything until the first query can be served: file + BagFile create,
/// bulk load, commit, and for replica_cold the `boxagg_cli build --replica`
/// flow (build the replicas, drop the live trees, commit, open).
template <bool kTraced>
Status Setup(const Spec& sp, const Inputs& in, const std::string& path,
             Engine<kTraced>* e) {
  BOXAGG_RETURN_NOT_OK(e->store.Create(path, boxagg::kDefaultPageSize,
                                       kRoots, sp.pool_pages, sp.shards));
  BufferPool* pool = e->store.pool();
  e->live = std::make_unique<BoxSumIndex<Tree<kTraced>>>(kDims, [pool] {
    return Wrap<kTraced>(PackedBaTree<double>(pool, kDims));
  });
  {
    MaybeSpan<kTraced> s(SpanName::kCoreBulkLoad);
    BOXAGG_RETURN_NOT_OK(e->live->BulkLoad(in.objects));
  }
  if (sp.kind != Kind::kReplicaCold) {
    return e->store.Publish(Roots(*e->live));
  }
  boxagg::ReplicaBuilder<double> builder(pool);
  std::vector<PageId> roots;
  for (uint32_t s = 0; s < kRoots; ++s) {
    MaybeSpan<kTraced> span(SpanName::kReplicaBuild);
    PageId r = boxagg::kInvalidPageId;
    BOXAGG_RETURN_NOT_OK(builder.Build(Raw(e->live->index(s)), &r));
    roots.push_back(r);
  }
  BOXAGG_RETURN_NOT_OK(e->live->Destroy());
  e->live.reset();
  BOXAGG_RETURN_NOT_OK(e->store.Publish(roots));
  uint32_t next = 0;
  e->replica = std::make_unique<BoxSumIndex<Replica<kTraced>>>(
      kDims, [pool, &roots, &next] {
        return Wrap<kTraced>(
            CompactReplica<double>(pool, kDims, roots[next++]));
      });
  for (uint32_t s = 0; s < kRoots; ++s) {
    BOXAGG_RETURN_NOT_OK(e->replica->index(s).Open());
  }
  return Status::OK();
}

/// Closed-loop bookkeeping shared by every loop.
struct LoopCtl {
  const Budget& budget;
  BufferPool* pool;
  RunResult* out;
  IoStats start;
  int64_t t_start = 0;
  int64_t deadline_ns = 0;

  [[nodiscard]] bool Done(uint64_t i, int64_t now) const {
    if (budget.max_ops != 0 && i >= budget.max_ops) return true;
    return deadline_ns != 0 && now >= deadline_ns;
  }
  void Check(const Status& st) {
    if (st.ok()) return;
    if (out->failed++ == 0) out->first_error = st.ToString();
  }
  void AfterOp(uint64_t i) {
    ++out->ops;
    if (i + 1 != budget.prefix_ops) return;
    out->io_prefix = pool->stats().Since(start);
    out->prefix_ops = out->ops;
    out->prefix_queries = out->queries;
    out->prefix_inserts = out->inserts;
  }
};

double UsBetween(int64_t a, int64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

/// cold_point / replica_cold: one client, one Query call per operation.
template <bool kTraced, class Idx>
void PointLoop(const BoxSumIndex<Idx>& idx, const Inputs& in, LoopCtl* c) {
  const auto& qs = in.queries;
  RunResult* out = c->out;
  int64_t now = c->t_start;
  for (uint64_t i = 0; !c->Done(i, now); ++i) {
    if constexpr (kTraced) trace::SetRequest(i + 1);
    double ans = 0;
    const int64_t t0 = trace::NowNs();
    Status st;
    {
      MaybeSpan<kTraced> s(SpanName::kCoreQuery, 1u);
      st = idx.Query(qs[i % qs.size()], &ans);
    }
    now = trace::NowNs();
    const double us = UsBetween(t0, now);
    out->op_us.push_back(us);
    out->query_us.push_back(us);
    out->answers.push_back(ans);
    ++out->queries;
    c->Check(st);
    c->AfterOp(i);
  }
}

/// ingest_commit: one client alternating Insert and Query; every
/// commit_every inserts it makes them durable with FlushAll + Commit.
template <bool kTraced>
void IngestLoop(const Spec& sp, const Inputs& in, Engine<kTraced>* e,
                LoopCtl* c) {
  auto& idx = *e->live;
  const auto& qs = in.queries;
  RunResult* out = c->out;
  int64_t now = c->t_start;
  for (uint64_t i = 0; !c->Done(i, now); ++i) {
    if constexpr (kTraced) trace::SetRequest(i + 1);
    const BoxObject& o = in.inserts[i % in.inserts.size()];
    const int64_t t0 = trace::NowNs();
    Status st;
    {
      MaybeSpan<kTraced> s(SpanName::kCoreInsert);
      st = idx.Insert(o.box, o.value);
    }
    const int64_t t1 = trace::NowNs();
    ++out->inserts;
    out->op_us.push_back(UsBetween(t0, t1));
    c->Check(st);
    double ans = 0;
    {
      MaybeSpan<kTraced> s(SpanName::kCoreQuery, 1u);
      st = idx.Query(qs[i % qs.size()], &ans);
    }
    now = trace::NowNs();
    ++out->queries;
    out->query_us.push_back(UsBetween(t1, now));
    out->answers.push_back(ans);
    c->Check(st);
    if ((i + 1) % sp.commit_every == 0) {
      const int64_t t2 = now;
      st = e->store.Publish(Roots(idx));
      now = trace::NowNs();
      ++out->commits;
      out->commit_us.push_back(UsBetween(t2, now));
      c->Check(st);
    }
    c->AfterOp(i);
  }
}

/// warm_batch: one client submitting fixed-size requests to
/// RunBatchGrouped; each executor morsel is one QueryBatch call.
template <bool kTraced>
void BatchLoop(const Spec& sp, const std::vector<std::vector<Box>>& reqs,
               const exec::BatchQueryFn& fn,
               exec::ParallelQueryExecutor* ex, std::atomic<uint64_t>* span,
               std::atomic<uint64_t>* req_id, LoopCtl* c) {
  RunResult* out = c->out;
  std::vector<double> results;
  int64_t now = c->t_start;
  for (uint64_t i = 0; !c->Done(i, now); ++i) {
    if constexpr (kTraced) trace::SetRequest(i + 1);
    const std::vector<Box>& rq = reqs[i % reqs.size()];
    const int64_t t0 = trace::NowNs();
    Status st;
    {
      MaybeSpan<kTraced> s(SpanName::kExecRequest,
                           static_cast<uint32_t>(rq.size()));
      span->store(s.id(), std::memory_order_relaxed);
      req_id->store(i + 1, std::memory_order_relaxed);
      st = ex->RunBatchGrouped(fn, rq, sp.morsel, &results);
    }
    now = trace::NowNs();
    out->op_us.push_back(UsBetween(t0, now));
    out->queries += rq.size();
    if (i < reqs.size()) {
      out->answers.insert(out->answers.end(), results.begin(), results.end());
    }
    c->Check(st);
    c->AfterOp(i);
  }
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

bool SpecFor(const std::string& name, unsigned cpus, bool tiny, Spec* s) {
  const size_t ten_mb =
      BufferPool::CapacityForMegabytes(10, boxagg::kDefaultPageSize);
  *s = Spec{};
  s->name = name;
  if (name == "cold_point") {
    s->kind = Kind::kColdPoint;
    s->n = 200000;
    s->qbs = 1e-4;
    s->query_pool = 20000;
    s->pool_pages = ten_mb;
    s->trace_ops = 4000;
  } else if (name == "warm_batch") {
    s->kind = Kind::kWarmBatch;
    // 20k objects (~14 MB of trees): at 100k (~121 MB) throughput swung
    // +-25% between runs as other tenants shared the last-level cache; at
    // 20k it held within +-5% (README.md, Steadiness).
    s->n = 20000;
    s->qbs = 1e-3;
    s->batch = 256;
    s->morsel = 16;
    s->query_pool = s->batch * 32;
    // Room for the whole index in every shard; frames are allocated
    // lazily, so only resident pages cost memory.
    s->pool_pages =
        BufferPool::CapacityForMegabytes(256, boxagg::kDefaultPageSize);
    // One executor worker and one pool shard per CPU, at most 4 so that
    // figures from bigger machines stay comparable.
    s->threads = std::clamp<size_t>(cpus, 1, 4);
    s->shards = s->threads;
    // Its set-up takes about 0.15 s, short enough for machine noise to
    // spread a median of 3 by a quarter; a median of 9 costs ~1 s more.
    s->setup_reps = 9;
    s->trace_ops = 200;
  } else if (name == "ingest_commit") {
    s->kind = Kind::kIngestCommit;
    s->n = 200000;
    s->qbs = 1e-4;
    s->query_pool = 20000;
    s->pool_pages = ten_mb;
    s->inserts = 100000;
    s->commit_every = 100;
    s->trace_ops = 1000;
  } else if (name == "replica_cold") {
    s->kind = Kind::kReplicaCold;
    s->n = 100000;
    s->qbs = 1e-4;
    s->query_pool = 20000;
    s->pool_pages = ten_mb;
    s->trace_ops = 8000;
  } else {
    return false;
  }
  if (tiny) {
    s->n = 3000;
    s->setup_reps = 1;
    s->trace_ops = 40;
    s->query_pool = std::max<size_t>(512, s->batch);
  }
  return true;
}

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  boxagg::workload::RectConfig rc;
  rc.n = spec.n;
  rc.seed = seed;
  in.objects = boxagg::workload::UniformRects(rc);
  in.queries = boxagg::workload::QueryBoxes(spec.query_pool, spec.qbs,
                                            seed ^ 0x9e3779b97f4a7c15ull);
  if (spec.inserts > 0) {
    rc.n = spec.inserts;
    rc.seed = seed + 0x5bd1e995ull;
    in.inserts = boxagg::workload::UniformRects(rc);
  }
  return in;
}

template <bool kTraced>
bool Run(const Spec& sp, const Inputs& in, const Budget& budget,
         const std::string& run_dir, RunResult* out) {
  auto fail = [out](const Status& st) {
    out->first_error = st.ToString();
    return false;
  };
  if constexpr (kTraced) {
    trace::Clear();
    trace::SetEnabled(true);
  }
  const std::string path = run_dir + "/" + sp.name + "-" +
                           std::to_string(::getpid()) + ".bag";
  std::unique_ptr<Engine<kTraced>> e;
  for (size_t rep = 0; rep < std::max<size_t>(1, sp.setup_reps); ++rep) {
    e.reset();  // drop the previous set-up (and its file) untimed
    auto fresh = std::make_unique<Engine<kTraced>>();
    const int64_t t0 = trace::NowNs();
    Status st = Setup<kTraced>(sp, in, path, fresh.get());
    const int64_t t1 = trace::NowNs();
    if (!st.ok()) return fail(st);
    out->setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    e = std::move(fresh);
  }
  trace::SetEnabled(false);
  out->file_bytes = FileBytes(path);
  out->data_pages = e->store.bag()->live_page_count();
  BufferPool* pool = e->store.pool();

  std::unique_ptr<exec::ParallelQueryExecutor> ex;
  std::vector<std::vector<Box>> reqs;
  std::atomic<uint64_t> req_span{0}, req_id{0};
  exec::BatchQueryFn fn;
  if (sp.kind == Kind::kWarmBatch) {
    ex = std::make_unique<exec::ParallelQueryExecutor>(sp.threads);
    for (size_t lo = 0; lo + sp.batch <= in.queries.size(); lo += sp.batch) {
      reqs.emplace_back(in.queries.begin() + static_cast<long>(lo),
                        in.queries.begin() + static_cast<long>(lo + sp.batch));
    }
    const auto* idx = e->live.get();
    if constexpr (kTraced) {
      fn = [idx, &req_span, &req_id](const Box* qs, size_t n, double* outs) {
        ScopedSpan m(SpanName::kExecMorsel,
                     req_span.load(std::memory_order_relaxed),
                     req_id.load(std::memory_order_relaxed),
                     static_cast<uint32_t>(n));
        ScopedSpan q(SpanName::kCoreQuery, static_cast<uint32_t>(n));
        return idx->QueryBatch(qs, n, outs);
      };
    } else {
      fn = exec::BoxSumBatchQueryFn(idx);
    }
    // Untimed warm-up: every request once, so descents, arenas and the
    // executor's threads are warm and the pool holds the whole index.
    std::vector<double> results;
    for (const auto& rq : reqs) {
      Status st = ex->RunBatchGrouped(fn, rq, sp.morsel, &results);
      if (!st.ok()) return fail(st);
    }
  } else {
    // Cold start: an empty pool over the freshly committed file.
    Status st = pool->Reset();
    if (!st.ok()) return fail(st);
  }

  out->op_us.reserve(1u << 20);
  out->query_us.reserve(sp.kind == Kind::kWarmBatch ? 0 : (1u << 20));
  out->answers.reserve(1u << 20);
  LoopCtl c{budget, pool, out, pool->stats(), trace::NowNs()};
  if (budget.seconds > 0) {
    c.deadline_ns = c.t_start + static_cast<int64_t>(budget.seconds * 1e9);
  }
  if constexpr (kTraced) trace::SetEnabled(true);
  switch (sp.kind) {
    case Kind::kColdPoint:
      PointLoop<kTraced>(*e->live, in, &c);
      break;
    case Kind::kReplicaCold:
      PointLoop<kTraced>(*e->replica, in, &c);
      break;
    case Kind::kIngestCommit:
      IngestLoop<kTraced>(sp, in, e.get(), &c);
      break;
    case Kind::kWarmBatch:
      BatchLoop<kTraced>(sp, reqs, fn, ex.get(), &req_span, &req_id, &c);
      break;
  }
  const int64_t t_end = trace::NowNs();
  trace::SetEnabled(false);
  out->loop_s = static_cast<double>(t_end - c.t_start) / 1e9;
  out->io_loop = pool->stats().Since(c.start);
  if (out->prefix_ops == 0) {  // loop ended before the prefix
    out->io_prefix = out->io_loop;
    out->prefix_ops = out->ops;
    out->prefix_queries = out->queries;
    out->prefix_inserts = out->inserts;
  }
  if constexpr (kTraced) out->spans = trace::Collect();
  return true;
}

template bool Run<false>(const Spec&, const Inputs&, const Budget&,
                         const std::string&, RunResult*);
template bool Run<true>(const Spec&, const Inputs&, const Budget&,
                        const std::string&, RunResult*);

}  // namespace boxbench
