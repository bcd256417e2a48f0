#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/sync.h"

namespace boxbench {

namespace {

constexpr const char* kSpanNames[kNumSpanNames] = {
    "core.query",      "core.insert",     "core.bulkload",
    "pool.flush_all",  "core.commit",     "exec.request",
    "exec.morsel",     "batree.descent",  "batree.insert",
    "batree.bulkload", "replica.descent", "replica.build",
    "replica.open",    "core.bag.read",   "core.bag.write",
    "core.bag.alloc",  "core.bag.free",   "core.bag.sync",
    "storage.read",    "storage.write",   "storage.sync",
    "storage.extend",
};

struct ThreadLog {
  std::vector<SpanRec> spans;
  uint16_t tid = 0;
  uint64_t next_seq = 1;
  uint64_t cur_span = 0;
  uint64_t cur_req = 0;
};

std::atomic<bool> g_enabled{false};

class Registry {
 public:
  ThreadLog* Register() {
    boxagg::sync::MutexLock lock(&mu_);
    auto log = std::make_unique<ThreadLog>();
    log->tid = static_cast<uint16_t>(logs_.size());
    // The client thread records most spans; reserving keeps vector growth
    // (a large copy) out of the timed loop.
    log->spans.reserve(logs_.empty() ? (1u << 20) : (1u << 16));
    logs_.push_back(std::move(log));
    return logs_.back().get();
  }

  void Clear() {
    boxagg::sync::MutexLock lock(&mu_);
    for (auto& l : logs_) l->spans.clear();
  }

  std::vector<SpanRec> Collect() {
    boxagg::sync::MutexLock lock(&mu_);
    std::vector<SpanRec> out;
    for (auto& l : logs_) {
      out.insert(out.end(), l->spans.begin(), l->spans.end());
    }
    return out;
  }

 private:
  boxagg::sync::Mutex mu_{"boxbench.trace", boxagg::sync::lock_rank::kLeaf};
  std::vector<std::unique_ptr<ThreadLog>> logs_ GUARDED_BY(mu_);
};

Registry& Reg() {
  static Registry* r = new Registry();  // never destroyed: worker threads
  return *r;                            // may outlive static teardown
}

ThreadLog* Local() {
  thread_local ThreadLog* log = Reg().Register();
  return log;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

const char* SpanNameString(SpanName n) {
  return kSpanNames[static_cast<size_t>(n)];
}

namespace trace {

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void SetRequest(uint64_t req) { Local()->cur_req = req; }

void Clear() { Reg().Clear(); }

std::vector<SpanRec> Collect() { return Reg().Collect(); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace trace

ScopedSpan::ScopedSpan(SpanName name, uint32_t arg) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadLog* log = Local();
  Open(name, log->cur_span, log->cur_req, arg);
}

ScopedSpan::ScopedSpan(SpanName name, uint64_t parent, uint64_t req,
                       uint32_t arg) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Open(name, parent, req, arg);
}

void ScopedSpan::Open(SpanName name, uint64_t parent, uint64_t req,
                      uint32_t arg) {
  ThreadLog* log = Local();
  log_ = log;
  index_ = log->spans.size();
  id_ = (uint64_t{log->tid} << 48) | log->next_seq++;
  prev_span_ = log->cur_span;
  prev_req_ = log->cur_req;
  log->cur_span = id_;
  log->cur_req = req;
  SpanRec r;
  r.id = id_;
  r.parent = parent;
  r.req = req;
  r.arg = arg;
  r.name = static_cast<uint16_t>(name);
  r.tid = log->tid;
  r.t0 = trace::NowNs();
  log->spans.push_back(r);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  auto* log = static_cast<ThreadLog*>(log_);
  log->spans[index_].t1 = trace::NowNs();
  log->cur_span = prev_span_;
  log->cur_req = prev_req_;
}

TraceAnalysis Analyze(const std::vector<SpanRec>& spans) {
  TraceAnalysis a;
  const size_t n = spans.size();
  std::unordered_map<uint64_t, uint32_t> index_of;
  index_of.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    index_of[spans[i].id] = static_cast<uint32_t>(i);
  }

  // Children grouped by parent, each group ordered by start time.
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    if (spans[x].parent != spans[y].parent) {
      return spans[x].parent < spans[y].parent;
    }
    return spans[x].t0 < spans[y].t0;
  });
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> kids;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && spans[order[j]].parent == spans[order[i]].parent) ++j;
    if (spans[order[i]].parent != 0) {
      kids[spans[order[i]].parent] = {static_cast<uint32_t>(i),
                                      static_cast<uint32_t>(j)};
    }
    i = j;
  }

  // Covered = measure of the union of the children's intervals, clipped to
  // the parent. Same-thread children are sequential; morsels overlap.
  auto covered_ns = [&](const SpanRec& s) -> int64_t {
    auto it = kids.find(s.id);
    if (it == kids.end()) return 0;
    int64_t cov = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (uint32_t k = it->second.first; k < it->second.second; ++k) {
      const SpanRec& c = spans[order[k]];
      const int64_t lo = std::max(c.t0, s.t0);
      const int64_t hi = std::min(c.t1, s.t1);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) cov += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) cov += cur_hi - cur_lo;
    return cov;
  };

  auto name_of = [&](uint64_t id) -> int {
    auto it = index_of.find(id);
    return it == index_of.end() ? -1 : spans[it->second].name;
  };
  // Root-ancestor name (a morsel's root is its exec.request).
  auto root_of = [&](size_t i) {
    size_t cur = i;
    for (int guard = 0; guard < 64; ++guard) {
      const uint64_t p = spans[cur].parent;
      if (p == 0) return static_cast<int>(spans[cur].name);
      auto it = index_of.find(p);
      if (it == index_of.end()) return static_cast<int>(spans[cur].name);
      cur = it->second;
    }
    return -1;
  };
  // Whether a span sits under an exec.morsel (runs on a worker thread).
  auto under_morsel = [&](size_t i) {
    size_t cur = i;
    for (int guard = 0; guard < 64; ++guard) {
      if (spans[cur].name == static_cast<uint16_t>(SpanName::kExecMorsel)) {
        return true;
      }
      const uint64_t p = spans[cur].parent;
      if (p == 0) return false;
      auto it = index_of.find(p);
      if (it == index_of.end()) return false;
      cur = it->second;
    }
    return false;
  };

  for (size_t i = 0; i < n; ++i) {
    const SpanRec& s = spans[i];
    const int64_t dur = s.t1 - s.t0;
    const int64_t self = dur - covered_ns(s);
    auto& t = a.by_name[s.name];
    ++t.calls;
    t.total_us += Us(dur);
    t.self_us += Us(self);
    t.arg_sum += s.arg;
    // Worker-side self time is attributed to wall time through its
    // request's covered interval (added below), not summed per thread.
    if (!under_morsel(i)) a.self_sum_us += Us(self);
    if (root_of(i) == static_cast<int>(SpanName::kCoreCommit)) {
      if (s.name == static_cast<uint16_t>(SpanName::kStorageWrite)) {
        ++a.commit_writes;
      }
      if (s.name == static_cast<uint16_t>(SpanName::kStorageSync)) {
        ++a.commit_syncs;
      }
    }
    if (s.name == static_cast<uint16_t>(SpanName::kCoreCommit)) {
      a.commit_us.push_back(Us(dur));
    }
    if (s.name == static_cast<uint16_t>(SpanName::kBagRead) &&
        name_of(s.parent) == static_cast<int>(SpanName::kReplicaDescent)) {
      ++a.replica_misses;
    }
    if (s.name == static_cast<uint16_t>(SpanName::kExecRequest)) {
      const int64_t cov = covered_ns(s);
      ++a.exec_requests;
      a.exec_request_us += Us(dur);
      a.exec_dispatch_us += Us(dur - cov);
      a.self_sum_us += Us(cov);
      std::vector<double> m;
      auto it = kids.find(s.id);
      if (it != kids.end()) {
        for (uint32_t k = it->second.first; k < it->second.second; ++k) {
          const SpanRec& c = spans[order[k]];
          m.push_back(Us(c.t1 - c.t0));
          a.exec_morsel_us += Us(c.t1 - c.t0);
        }
      }
      if (!m.empty()) {
        std::sort(m.begin(), m.end());
        const double med = m[(m.size() - 1) / 2];
        if (med > 0) a.morsel_skew.push_back(m.back() / med);
      }
    }
  }
  return a;
}

bool WriteChromeTrace(const std::vector<SpanRec>& spans, size_t max_events,
                      const std::string& path) {
  std::vector<uint32_t> order(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return spans[x].t0 < spans[y].t0;
  });
  if (order.size() > max_events) order.resize(max_events);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = order.empty() ? 0 : spans[order[0]].t0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t k = 0; k < order.size(); ++k) {
    const SpanRec& s = spans[order[k]];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"boxbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"arg\":%u}}\n",
                 k == 0 ? "" : ",", kSpanNames[s.name],
                 static_cast<double>(s.t0 - base) / 1000.0,
                 static_cast<double>(s.t1 - s.t0) / 1000.0,
                 static_cast<unsigned>(s.tid),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req),
                 static_cast<unsigned>(s.arg));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace boxbench
