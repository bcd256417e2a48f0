// The batched dominance-sum descent, written once.
//
// The ECDF-B-trees (Sec. 4) and the BA-tree (Sec. 5) answer a probe alike:
// route it down a main branch and add the border sums of the records it
// passes — for a BA-tree the d borders of the record whose box contains it
// (Fig. 7), inline in the node page or spilled; for an ECDF-B-tree the
// borders left of its dim-0 route, all of them in Bu and one prefix border
// in Bq (Fig. 6). Borders are (d-1)-dimensional trees that bottom out in
// the aggregate B+-tree. A batch of probes shares every node fetch.
//
// PackedBaTree, EcdfBTree, AggBTree and CompactReplica all run this one
// descent; they differ only in how a node's bytes are read. Each supplies a
// node reader:
//
//   using Value = V;            // the aggregate type
//   using Ref = ...;            // node address (PageId, replica ordinal)
//   static constexpr Ref kNull; // root of an empty tree
//   class AggNode, BaNode, Border;  // default-constructible views; a node
//                                   // holds its pin until it is destroyed
//   Status Fetch(Ref, AggNode*) const;           // one pool fetch
//   Status Fetch(Ref, int dims, BaNode*) const;  // one pool fetch
//   void Prefetch(Ref) const;                    // PrefetchHint
//   void NoteProbeFetchesSaved(uint64_t) const;
//
// An ECDF-B-tree reader has class EcdfNode, Fetch(Ref, EcdfNode*) and
// prefix_borders() (true for Bq) instead of BaNode and Border; PointBatch
// then runs EcdfStep instead of BaStep, chosen at compile time.
//
//   AggNode: leaf(), count(), keys() (sorted keys, or lowkeys of an internal
//            node; entry 0's lowkey acts as -infinity), value(i) (leaf),
//            sum(i) and child(i) (internal).
//   BaNode:  leaf(), count(); a leaf is a run (below) of `dims`-dimensional
//            points. Internal: box(i), subtotal(i), child(i), and per joined
//            record, in ascending i and then b, ReadBorder(i, b, &border) for
//            every b < dims; a record no probe joins gets SkipBorders(i)
//            instead, until every probe has joined one. That call order
//            lets a reader walk a sequential border encoding with a cursor.
//   Border:  spilled, root (the spilled tree) — or, inline, a run of
//            (dims-1)-dimensional points; an empty border is a run of 0.
//   EcdfNode: leaf(), count(); a leaf holds point(k), value(k) in
//            lexicographic order. Internal: keys() (dim-0 lowkeys, as in
//            AggNode), child(i), sum(i), border(i) (the border tree's root).
//   run:     size(), point(k), value(k).
//
// The descent owns every decision: output zeroing, +inf clamping, probe
// order, record choice, addition order, pin windows, sub-batch order,
// prefetch and the depth bound, so the four backends cannot drift apart.
// AggStep and BaStep drop a node's pin before its sub-batches and children
// run. EcdfStep holds it through the border sub-batches and drops it before
// the children: a pinned page cannot be evicted, so the window decides
// which pages the pool keeps, and the ECDF-B-trees' recorded physical reads
// depend on it (EcdfBTree.FetchOrderAndPinWindowMatchSeed).

#ifndef BOXAGG_CORE_DOMINANCE_DESCENT_H_
#define BOXAGG_CORE_DOMINANCE_DESCENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/arena.h"
#include "core/point_entry.h"
#include "geom/box.h"
#include "geom/point.h"
#include "obs/query_obs.h"
#include "simd/simd.h"
#include "storage/status.h"

namespace boxagg {
namespace descent {

// LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)

/// Depth bound over main-branch and border levels alike: a corrupt id that
/// points back at an ancestor must not recurse forever.
inline constexpr unsigned kMaxLevels = 64;

/// One node fetch, under the depth bound, with its attribution.
template <class Reader, class... Args>
Status Visit(const Reader& reader, unsigned level, size_t m, Args&&... args) {
  if (level >= kMaxLevels) {
    return Status::Corruption("descent deeper than 64 levels (a node cycle)");
  }
  BOXAGG_RETURN_NOT_OK(reader.Fetch(std::forward<Args>(args)...));
  obs::NoteNodeVisit(level);
  if (m > 1) reader.NoteProbeFetchesSaved(m - 1);
  return Status::OK();
}

/// Adds to *out the value of every run entry that `q` dominates, in run
/// order.
template <class Run, class V>
void AddDominated(const Run& run, const Point& q, int dims, V* out) {
  const uint32_t n = run.size();
  for (uint32_t k = 0; k < n; ++k) {
    if (simd::Dominates(q, run.point(k), dims)) *out += run.value(k);
  }
}

/// The probes idx[begin, end) that take record `route` of a node.
template <class Ref>
struct Route {
  uint32_t route;
  Ref child;
  size_t begin;
  size_t end;
};

/// Groups the sorted probes idx[0..m) of an internal AggNode or EcdfNode
/// into contiguous per-child runs, in ascending route: the last record
/// whose lowkey is <= key(p), record 0's lowkey acting as -infinity.
template <class Node, class Key, class Ref>
Status RouteRuns(const Node& node, const uint32_t* idx, size_t m, Key key,
                 core::ArenaVector<Route<Ref>>* runs) {
  const uint32_t n = node.count();
  if (n == 0) return Status::Corruption("empty index node");
  const double* keys = node.keys() + 1;
  size_t j = 0;
  while (j < m) {
    const uint32_t route = simd::FirstGreater(keys, n - 1, key(idx[j]));
    size_t k = j + 1;
    while (k < m && simd::FirstGreater(keys, n - 1, key(idx[k])) == route) {
      ++k;
    }
    runs->push_back(Route<Ref>{route, node.child(route), j, k});
    j = k;
  }
  return Status::OK();
}

/// One aggregate B+-tree node: `idx[0..m)` are probe indices sorted by key
/// whose paths all pass through `ref`. Each probe adds the leaf prefix or
/// the routing prefix of subtree sums under the pin; the pin is dropped
/// before the routed runs descend, so a descent holds one pin per tree.
template <class Reader>
Status AggStep(const Reader& reader, typename Reader::Ref ref,
               const uint32_t* idx, size_t m, const double* qs,
               typename Reader::Value* outs, unsigned level) {
  core::ArenaScope scope(core::ScratchArena());
  core::ArenaVector<Route<typename Reader::Ref>> runs;
  {
    typename Reader::AggNode node;
    BOXAGG_RETURN_NOT_OK(Visit(reader, level, m, ref, &node));
    if (node.leaf()) {
      for (size_t j = 0; j < m; ++j) {
        auto* out = &outs[idx[j]];
        const uint32_t cut =
            simd::FirstGreater(node.keys(), node.count(), qs[idx[j]]);
        for (uint32_t i = 0; i < cut; ++i) *out += node.value(i);
      }
      return Status::OK();
    }
    BOXAGG_RETURN_NOT_OK(RouteRuns(
        node, idx, m, [qs](uint32_t p) { return qs[p]; }, &runs));
    for (const auto& r : runs) {
      for (size_t t = r.begin; t < r.end; ++t) {
        auto* out = &outs[idx[t]];
        for (uint32_t i = 0; i < r.route; ++i) *out += node.sum(i);
      }
    }
  }
  for (size_t gi = 0; gi < runs.size(); ++gi) {
    if (gi + 1 < runs.size()) reader.Prefetch(runs[gi + 1].child);
    const auto& r = runs[gi];
    BOXAGG_RETURN_NOT_OK(AggStep(reader, r.child, idx + r.begin,
                                 r.end - r.begin, qs, outs, level + 1));
  }
  return Status::OK();
}

/// Key entry: outs[i] = sum of values over keys <= qs[i]. Probes run in
/// ascending key order (ties by index), grouped by child at every node.
template <class Reader>
Status KeyBatch(const Reader& reader, typename Reader::Ref root,
                const double* qs, size_t count, typename Reader::Value* outs,
                unsigned level) {
  for (size_t i = 0; i < count; ++i) outs[i] = typename Reader::Value{};
  if (root == Reader::kNull || count == 0) return Status::OK();
  core::ArenaScope scope(core::ScratchArena());
  core::ArenaVector<uint32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [qs](uint32_t a, uint32_t b) {
    if (qs[a] != qs[b]) return qs[a] < qs[b];
    return a < b;
  });
  return AggStep(reader, root, order.data(), count, qs, outs, level);
}

template <class Reader>
Status PointBatch(const Reader& reader, typename Reader::Ref root,
                  const Point* queries, size_t count, int dims,
                  typename Reader::Value* outs, unsigned level);

/// One border sub-batch: adds to outs[members[t]] the dominance sum of
/// qs[members[t]], with dimension b dropped, over the (dims-1)-dimensional
/// tree at `root`, one level below the node that holds the border.
template <class Reader>
Status BorderBatch(const Reader& reader, typename Reader::Ref root,
                   const uint32_t* members, size_t gs, const Point* qs,
                   int b, int dims, typename Reader::Value* outs,
                   unsigned level) {
  core::ArenaScope scope(core::ScratchArena());
  core::ArenaVector<Point> pts(gs);
  core::ArenaVector<typename Reader::Value> parts(gs);
  for (size_t t = 0; t < gs; ++t) pts[t] = qs[members[t]].DropDim(b, dims);
  obs::NoteBorderProbes(gs);
  BOXAGG_RETURN_NOT_OK(PointBatch(reader, root, pts.data(), gs, dims - 1,
                                  parts.data(), level + 1));
  for (size_t t = 0; t < gs; ++t) outs[members[t]] += parts[t];
  return Status::OK();
}

/// One BA-tree node (dims >= 2): `idx[0..m)` are probe indices (clamped
/// queries) whose paths all pass through `ref`. Each probe joins the FIRST
/// record in page order whose box contains it, adds its subtotal and then
/// its inline borders in ascending dimension while the node is pinned;
/// after the pin drops, its spilled borders run as sub-batches in the same
/// dimension order, before any child descent.
template <class Reader>
Status BaStep(const Reader& reader, typename Reader::Ref ref,
              const uint32_t* idx, size_t m, const Point* qs, int dims,
              typename Reader::Value* outs, unsigned level) {
  using Ref = typename Reader::Ref;
  using V = typename Reader::Value;
  struct Spill {
    int b;
    Ref root;
  };
  struct Group {
    Ref child;
    core::ArenaVector<uint32_t> members;  // original probe indices
    core::ArenaVector<Spill> spills;
  };
  core::ArenaScope scope(core::ScratchArena());
  core::ArenaVector<Group> groups;
  {
    typename Reader::BaNode node;
    BOXAGG_RETURN_NOT_OK(Visit(reader, level, m, ref, dims, &node));
    if (node.leaf()) {
      for (size_t j = 0; j < m; ++j) {
        AddDominated(node, qs[idx[j]], dims, &outs[idx[j]]);
      }
      return Status::OK();
    }
    const uint32_t n = node.count();
    core::ArenaVector<uint8_t> taken(m, 0);
    size_t assigned = 0;
    for (uint32_t i = 0; i < n && assigned < m; ++i) {
      decltype(auto) box = node.box(i);  // a reference where the reader has one
      core::ArenaVector<uint32_t> members;
      for (size_t j = 0; j < m; ++j) {
        if (taken[j]) continue;
        if (simd::ContainsHalfOpen(box, qs[idx[j]], dims)) {
          taken[j] = 1;
          ++assigned;
          members.push_back(idx[j]);
        }
      }
      if (members.empty()) {
        BOXAGG_RETURN_NOT_OK(node.SkipBorders(i));
        continue;
      }
      const V sub = node.subtotal(i);
      for (uint32_t probe : members) outs[probe] += sub;
      core::ArenaVector<Spill> spills;
      for (int b = 0; b < dims; ++b) {
        typename Reader::Border border;
        BOXAGG_RETURN_NOT_OK(node.ReadBorder(i, b, &border));
        if (border.spilled) {
          spills.push_back(Spill{b, border.root});
          continue;
        }
        if (border.size() == 0) continue;
        // In-page scan: zero extra I/O — the packing payoff.
        for (uint32_t probe : members) {
          AddDominated(border, qs[probe].DropDim(b, dims), dims - 1,
                       &outs[probe]);
        }
      }
      groups.push_back(
          Group{node.child(i), std::move(members), std::move(spills)});
    }
    if (assigned != m) {
      return Status::Corruption("query point not covered by any record");
    }
  }
  // Spilled borders of this node before any descent.
  for (const Group& gr : groups) {
    for (const Spill& sp : gr.spills) {
      BOXAGG_RETURN_NOT_OK(BorderBatch(reader, sp.root, gr.members.data(),
                                       gr.members.size(), qs, sp.b, dims,
                                       outs, level));
    }
  }
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (gi + 1 < groups.size()) reader.Prefetch(groups[gi + 1].child);
    const Group& gr = groups[gi];
    BOXAGG_RETURN_NOT_OK(BaStep(reader, gr.child, gr.members.data(),
                                gr.members.size(), qs, dims, outs,
                                level + 1));
  }
  return Status::OK();
}

/// One ECDF-B-tree main-branch node (dims >= 2): `idx[0..m)` are probe
/// indices (clamped, lexicographically sorted queries) whose paths all pass
/// through `ref`. A leaf probe stops at its first entry past q[0]. At an
/// internal node, under the pin: in Bu a probe routed to record r adds
/// borders 0..r-1 in ascending order, border i as one sub-batch over the
/// suffix routed right of i; in Bq each run adds its one prefix border.
template <class Reader>
Status EcdfStep(const Reader& reader, typename Reader::Ref ref,
                const uint32_t* idx, size_t m, const Point* qs, int dims,
                typename Reader::Value* outs, unsigned level) {
  core::ArenaScope scope(core::ScratchArena());
  core::ArenaVector<Route<typename Reader::Ref>> runs;
  {
    typename Reader::EcdfNode node;
    BOXAGG_RETURN_NOT_OK(Visit(reader, level, m, ref, &node));
    if (node.leaf()) {
      const uint32_t n = node.count();
      for (size_t j = 0; j < m; ++j) {
        const Point& q = qs[idx[j]];
        auto* out = &outs[idx[j]];
        for (uint32_t k = 0; k < n; ++k) {
          const Point pt = node.point(k);
          if (pt[0] > q[0]) break;
          if (simd::Dominates(q, pt, dims)) *out += node.value(k);
        }
      }
      return Status::OK();
    }
    BOXAGG_RETURN_NOT_OK(RouteRuns(
        node, idx, m, [qs](uint32_t p) { return qs[p][0]; }, &runs));
    if (reader.prefix_borders()) {
      for (const auto& r : runs) {
        if (r.route == 0) continue;
        BOXAGG_RETURN_NOT_OK(BorderBatch(reader, node.border(r.route - 1),
                                         idx + r.begin, r.end - r.begin, qs,
                                         0, dims, outs, level));
      }
    } else {
      size_t gi = 0;  // first run routed right of record i
      for (uint32_t i = 0; i < runs.back().route; ++i) {
        while (runs[gi].route <= i) ++gi;
        const size_t s = runs[gi].begin;
        BOXAGG_RETURN_NOT_OK(BorderBatch(reader, node.border(i), idx + s,
                                         m - s, qs, 0, dims, outs, level));
      }
    }
  }
  for (size_t gi = 0; gi < runs.size(); ++gi) {
    if (gi + 1 < runs.size()) reader.Prefetch(runs[gi + 1].child);
    const auto& r = runs[gi];
    BOXAGG_RETURN_NOT_OK(EcdfStep(reader, r.child, idx + r.begin,
                                  r.end - r.begin, qs, dims, outs,
                                  level + 1));
  }
  return Status::OK();
}

/// Point entry: outs[i] = total value of the points queries[i] dominates.
/// A +infinity coordinate (an unbounded query side) is clamped to the
/// largest finite double, which dominates every storable point. At
/// dims == 1 the probes take the key path; above it they run in
/// lexicographic order (ties by index) through the main-branch step the
/// reader's type selects: EcdfStep for a reader with an EcdfNode, BaStep
/// otherwise. `level` is the depth of `root` in the composite structure,
/// for the per-level node-visit attribution.
template <class Reader>
Status PointBatch(const Reader& reader, typename Reader::Ref root,
                  const Point* queries, size_t count, int dims,
                  typename Reader::Value* outs, unsigned level) {
  for (size_t i = 0; i < count; ++i) outs[i] = typename Reader::Value{};
  if (root == Reader::kNull || count == 0) return Status::OK();
  core::ArenaScope scope(core::ScratchArena());
  core::ArenaVector<Point> qs(queries, queries + count);
  for (auto& q : qs) {
    for (int d = 0; d < dims; ++d) {
      q[d] = std::min(q[d], std::numeric_limits<double>::max());
    }
  }
  if (dims == 1) {
    core::ArenaVector<double> keys(count);
    for (size_t i = 0; i < count; ++i) keys[i] = qs[i][0];
    return KeyBatch(reader, root, keys.data(), count, outs, level);
  }
  core::ArenaVector<uint32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
  const core::ArenaVector<Point>& q_ref = qs;
  std::sort(order.begin(), order.end(),
            [dims, &q_ref](uint32_t a, uint32_t b) {
              if (LexLess(q_ref[a], q_ref[b], dims)) return true;
              if (LexLess(q_ref[b], q_ref[a], dims)) return false;
              return a < b;
            });
  if constexpr (requires { typename Reader::EcdfNode; }) {
    return EcdfStep(reader, root, order.data(), count, qs.data(), dims, outs,
                    level);
  } else {
    return BaStep(reader, root, order.data(), count, qs.data(), dims, outs,
                  level);
  }
}

// LINT:hot-path-end

}  // namespace descent
}  // namespace boxagg

#endif  // BOXAGG_CORE_DOMINANCE_DESCENT_H_
