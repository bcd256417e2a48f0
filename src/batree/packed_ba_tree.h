// PackedBaTree: the Box Aggregation Tree (Sec. 5) — the paper's main
// index — with its border-packing remedy.
//
// A d-dimensional BA-tree is a k-d-B-tree ([28]) whose index records are
// augmented with aggregate information so a dominance-sum query follows a
// single root-to-leaf path. Each index record r (box + child pointer) also
// carries:
//   - subtotal: total value of in-scope points dominated by r.box's low
//     corner in every dimension;
//   - d borders: border i holds the in-scope points whose FIRST deficient
//     dimension is i (p_i < r.lo_i, p_j >= r.lo_j for j < i), projected by
//     dropping dimension i, and answers (d-1)-dimensional dominance sums
//     over them.
//
// "In scope" means points routed through r's node that satisfy
// p_j < r.hi_j in every dimension (others can never be dominated by a query
// inside r.box). This classification partitions all in-scope points and
// reduces, at every node on the path, the outside contribution to one
// subtotal plus d (d-1)-dimensional dominance-sums — the paper's Fig. 7
// picture, generalized beyond two dimensions.
//
// Split maintenance follows Fig. 8. When a record r splits along dimension m
// at x into r1 (low) and r2 (high):
//   - r1 keeps r.subtotal and border_m; its other borders drop entries with
//     coordinate_m >= x (they fall outside r1's scope).
//   - r2 starts from r.subtotal and reclassifies every border entry against
//     its raised low corner; entries deficient in a dimension j < i migrate
//     to border_j with the dropped coordinate i re-inserted as -infinity
//     (sound: that coordinate is below every low corner the record lineage
//     will ever have, so it is dominated by every reachable query).
//   - If the split child is a LEAF, the points of the low half additionally
//     enter border_m of r2 (Fig. 8b); if it is an index node they are
//     already accounted for by the child's own records (Fig. 8d).
// Index-node splits force-split crossing child records recursively, as in
// the k-d-B-tree.
//
// Border packing. Sec. 4/5 of the paper note that keeping every border as a
// separate tree "costs one I/O to retrieve" and is wasteful when borders are
// small; the proposed remedy is to "use a single disk page to keep multiple
// borders, preferably the borders in the same index page". This tree does
// exactly that: every index node page carries, next to its fixed-size
// records, a heap of *inline borders* — sorted runs of projected
// (point, value) entries answered by an in-page scan. A dominance-sum query
// that visits the node reads its subtotal and all of its inline borders with
// ZERO additional I/Os. Only borders too large to share the node page spill
// into their own (d-1)-dimensional trees (an aggregate B+-tree at d-1 == 1,
// recursively a PackedBaTree above that). results/ablation_borders_200k.txt
// records what packing saved over one tree per border.
//
// Queries run the shared batched descent (core/dominance_descent.h); this
// file supplies only its node reader (PackedBaTree::Reader, at the end),
// which reads records, inline border blocks and leaves in place from the
// pinned page. CompactReplica runs the same descent over its compressed
// copy of this tree, which is why the two answer byte-identically.
// The reader is this page format's one decoder, and it checks the bytes it
// reads: the scans, the audit and ReplicaBuilder read nodes through it too,
// so hostile bytes yield a Corruption status, never an out-of-bounds read.
// Only Insert and BulkLoad, which rewrite pages, address bytes directly.
//
// Page layout (dims >= 2):
//   leaf (type 5): u16 type, u16 pad, u32 count; entries {Point, V}
//   internal (type 10): u16 type, u16 pad, u32 count, u32 heap_start,
//                       u32 reserved;
//     records at 16 + i * RecordSize: {Box, u64 child, V subtotal,
//                                      u64 border_ref[dims]}
//     border_ref: kEmptyRef            = empty border
//                 MSB set              = inline: low 32 bits are the byte
//                                        offset of a heap block in this page
//                 otherwise            = root PageId of a spilled tree
//     heap block: u16 entry_count, u16 reserved;
//                 entries {f64 coord[dims-1], V} in lexicographic order

#ifndef BOXAGG_BATREE_PACKED_BA_TREE_H_
#define BOXAGG_BATREE_PACKED_BA_TREE_H_

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bptree/agg_btree.h"
#include "check/checkable.h"
#include "core/dominance_descent.h"
#include "core/point_entry.h"
#include "geom/box.h"
#include "storage/buffer_pool.h"

namespace boxagg {

/// \brief BA-tree with in-node border packing (the paper's space remedy).
template <class V>
class PackedBaTree {
 public:
  using Entry = PointEntry<V>;

  /// `view` non-null binds the handle to a pinned generation snapshot (MVCC):
  /// every node read resolves through the view's version map and the handle
  /// rejects mutation. Null (default) reads/writes the live tree.
  PackedBaTree(BufferPool* pool, int dims, PageId root = kInvalidPageId,
               const PageVersionView* view = nullptr)
      : pool_(pool), dims_(dims), root_(root), view_(view) {
    assert(dims_ >= 1 && dims_ <= kMaxDims);
  }

  [[nodiscard]] PageId root() const { return root_; }
  [[nodiscard]] bool empty() const { return root_ == kInvalidPageId; }
  [[nodiscard]] int dims() const { return dims_; }

  /// Node reader of the shared descent and of every read-only walk;
  /// defined after the class.
  class Reader;

  uint32_t LeafCapacity() const {
    return (pool_->file()->page_size() - kLeafHeader) / kLeafEntrySize;
  }
  uint32_t InternalCapacity() const {
    return (pool_->file()->page_size() - kIntHeader) / RecordSize();
  }
  /// Target fan-out: leave room for roughly kReserveEntriesPerBorder inline
  /// border entries per record next to the fixed record array.
  uint32_t FanoutTarget() const {
    uint32_t per_record =
        RecordSize() + kReserveEntriesPerBorder *
                           static_cast<uint32_t>(dims_) * BorderEntrySize();
    uint32_t t = (pool_->file()->page_size() - kIntHeader) / per_record;
    return t < 4 ? 4 : t;
  }
  bool PageSizeViable() const {
    return LeafCapacity() >= 4 && InternalCapacity() >= 4 &&
           AggBTree<V>::PageSizeViable(pool_->file()->page_size());
  }

  /// Adds `v` at point `p`.
  Status Insert(const Point& p, const V& v) {
    BOXAGG_RETURN_NOT_OK(RequireWritable());
    if (!PageSizeViable()) {
      return Status::InvalidArgument("page size too small for value type");
    }
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      BOXAGG_RETURN_NOT_OK(base.Insert(p[0], v));
      root_ = base.root();
      return Status::OK();
    }
    if (root_ == kInvalidPageId) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetLeafHeader(g.page(), 1);
      WriteLeafEntry(g.page(), 0, p, v);
      g.MarkDirty();
      root_ = g.id();
      return Status::OK();
    }
    SplitResult split;
    BOXAGG_RETURN_NOT_OK(InsertRec(root_, p, v, &split));
    if (split.happened) {
      RecImage virt;
      virt.box = Box::Universe(dims_);
      virt.child = root_;
      RecImage r1, r2;
      BOXAGG_RETURN_NOT_OK(SplitRecord(virt, split.dim, split.value, root_,
                                       split.right_page, split.child_was_leaf,
                                       &r1, &r2));
      std::vector<RecImage> recs;
      recs.push_back(std::move(r1));
      recs.push_back(std::move(r2));
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      PageId pid = g.id();
      g.Release();
      BOXAGG_RETURN_NOT_OK(StoreNode(pid, &recs));
      root_ = pid;
    }
    return Status::OK();
  }

  /// Total value of all points dominated by `q`. A +infinity coordinate
  /// (an unbounded query side) is clamped to the largest finite double,
  /// which dominates every storable point, so half-space and whole-space
  /// queries work.
  Status DominanceSum(const Point& q, V* out) const {
    return DominanceSumBatch(&q, 1, out);
  }

  /// Batched dominance sums: outs[i] = DominanceSum(queries[i]), answered
  /// by the shared descent (core/dominance_descent.h) over Reader, which
  /// reads each node in place from its pinned page. The result of every
  /// probe is bit-identical whatever batch it rides in; only the traversal
  /// order across probes and the page-fetch count change.
  Status DominanceSumBatch(const Point* queries, size_t count,
                           V* outs) const {
    return descent::PointBatch(Reader(pool_, view_), root_, queries, count,
                               dims_, outs, 0);
  }

  /// Collects every (point, value) in main-branch leaves, sorted.
  Status ScanAll(std::vector<Entry>* out) const {
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      std::vector<typename AggBTree<V>::Entry> flat;
      BOXAGG_RETURN_NOT_OK(base.ScanAll(&flat));
      for (const auto& e : flat) out->push_back(Entry{Point(e.key), e.value});
      return Status::OK();
    }
    BOXAGG_RETURN_NOT_OK(ScanRec(root_, out));
    std::sort(out->begin(), out->end(),
              [this](const Entry& a, const Entry& b) {
                return LexLess(a.pt, b.pt, dims_);
              });
    return Status::OK();
  }

  /// Pages owned by the tree (main branch + spilled borders).
  Status PageCount(uint64_t* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      return base.PageCount(out);
    }
    return PageCountRec(root_, out);
  }

  /// Bulk-loads an empty tree: recursive median partitioning builds the
  /// k-d-B structure top-down; each node's record borders are classified
  /// directly from the node's full point set.
  Status BulkLoad(std::vector<Entry> entries) {
    BOXAGG_RETURN_NOT_OK(RequireWritable());
    if (root_ != kInvalidPageId) {
      return Status::InvalidArgument("BulkLoad into non-empty tree");
    }
    if (!PageSizeViable()) {
      return Status::InvalidArgument("page size too small for value type");
    }
    SortAndCoalesce(&entries, dims_);
    if (entries.empty()) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_);
      std::vector<typename AggBTree<V>::Entry> flat;
      flat.reserve(entries.size());
      for (const auto& e : entries) flat.push_back({e.pt[0], e.value});
      BOXAGG_RETURN_NOT_OK(base.BulkLoad(flat));
      root_ = base.root();
      return Status::OK();
    }
    return BuildRec(&entries, 0, entries.size(), Box::Universe(dims_),
                    &root_);
  }

  /// Deep structural audit:
  ///  (a) every leaf point lies inside the half-open box of every record on
  ///      its root-to-leaf path, and in exactly one record per node;
  ///  (b) packed-page layout — beyond what Reader rejects on every read
  ///      (record array overlapping the heap, inline blocks outside it),
  ///      no empty internal node, inline runs within the entry cap,
  ///      strictly sorted and pairwise disjoint — and spilled border trees
  ///      audited recursively down to the AggBTree base case;
  ///  (c) when ctx->check_oracle (the default), a self-oracle: DominanceSum
  ///      at a sample of probe points equals a linear scan over the tree's
  ///      own leaves.
  /// Per-record aggregates cannot be re-derived by classifying the node's
  /// point set: after an index-record split the high half's borders
  /// legitimately exclude sibling points that predate the split (Fig. 8d) —
  /// those are counted deeper, which only a query observes. `ctx` threads
  /// the page ownership set across structures (see src/check/checkable.h).
  Status CheckConsistency(CheckContext* ctx = nullptr) const {
    CheckContext local;
    if (ctx == nullptr) ctx = &local;
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      return base.CheckConsistency(ctx);
    }
    std::vector<Entry> pts;
    BOXAGG_RETURN_NOT_OK(CheckRec(root_, ctx, &pts));
    if (ctx->check_oracle) {
      return SelfOracle(*this, pts, dims_, "packed-ba-tree");
    }
    return Status::OK();
  }

  /// Frees every page.
  Status Destroy() {
    BOXAGG_RETURN_NOT_OK(RequireWritable());
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      BOXAGG_RETURN_NOT_OK(base.Destroy());
    } else {
      BOXAGG_RETURN_NOT_OK(DestroyRec(root_));
    }
    root_ = kInvalidPageId;
    return Status::OK();
  }

 private:
  static constexpr uint16_t kLeaf = 5;
  static constexpr uint16_t kInternal = 10;   // packed internal node
  static constexpr uint32_t kLeafHeader = 8;
  static constexpr uint32_t kIntHeader = 16;
  static constexpr uint32_t kLeafEntrySize = sizeof(Point) + sizeof(V);
  static constexpr uint32_t kBlockHeader = 4;
  static constexpr uint64_t kEmptyRef = ~uint64_t{0};
  static constexpr uint64_t kInlineTag = uint64_t{1} << 63;
  /// Inline borders beyond this many entries spill to their own tree even if
  /// they would fit (keeps in-page scans short).
  static constexpr uint32_t kMaxInlineEntries = 192;
  /// Fan-out sizing reserve (entries per border per record).
  static constexpr uint32_t kReserveEntriesPerBorder = 6;

  struct BorderImage {
    PageId tree = kInvalidPageId;           // spilled tree root, or
    std::vector<Entry> inline_entries;      // packed entries (sorted)
    bool IsTree() const { return tree != kInvalidPageId; }
    bool Empty() const {
      return tree == kInvalidPageId && inline_entries.empty();
    }
  };

  struct RecImage {
    Box box;
    PageId child = kInvalidPageId;
    V subtotal{};
    std::array<BorderImage, kMaxDims> border;
  };

  struct SplitResult {
    bool happened = false;
    int dim = 0;
    double value = 0.0;
    PageId right_page = kInvalidPageId;
    bool child_was_leaf = false;
  };

  uint32_t RecordSize() const {
    return sizeof(Box) + 8 + sizeof(V) + 8 * static_cast<uint32_t>(dims_);
  }
  uint32_t BorderEntrySize() const {
    return 8 * static_cast<uint32_t>(dims_ - 1) + sizeof(V);
  }

  // ---- MVCC plumbing ------------------------------------------------------

  /// Mutations are only legal on a live (view-less) handle; a snapshot-bound
  /// tree is immutable by construction.
  Status RequireWritable() const {
    if (view_ != nullptr) {
      return Status::InvalidArgument(
          "mutation through a snapshot-bound tree handle");
    }
    return Status::OK();
  }
  /// Routes a node read through the pinned snapshot when bound to one.
  Status FetchNode(PageId pid, PageGuard* g) const {
    return typename AggBTree<V>::Reader(pool_, view_).FetchPage(pid, g);
  }

  // ---- raw page accessors -------------------------------------------------

  static uint16_t PageType(const Page* p) { return p->ReadAt<uint16_t>(0); }

  static void SetLeafHeader(Page* p, uint32_t count) {
    p->WriteAt<uint16_t>(0, kLeaf);
    p->WriteAt<uint16_t>(2, 0);
    p->WriteAt<uint32_t>(4, count);
  }
  static uint32_t LeafCount(const Page* p) { return p->ReadAt<uint32_t>(4); }
  static void SetLeafCount(Page* p, uint32_t c) { p->WriteAt<uint32_t>(4, c); }
  static uint32_t LeafOff(uint32_t i) {
    return kLeafHeader + i * kLeafEntrySize;
  }
  static Point LeafPoint(const Page* p, uint32_t i) {
    return p->ReadAt<Point>(LeafOff(i));
  }
  static void ReadLeafValue(const Page* p, uint32_t i, V* v) {
    p->ReadBytes(LeafOff(i) + sizeof(Point), v, sizeof(V));
  }
  static void WriteLeafEntry(Page* p, uint32_t i, const Point& pt,
                             const V& v) {
    p->WriteAt<Point>(LeafOff(i), pt);
    p->WriteBytes(LeafOff(i) + sizeof(Point), &v, sizeof(V));
  }

  uint32_t RecOff(uint32_t i) const { return kIntHeader + i * RecordSize(); }
  // ---- node image load/store ---------------------------------------------

  Status LoadNode(PageId pid, std::vector<RecImage>* recs) const {
    typename Reader::BaNode node;
    BOXAGG_RETURN_NOT_OK(Reader(pool_, view_).Fetch(pid, dims_, &node));
    if (node.leaf()) {
      return Status::Corruption("expected packed internal node");
    }
    return ReadRecords(node, recs);
  }

  /// The records of an internal Reader::BaNode as images, inline borders
  /// copied out of the page.
  template <class BaNode>
  Status ReadRecords(const BaNode& node, std::vector<RecImage>* recs) const {
    recs->clear();
    recs->resize(node.count());
    for (uint32_t i = 0; i < node.count(); ++i) {
      RecImage& r = (*recs)[i];
      r.box = node.box(i);
      r.child = node.child(i);
      r.subtotal = node.subtotal(i);
      for (int b = 0; b < dims_; ++b) {
        typename Reader::Border border;
        BOXAGG_RETURN_NOT_OK(node.ReadBorder(i, b, &border));
        BorderImage& bi = r.border[static_cast<size_t>(b)];
        if (border.spilled) {
          bi.tree = border.root;
          continue;
        }
        bi.inline_entries.resize(border.size());
        for (uint32_t k = 0; k < border.size(); ++k) {
          bi.inline_entries[k] = Entry{border.point(k), border.value(k)};
        }
      }
    }
    return Status::OK();
  }

  /// Serializes the node, spilling oversized inline borders to trees (the
  /// images are updated accordingly). Everything is rewritten compactly.
  Status StoreNode(PageId pid, std::vector<RecImage>* recs) {
    const uint32_t page_size = pool_->file()->page_size();
    const uint32_t esz = BorderEntrySize();
    auto inline_bytes = [&](const BorderImage& b) -> uint32_t {
      return b.IsTree() || b.inline_entries.empty()
                 ? 0
                 : kBlockHeader +
                       static_cast<uint32_t>(b.inline_entries.size()) * esz;
    };
    // Spill until the node fits: first anything over the entry cap, then the
    // largest inline borders.
    for (auto& r : *recs) {
      for (int b = 0; b < dims_; ++b) {
        BorderImage& bi = r.border[static_cast<size_t>(b)];
        if (!bi.IsTree() && bi.inline_entries.size() > kMaxInlineEntries) {
          BOXAGG_RETURN_NOT_OK(SpillBorder(&bi));
        }
      }
    }
    for (;;) {
      uint64_t total = kIntHeader +
                       static_cast<uint64_t>(recs->size()) * RecordSize();
      BorderImage* largest = nullptr;
      for (auto& r : *recs) {
        for (int b = 0; b < dims_; ++b) {
          BorderImage& bi = r.border[static_cast<size_t>(b)];
          total += inline_bytes(bi);
          if (!bi.IsTree() && !bi.inline_entries.empty() &&
              (largest == nullptr || bi.inline_entries.size() >
                                         largest->inline_entries.size())) {
            largest = &bi;
          }
        }
      }
      if (total <= page_size) break;
      if (largest == nullptr) {
        return Status::Corruption("internal node records exceed page size");
      }
      BOXAGG_RETURN_NOT_OK(SpillBorder(largest));
    }

    PageGuard g;
    BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
    Page* p = g.page();
    p->Zero();
    p->WriteAt<uint16_t>(0, kInternal);
    p->WriteAt<uint32_t>(4, static_cast<uint32_t>(recs->size()));
    uint32_t heap = page_size;
    for (uint32_t i = 0; i < recs->size(); ++i) {
      const RecImage& r = (*recs)[i];
      uint32_t off = RecOff(i);
      p->WriteAt<Box>(off, r.box);
      p->WriteAt<uint64_t>(off + sizeof(Box), r.child);
      p->WriteBytes(off + sizeof(Box) + 8, &r.subtotal, sizeof(V));
      for (int b = 0; b < dims_; ++b) {
        const BorderImage& bi = r.border[static_cast<size_t>(b)];
        uint64_t ref;
        if (bi.IsTree()) {
          ref = bi.tree;
        } else if (bi.inline_entries.empty()) {
          ref = kEmptyRef;
        } else {
          uint32_t bytes =
              kBlockHeader +
              static_cast<uint32_t>(bi.inline_entries.size()) * esz;
          heap -= bytes;
          p->WriteAt<uint16_t>(heap,
                               static_cast<uint16_t>(bi.inline_entries.size()));
          p->WriteAt<uint16_t>(heap + 2, 0);
          for (uint32_t k = 0; k < bi.inline_entries.size(); ++k) {
            uint32_t eo = heap + kBlockHeader + k * esz;
            for (int d = 0; d < dims_ - 1; ++d) {
              p->WriteAt<double>(eo + 8 * static_cast<uint32_t>(d),
                                 bi.inline_entries[k].pt[d]);
            }
            p->WriteBytes(eo + 8 * static_cast<uint32_t>(dims_ - 1),
                          &bi.inline_entries[k].value, sizeof(V));
          }
          ref = kInlineTag | heap;
        }
        p->WriteAt<uint64_t>(
            off + sizeof(Box) + 8 + sizeof(V) + 8 * static_cast<uint32_t>(b),
            ref);
      }
    }
    p->WriteAt<uint32_t>(8, heap);
    g.MarkDirty();
    return Status::OK();
  }

  /// Converts an inline border to a spilled (d-1)-dim tree.
  Status SpillBorder(BorderImage* b) {
    PackedBaTree sub(pool_, dims_ - 1);
    BOXAGG_RETURN_NOT_OK(sub.BulkLoad(std::move(b->inline_entries)));
    b->inline_entries.clear();
    b->tree = sub.root();
    return Status::OK();
  }

  // ---- border image operations --------------------------------------------

  Status BorderImageInsert(BorderImage* b, const Point& projected,
                           const V& v) {
    if (b->IsTree()) {
      PackedBaTree sub(pool_, dims_ - 1, b->tree);
      BOXAGG_RETURN_NOT_OK(sub.Insert(projected, v));
      b->tree = sub.root();
      return Status::OK();
    }
    auto& es = b->inline_entries;
    auto it = std::lower_bound(es.begin(), es.end(), projected,
                               [this](const Entry& e, const Point& p) {
                                 return LexLess(e.pt, p, dims_ - 1);
                               });
    if (it != es.end() && LexEqual(it->pt, projected, dims_ - 1)) {
      it->value += v;
    } else {
      es.insert(it, Entry{projected, v});
    }
    return Status::OK();
  }

  Status BorderImageScan(const BorderImage& b, std::vector<Entry>* out) const {
    if (b.IsTree()) {
      PackedBaTree sub(pool_, dims_ - 1, b.tree);
      return sub.ScanAll(out);
    }
    out->insert(out->end(), b.inline_entries.begin(), b.inline_entries.end());
    return Status::OK();
  }

  Status BorderImageDestroy(BorderImage* b) {
    if (b->IsTree()) {
      PackedBaTree sub(pool_, dims_ - 1, b->tree);
      BOXAGG_RETURN_NOT_OK(sub.Destroy());
      b->tree = kInvalidPageId;
    }
    b->inline_entries.clear();
    return Status::OK();
  }

  // ---- classification ------------------------------------------------------

  static constexpr int kSkip = -1;
  static constexpr int kInside = -2;
  int Classify(const Box& rbox, const Point& p) const {
    int first = kInside;
    int deficits = 0;
    for (int j = 0; j < dims_; ++j) {
      if (p[j] >= rbox.hi[j]) return kSkip;
      if (p[j] < rbox.lo[j]) {
        ++deficits;
        if (first == kInside) first = j;
      }
    }
    if (deficits == 0) return kInside;
    if (deficits == dims_) return dims_;
    return first;
  }

  // ---- split machinery -----------------------------------------------------

  /// Fig. 8 record split; border data flows through images (in-page or
  /// spilled transparently).
  Status SplitRecord(const RecImage& r, int m, double x, PageId left_child,
                     PageId right_child, bool child_is_leaf, RecImage* r1,
                     RecImage* r2) {
    r1->box = r.box;
    r1->box.hi[m] = x;
    r1->child = left_child;
    r1->subtotal = r.subtotal;
    r2->box = r.box;
    r2->box.lo[m] = x;
    r2->child = right_child;
    r2->subtotal = r.subtotal;

    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < dims_; ++i) {
      const BorderImage& src = r.border[static_cast<size_t>(i)];
      if (src.Empty()) continue;
      std::vector<Entry> entries;
      BOXAGG_RETURN_NOT_OK(BorderImageScan(src, &entries));
      for (const Entry& e : entries) {
        Point full = e.pt.InsertDim(i, kNegInf, dims_);
        int c1 = Classify(r1->box, full);
        if (c1 == i) {
          r1->border[static_cast<size_t>(i)].inline_entries.push_back(e);
        }
        int c2 = Classify(r2->box, full);
        if (c2 == dims_) {
          r2->subtotal += e.value;
        } else if (c2 == i) {
          r2->border[static_cast<size_t>(i)].inline_entries.push_back(e);
        } else {
          r2->border[static_cast<size_t>(c2)].inline_entries.push_back(
              Entry{full.DropDim(c2, dims_), e.value});
        }
      }
      BorderImage victim = src;
      BOXAGG_RETURN_NOT_OK(BorderImageDestroy(&victim));
    }
    if (child_is_leaf) {
      std::vector<Entry> pts;
      BOXAGG_RETURN_NOT_OK(ScanRec(left_child, &pts));
      for (const Entry& e : pts) {
        r2->border[static_cast<size_t>(m)].inline_entries.push_back(
            Entry{e.pt.DropDim(m, dims_), e.value});
      }
    }
    // Keep inline runs sorted/coalesced; StoreNode spills oversized ones.
    for (int i = 0; i < dims_; ++i) {
      SortAndCoalesce(&r1->border[static_cast<size_t>(i)].inline_entries,
                      dims_ - 1);
      SortAndCoalesce(&r2->border[static_cast<size_t>(i)].inline_entries,
                      dims_ - 1);
    }
    return Status::OK();
  }

  /// Splits the subtree at `pid` by plane (m, x); forced splits recurse.
  Status SplitSubtree(PageId pid, int m, double x, PageId* right,
                      bool* was_leaf) {
    uint16_t type;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      type = PageType(g.page());
    }
    if (type == kLeaf) {
      *was_leaf = true;
      std::vector<Entry> low, high;
      {
        PageGuard g;
        BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
        uint32_t n = LeafCount(g.page());
        for (uint32_t i = 0; i < n; ++i) {
          Entry e;
          e.pt = LeafPoint(g.page(), i);
          ReadLeafValue(g.page(), i, &e.value);
          (e.pt[m] < x ? low : high).push_back(e);
        }
        SetLeafHeader(g.page(), static_cast<uint32_t>(low.size()));
        for (uint32_t i = 0; i < low.size(); ++i) {
          WriteLeafEntry(g.page(), i, low[i].pt, low[i].value);
        }
        g.MarkDirty();
      }
      PageGuard rg;
      BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
      SetLeafHeader(rg.page(), static_cast<uint32_t>(high.size()));
      for (uint32_t i = 0; i < high.size(); ++i) {
        WriteLeafEntry(rg.page(), i, high[i].pt, high[i].value);
      }
      rg.MarkDirty();
      *right = rg.id();
      return Status::OK();
    }

    *was_leaf = false;
    std::vector<RecImage> recs;
    BOXAGG_RETURN_NOT_OK(LoadNode(pid, &recs));
    std::vector<RecImage> low, high;
    BOXAGG_RETURN_NOT_OK(PartitionRecords(&recs, m, x, &low, &high));
    BOXAGG_RETURN_NOT_OK(StoreNode(pid, &low));
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
    PageId rid = rg.id();
    rg.Release();
    BOXAGG_RETURN_NOT_OK(StoreNode(rid, &high));
    *right = rid;
    return Status::OK();
  }

  Status PartitionRecords(std::vector<RecImage>* recs, int m, double x,
                          std::vector<RecImage>* low,
                          std::vector<RecImage>* high) {
    for (RecImage& r : *recs) {
      if (r.box.hi[m] <= x) {
        low->push_back(std::move(r));
      } else if (r.box.lo[m] >= x) {
        high->push_back(std::move(r));
      } else {
        PageId right_child;
        bool leaf_child;
        BOXAGG_RETURN_NOT_OK(
            SplitSubtree(r.child, m, x, &right_child, &leaf_child));
        RecImage r1, r2;
        BOXAGG_RETURN_NOT_OK(SplitRecord(r, m, x, r.child, right_child,
                                         leaf_child, &r1, &r2));
        low->push_back(std::move(r1));
        high->push_back(std::move(r2));
      }
    }
    return Status::OK();
  }

  Status ChooseLeafSplit(const std::vector<Entry>& entries, int* m,
                         double* x) const {
    int best_dim = -1;
    double best_spread = -1;
    for (int d = 0; d < dims_; ++d) {
      double lo = entries[0].pt[d], hi = entries[0].pt[d];
      for (const Entry& e : entries) {
        lo = std::min(lo, e.pt[d]);
        hi = std::max(hi, e.pt[d]);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        best_dim = d;
      }
    }
    for (int attempt = 0; attempt < dims_; ++attempt) {
      int d = (best_dim + attempt) % dims_;
      std::vector<double> coords;
      coords.reserve(entries.size());
      for (const Entry& e : entries) coords.push_back(e.pt[d]);
      std::sort(coords.begin(), coords.end());
      double cand = coords[coords.size() / 2];
      if (cand == coords.front()) {
        auto it = std::upper_bound(coords.begin(), coords.end(), cand);
        if (it == coords.end()) continue;
        cand = *it;
      }
      *m = d;
      *x = cand;
      return Status::OK();
    }
    return Status::Corruption("leaf entries degenerate in all dimensions");
  }

  Status ChooseIndexSplit(const std::vector<RecImage>& recs, int* m,
                          double* x) const {
    int best_dim = -1;
    double best_value = 0;
    size_t best_distinct = 0;
    for (int d = 0; d < dims_; ++d) {
      std::vector<double> los;
      double min_lo = recs[0].box.lo[d];
      for (const RecImage& r : recs) min_lo = std::min(min_lo, r.box.lo[d]);
      for (const RecImage& r : recs) {
        if (r.box.lo[d] > min_lo) los.push_back(r.box.lo[d]);
      }
      if (los.empty()) continue;
      std::sort(los.begin(), los.end());
      los.erase(std::unique(los.begin(), los.end()), los.end());
      if (los.size() > best_distinct) {
        best_distinct = los.size();
        best_dim = d;
        best_value = los[los.size() / 2];
      }
    }
    if (best_dim < 0) {
      return Status::Corruption("index records degenerate in all dimensions");
    }
    *m = best_dim;
    *x = best_value;
    return Status::OK();
  }

  // ---- insertion -----------------------------------------------------------

  Status InsertRec(PageId pid, const Point& p, const V& v,
                   SplitResult* split) {
    split->happened = false;
    uint16_t type;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      type = PageType(g.page());
    }
    if (type == kLeaf) {
      return InsertLeaf(pid, p, v, split);
    }

    std::vector<RecImage> recs;
    BOXAGG_RETURN_NOT_OK(LoadNode(pid, &recs));
    int target = -1;
    for (size_t i = 0; i < recs.size(); ++i) {
      RecImage& r = recs[i];
      int c = Classify(r.box, p);
      if (c == kSkip) continue;
      if (c == kInside) {
        target = static_cast<int>(i);
        continue;
      }
      if (c == dims_) {
        r.subtotal += v;
      } else {
        BOXAGG_RETURN_NOT_OK(BorderImageInsert(
            &r.border[static_cast<size_t>(c)], p.DropDim(c, dims_), v));
      }
    }
    if (target < 0) {
      return Status::Corruption("insert point not covered by any record");
    }
    RecImage& tr = recs[static_cast<size_t>(target)];
    SplitResult child_split;
    BOXAGG_RETURN_NOT_OK(InsertRec(tr.child, p, v, &child_split));
    if (!child_split.happened) {
      return StoreNode(pid, &recs);
    }
    RecImage r1, r2;
    BOXAGG_RETURN_NOT_OK(SplitRecord(tr, child_split.dim, child_split.value,
                                     tr.child, child_split.right_page,
                                     child_split.child_was_leaf, &r1, &r2));
    recs[static_cast<size_t>(target)] = std::move(r1);
    recs.insert(recs.begin() + target + 1, std::move(r2));
    if (recs.size() <= FanoutTarget()) {
      return StoreNode(pid, &recs);
    }
    // Node overflow: split this node too.
    int m;
    double x;
    BOXAGG_RETURN_NOT_OK(ChooseIndexSplit(recs, &m, &x));
    std::vector<RecImage> low, high;
    BOXAGG_RETURN_NOT_OK(PartitionRecords(&recs, m, x, &low, &high));
    BOXAGG_RETURN_NOT_OK(StoreNode(pid, &low));
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
    PageId rid = rg.id();
    rg.Release();
    BOXAGG_RETURN_NOT_OK(StoreNode(rid, &high));
    split->happened = true;
    split->dim = m;
    split->value = x;
    split->right_page = rid;
    split->child_was_leaf = false;
    return Status::OK();
  }

  Status InsertLeaf(PageId pid, const Point& p, const V& v,
                    SplitResult* split) {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
    Page* page = g.page();
    uint32_t n = LeafCount(page);
    for (uint32_t i = 0; i < n; ++i) {
      if (LexEqual(LeafPoint(page, i), p, dims_)) {
        V cur;
        ReadLeafValue(page, i, &cur);
        cur += v;
        WriteLeafEntry(page, i, p, cur);
        g.MarkDirty();
        return Status::OK();
      }
    }
    if (n < LeafCapacity()) {
      WriteLeafEntry(page, n, p, v);
      SetLeafCount(page, n + 1);
      g.MarkDirty();
      return Status::OK();
    }
    std::vector<Entry> all(n);
    for (uint32_t i = 0; i < n; ++i) {
      all[i].pt = LeafPoint(page, i);
      ReadLeafValue(page, i, &all[i].value);
    }
    all.push_back(Entry{p, v});
    int m;
    double x;
    BOXAGG_RETURN_NOT_OK(ChooseLeafSplit(all, &m, &x));
    std::vector<Entry> low, high;
    for (const Entry& e : all) (e.pt[m] < x ? low : high).push_back(e);
    SetLeafHeader(page, static_cast<uint32_t>(low.size()));
    for (uint32_t i = 0; i < low.size(); ++i) {
      WriteLeafEntry(page, i, low[i].pt, low[i].value);
    }
    g.MarkDirty();
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
    SetLeafHeader(rg.page(), static_cast<uint32_t>(high.size()));
    for (uint32_t i = 0; i < high.size(); ++i) {
      WriteLeafEntry(rg.page(), i, high[i].pt, high[i].value);
    }
    rg.MarkDirty();
    split->happened = true;
    split->dim = m;
    split->value = x;
    split->right_page = rg.id();
    split->child_was_leaf = true;
    return Status::OK();
  }

  // ---- bulk loading --------------------------------------------------------

  Status BuildRec(std::vector<Entry>* entries, size_t lo, size_t hi,
                  const Box& box, PageId* out) {
    const size_t n = hi - lo;
    const size_t leaf_target = std::max<size_t>(4, LeafCapacity() * 9 / 10);
    if (n <= leaf_target) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetLeafHeader(g.page(), static_cast<uint32_t>(n));
      for (size_t i = 0; i < n; ++i) {
        WriteLeafEntry(g.page(), static_cast<uint32_t>(i),
                       (*entries)[lo + i].pt, (*entries)[lo + i].value);
      }
      g.MarkDirty();
      *out = g.id();
      return Status::OK();
    }
    const size_t int_target = std::max<size_t>(2, FanoutTarget() * 9 / 10);
    size_t fanout = (n + leaf_target - 1) / leaf_target;
    fanout = std::min(fanout, int_target);
    fanout = std::max<size_t>(fanout, 2);

    struct Region {
      Box box;
      size_t lo, hi;
    };
    std::vector<Region> regions{{box, lo, hi}};
    while (regions.size() < fanout) {
      size_t biggest = 0;
      for (size_t i = 1; i < regions.size(); ++i) {
        if (regions[i].hi - regions[i].lo >
            regions[biggest].hi - regions[biggest].lo) {
          biggest = i;
        }
      }
      Region reg = regions[biggest];
      if (reg.hi - reg.lo < 2) break;
      int m = -1;
      double x = 0;
      size_t mid = 0;
      if (!ChooseRegionSplit(entries, reg.lo, reg.hi, &m, &x, &mid)) break;
      Region lo_r = reg, hi_r = reg;
      lo_r.hi = mid;
      lo_r.box.hi[m] = x;
      hi_r.lo = mid;
      hi_r.box.lo[m] = x;
      regions[biggest] = lo_r;
      regions.push_back(hi_r);
    }
    if (regions.size() < 2) {
      return Status::Corruption("bulk load failed to partition region");
    }

    std::vector<RecImage> recs(regions.size());
    for (size_t i = 0; i < regions.size(); ++i) {
      recs[i].box = regions[i].box;
      BOXAGG_RETURN_NOT_OK(BuildRec(entries, regions[i].lo, regions[i].hi,
                                    regions[i].box, &recs[i].child));
    }
    for (size_t i = 0; i < regions.size(); ++i) {
      for (size_t k = lo; k < hi; ++k) {
        const Entry& e = (*entries)[k];
        int c = Classify(recs[i].box, e.pt);
        if (c == kSkip || c == kInside) continue;
        if (c == dims_) {
          recs[i].subtotal += e.value;
        } else {
          recs[i].border[static_cast<size_t>(c)].inline_entries.push_back(
              Entry{e.pt.DropDim(c, dims_), e.value});
        }
      }
      for (int b = 0; b < dims_; ++b) {
        SortAndCoalesce(
            &recs[i].border[static_cast<size_t>(b)].inline_entries,
            dims_ - 1);
      }
    }
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->New(&g));
    PageId pid = g.id();
    g.Release();
    BOXAGG_RETURN_NOT_OK(StoreNode(pid, &recs));
    *out = pid;
    return Status::OK();
  }

  bool ChooseRegionSplit(std::vector<Entry>* entries, size_t lo, size_t hi,
                         int* m, double* x, size_t* mid) const {
    std::array<double, kMaxDims> spread{};
    for (int d = 0; d < dims_; ++d) {
      double mn = (*entries)[lo].pt[d], mx = (*entries)[lo].pt[d];
      for (size_t i = lo; i < hi; ++i) {
        mn = std::min(mn, (*entries)[i].pt[d]);
        mx = std::max(mx, (*entries)[i].pt[d]);
      }
      spread[static_cast<size_t>(d)] = mx - mn;
    }
    std::vector<int> order(static_cast<size_t>(dims_));
    for (int d = 0; d < dims_; ++d) order[static_cast<size_t>(d)] = d;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return spread[static_cast<size_t>(a)] > spread[static_cast<size_t>(b)];
    });
    for (int attempt = 0; attempt < dims_; ++attempt) {
      int d = order[static_cast<size_t>(attempt)];
      if (spread[static_cast<size_t>(d)] <= 0) continue;
      std::sort(entries->begin() + static_cast<ptrdiff_t>(lo),
                entries->begin() + static_cast<ptrdiff_t>(hi),
                [d](const Entry& a, const Entry& b) {
                  return a.pt[d] < b.pt[d];
                });
      size_t half = lo + (hi - lo) / 2;
      double cand = (*entries)[half].pt[d];
      if (cand == (*entries)[lo].pt[d]) {
        size_t i = half;
        while (i < hi && (*entries)[i].pt[d] == cand) ++i;
        if (i == hi) continue;
        cand = (*entries)[i].pt[d];
        half = i;
      } else {
        while ((*entries)[half - 1].pt[d] == cand) --half;
      }
      *m = d;
      *x = cand;
      *mid = half;
      return true;
    }
    return false;
  }

  // ---- traversal -----------------------------------------------------------

  Status ScanRec(PageId pid, std::vector<Entry>* out) const {
    std::vector<PageId> children;
    {
      typename Reader::BaNode node;
      BOXAGG_RETURN_NOT_OK(Reader(pool_, view_).Fetch(pid, dims_, &node));
      for (uint32_t i = 0; i < node.count(); ++i) {
        if (node.leaf()) {
          out->push_back(Entry{node.point(i), node.value(i)});
        } else {
          children.push_back(node.child(i));
        }
      }
    }
    for (PageId c : children) {
      BOXAGG_RETURN_NOT_OK(ScanRec(c, out));
    }
    return Status::OK();
  }

  /// The children of node `pid`, each followed by its record's spilled
  /// border roots (second = true); none for a leaf.
  Status NodeKids(PageId pid,
                  std::vector<std::pair<PageId, bool>>* kids) const {
    typename Reader::BaNode node;
    BOXAGG_RETURN_NOT_OK(Reader(pool_, view_).Fetch(pid, dims_, &node));
    for (uint32_t i = 0; !node.leaf() && i < node.count(); ++i) {
      kids->push_back({node.child(i), false});
      for (int b = 0; b < dims_; ++b) {
        typename Reader::Border border;
        BOXAGG_RETURN_NOT_OK(node.ReadBorder(i, b, &border));
        if (border.spilled) kids->push_back({border.root, true});
      }
    }
    return Status::OK();
  }

  Status PageCountRec(PageId pid, uint64_t* out) const {
    std::vector<std::pair<PageId, bool>> kids;
    BOXAGG_RETURN_NOT_OK(NodeKids(pid, &kids));
    *out += 1;
    for (auto [kid, is_border] : kids) {
      if (is_border) {
        PackedBaTree sub(pool_, dims_ - 1, kid, view_);
        uint64_t cnt = 0;
        BOXAGG_RETURN_NOT_OK(sub.PageCount(&cnt));
        *out += cnt;
      } else {
        BOXAGG_RETURN_NOT_OK(PageCountRec(kid, out));
      }
    }
    return Status::OK();
  }

  // ---- verification --------------------------------------------------------

  /// The node's layout checks, then the containment and tiling walk with
  /// border recursion. Collects the leaf points.
  Status CheckRec(PageId pid, CheckContext* ctx,
                  std::vector<Entry>* out) const {
    BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "packed-ba-tree"));
    std::vector<RecImage> recs;
    {
      typename Reader::BaNode node;
      BOXAGG_RETURN_NOT_OK(
          NodeStatusAt(pid, "packed-ba-tree",
                       Reader(pool_, view_).Fetch(pid, dims_, &node)));
      if (node.leaf()) {
        for (uint32_t k = 0; k < node.size(); ++k) {
          out->push_back(Entry{node.point(k), node.value(k)});
        }
        return Status::OK();
      }
      BOXAGG_RETURN_NOT_OK(CheckPackedLayout(pid, node));
      BOXAGG_RETURN_NOT_OK(ReadRecords(node, &recs));
    }
    const size_t begin = out->size();
    for (const RecImage& r : recs) {
      const size_t lo = out->size();
      BOXAGG_RETURN_NOT_OK(CheckRec(r.child, ctx, out));
      for (size_t k = lo; k < out->size(); ++k) {
        if (!r.box.ContainsPointHalfOpen((*out)[k].pt, dims_)) {
          return CorruptionAt(
              pid, "packed-ba-tree: subtree point escapes its record box");
        }
      }
      for (int b = 0; b < dims_; ++b) {
        const BorderImage& bi = r.border[static_cast<size_t>(b)];
        if (bi.IsTree()) {
          BOXAGG_RETURN_NOT_OK(CheckBorderTree(bi.tree, ctx));
        }
      }
    }
    for (size_t k = begin; k < out->size(); ++k) {
      int owners = 0;
      for (const RecImage& r : recs) {
        if (r.box.ContainsPointHalfOpen((*out)[k].pt, dims_)) ++owners;
      }
      if (owners != 1) {
        return CorruptionAt(
            pid, "packed-ba-tree: record boxes do not tile the node scope");
      }
    }
    return Status::OK();
  }

  /// Layout invariants of an internal Reader::BaNode beyond the bounds the
  /// reader checks on every read: at least one record, and inline runs
  /// within the entry cap, strictly sorted and pairwise disjoint.
  template <class BaNode>
  Status CheckPackedLayout(PageId pid, const BaNode& node) const {
    if (node.count() == 0) {
      return CorruptionAt(pid, "packed-ba-tree: empty internal node");
    }
    std::vector<std::pair<uint32_t, uint32_t>> blocks;  // (off, end)
    for (uint32_t i = 0; i < node.count(); ++i) {
      for (int b = 0; b < dims_; ++b) {
        typename Reader::Border border;
        BOXAGG_RETURN_NOT_OK(NodeStatusAt(pid, "packed-ba-tree",
                                          node.ReadBorder(i, b, &border)));
        const uint32_t cnt = border.size();
        if (border.spilled || cnt == 0) continue;
        if (cnt > kMaxInlineEntries) {
          return CorruptionAt(
              pid, "packed-ba-tree: inline border entry count " +
                       std::to_string(cnt) + " above " +
                       std::to_string(kMaxInlineEntries));
        }
        blocks.push_back({border.offset(), border.offset() + kBlockHeader +
                                               cnt * BorderEntrySize()});
        for (uint32_t k = 1; k < cnt; ++k) {
          if (!LexLess(border.point(k - 1), border.point(k), dims_ - 1)) {
            return CorruptionAt(
                pid, "packed-ba-tree: inline border entries not strictly "
                     "sorted");
          }
        }
      }
    }
    std::sort(blocks.begin(), blocks.end());
    for (size_t i = 1; i < blocks.size(); ++i) {
      if (blocks[i].first < blocks[i - 1].second) {
        return CorruptionAt(
            pid, "packed-ba-tree: inline border blocks overlap at " +
                     std::to_string(blocks[i].first));
      }
    }
    return Status::OK();
  }

  /// Structural audit of a spilled border tree; no oracle here — the
  /// top-level oracle's queries exercise border sums end to end.
  Status CheckBorderTree(PageId broot, CheckContext* ctx) const {
    if (broot == kInvalidPageId) return Status::OK();
    if (dims_ - 1 == 1) {
      AggBTree<V> base(pool_, broot, view_);
      return base.CheckConsistency(ctx);
    }
    PackedBaTree sub(pool_, dims_ - 1, broot, view_);
    std::vector<Entry> scratch;
    return sub.CheckRec(broot, ctx, &scratch);
  }

  Status DestroyRec(PageId pid) {
    std::vector<std::pair<PageId, bool>> kids;
    BOXAGG_RETURN_NOT_OK(NodeKids(pid, &kids));
    for (auto [kid, is_border] : kids) {
      if (is_border) {
        PackedBaTree sub(pool_, dims_ - 1, kid);
        BOXAGG_RETURN_NOT_OK(sub.Destroy());
      } else {
        BOXAGG_RETURN_NOT_OK(DestroyRec(kid));
      }
    }
    return pool_->Delete(pid);
  }

  BufferPool* pool_;
  int dims_;
  PageId root_;
  const PageVersionView* view_ = nullptr;  // non-null: snapshot-bound reads
};

// LINT:hot-path — descent node reader: no heap allocation (lint.sh)
/// Node reader for descent::PointBatch and the read-only walks: the
/// AggBTree reader for spilled 1-d borders, plus packed BA nodes read in
/// place from the pinned page (through the pinned generation when the tree
/// is snapshot-bound). It is this page format's one decoder: Fetch checks
/// the header and ReadBorder each inline block it hands out, so every byte
/// a view reads lies inside the page.
template <class V>
class PackedBaTree<V>::Reader : public AggBTree<V>::Reader {
 public:
  using AggBTree<V>::Reader::Reader;
  using AggBTree<V>::Reader::Fetch;

  /// An inline border block (a run of (dims-1)-d entries) or a spill.
  class Border {
   public:
    bool spilled = false;
    PageId root = kInvalidPageId;
    uint32_t size() const { return cnt_; }
    Point point(uint32_t k) const {
      const uint32_t off = EntryOff(k);
      Point pt;  // packed entries can be < kMaxDims
      for (int d = 0; d < layout_->dims_ - 1; ++d) {
        pt[d] = page_->ReadAt<double>(off + 8 * static_cast<uint32_t>(d));
      }
      return pt;
    }
    V value(uint32_t k) const {
      return page_->ReadAt<V>(EntryOff(k) +
                              8 * static_cast<uint32_t>(layout_->dims_ - 1));
    }
    /// Byte offset of the inline block in its page.
    uint32_t offset() const { return off_; }

   private:
    friend class Reader;
    uint32_t EntryOff(uint32_t k) const {
      return off_ + kBlockHeader + k * layout_->BorderEntrySize();
    }
    const PackedBaTree* layout_ = nullptr;  // the node's, at its dims
    const Page* page_ = nullptr;
    uint32_t off_ = 0;
    uint32_t cnt_ = 0;
  };

  /// A pinned leaf (a run of its entries) or internal node.
  class BaNode {
   public:
    bool leaf() const { return leaf_; }
    uint32_t count() const { return n_; }
    uint32_t size() const { return n_; }
    Point point(uint32_t k) const { return LeafPoint(page_, k); }
    V value(uint32_t k) const {
      V v;
      ReadLeafValue(page_, k, &v);
      return v;
    }
    Box box(uint32_t i) const { return page_->ReadAt<Box>(Rec(i)); }
    PageId child(uint32_t i) const {
      return page_->ReadAt<PageId>(Rec(i) + sizeof(Box));
    }
    V subtotal(uint32_t i) const {
      return page_->ReadAt<V>(Rec(i) + sizeof(Box) + 8);
    }
    Status SkipBorders(uint32_t) const { return Status::OK(); }
    /// Border b of record i: Corruption unless an inline block starts in
    /// the heap, holds at least one entry and ends inside the page.
    Status ReadBorder(uint32_t i, int b, Border* out) const {
      const uint64_t ref = page_->ReadAt<uint64_t>(
          Rec(i) + sizeof(Box) + 8 + sizeof(V) + 8 * static_cast<uint32_t>(b));
      if (ref == kEmptyRef) return Status::OK();
      if ((ref & kInlineTag) == 0) {
        out->spilled = true;
        out->root = static_cast<PageId>(ref);
        return Status::OK();
      }
      const uint32_t off = static_cast<uint32_t>(ref);  // low 32 bits
      if (off < heap_ || uint64_t{off} + kBlockHeader > page_->size()) {
        return Status::Corruption("inline border block outside the heap");
      }
      const uint32_t cnt = page_->ReadAt<uint16_t>(off);
      if (cnt == 0 || uint64_t{off} + kBlockHeader +
                              uint64_t{cnt} * layout_.BorderEntrySize() >
                          page_->size()) {
        return Status::Corruption("inline border block empty or past the "
                                  "page");
      }
      out->layout_ = &layout_;
      out->page_ = page_;
      out->off_ = off;
      out->cnt_ = cnt;
      return Status::OK();
    }

   private:
    friend class Reader;
    uint32_t Rec(uint32_t i) const { return layout_.RecOff(i); }
    PackedBaTree layout_{nullptr, 2};  // re-bound to the node's dims by Fetch
    PageGuard guard_;
    const Page* page_ = nullptr;
    uint32_t n_ = 0;
    uint32_t heap_ = 0;  // heap_start of an internal node
    bool leaf_ = false;
  };

  /// Pins node `pid` of a `dims`-dimensional tree: Corruption unless its
  /// type is leaf or internal, its count fits that type's capacity and, for
  /// an internal node, heap_start lies in [end of the records, page size].
  Status Fetch(PageId pid, int dims, BaNode* node) const {
    node->layout_ =
        PackedBaTree(this->pool_, dims, kInvalidPageId, this->view_);
    BOXAGG_RETURN_NOT_OK(this->FetchPage(pid, &node->guard_));
    const Page* p = node->guard_.page();
    const PackedBaTree& t = node->layout_;
    BOXAGG_RETURN_NOT_OK(this->ReadHeader(p, kLeaf, t.LeafCapacity(),
                                          kInternal, t.InternalCapacity(),
                                          &node->leaf_, &node->n_));
    node->page_ = p;
    if (!node->leaf_) {
      node->heap_ = p->ReadAt<uint32_t>(8);
      if (node->heap_ < t.RecOff(node->n_) || node->heap_ > p->size()) {
        return Status::Corruption("record array overlaps the border heap");
      }
    }
    return Status::OK();
  }
};
// LINT:hot-path-end

}  // namespace boxagg

#endif  // BOXAGG_BATREE_PACKED_BA_TREE_H_
