// CompactReplica: the compressed, immutable read backend built by
// ReplicaBuilder (replica/replica_builder.h) from a live PackedBaTree or
// AggBTree snapshot. Format details live in replica/replica_format.h;
// DESIGN.md §13 has the full layout diagram and the rebuild plan.
//
// The replica plugs into BoxSumIndex unchanged: it answers DominanceSumBatch
// with results BYTE-IDENTICAL to the source tree, because it runs the same
// descent (core/dominance_descent.h) — same values, same order, FP addition
// is not associative. Only its node reader differs: it decodes
// delta/dictionary-compressed strips instead of reading pointer-rich pages,
// and it bounds-checks every byte it decodes, so hostile node bytes yield a
// Corruption status rather than an out-of-bounds read. The audit
// (CheckConsistency) decodes through the same reader.
// Mutation entry points refuse with InvalidArgument: replicas are rebuilt
// from the writer tree at generation publish, never patched in place.
//
// Concurrency: Open() loads the directory / dictionary cache from the meta
// chain and must complete before the replica is queried from multiple
// threads (BoxSumIndex handles are copied into ParallelQueryExecutor
// workers; the cache is shared through a shared_ptr, so copies are cheap
// and all see the same immutable cache). Queries open lazily as a
// single-threaded convenience.
//
// I/O discipline: one BufferPool::Fetch per node visit, paired with one
// obs::NoteNodeVisit — the shared descent keeps boxagg_stats' attribution
// identity sum(node_visits) == logical_reads intact, and notes saved probe
// fetches and PrefetchHints the next group's page exactly like the live
// trees.

#ifndef BOXAGG_REPLICA_COMPACT_REPLICA_H_
#define BOXAGG_REPLICA_COMPACT_REPLICA_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "check/checkable.h"
#include "core/arena.h"
#include "core/dominance_descent.h"
#include "core/point_entry.h"
#include "geom/box.h"
#include "geom/point.h"
#include "replica/replica_format.h"
#include "storage/buffer_pool.h"
#include "storage/page_header.h"

namespace boxagg {

template <class V>
class CompactReplica {
 public:
  static_assert(std::is_trivially_copyable_v<V> && sizeof(V) == 8,
                "replica value strips assume trivially copyable 8-byte V");
  using Entry = PointEntry<V>;

  CompactReplica(BufferPool* pool, int dims, PageId root = kInvalidPageId)
      : pool_(pool), dims_(dims), root_(root) {
    assert(dims_ >= 1 && dims_ <= kMaxDims);
  }

  [[nodiscard]] PageId root() const { return root_; }
  [[nodiscard]] bool empty() const { return root_ == kInvalidPageId; }
  [[nodiscard]] int dims() const { return dims_; }
  [[nodiscard]] bool is_open() const { return cache_ != nullptr; }

  /// Sets *is_root to whether page `root` is a replica header rather than
  /// the root node of a live tree (both can fill a .bag root slot); false
  /// for an empty root. A failed fetch is returned, not read as "no".
  static Status IsRoot(BufferPool* pool, PageId root, bool* is_root) {
    *is_root = false;
    if (root == kInvalidPageId) return Status::OK();
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool->Fetch(root, &g));
    *is_root = g.page()->ReadAt<uint16_t>(replica::kHdrType) ==
               replica::kHeaderPageType;
    return Status::OK();
  }

  /// Loads the header, meta chain, directory and dictionaries. Call once
  /// before concurrent querying; repeat calls are no-ops.
  Status Open() {
    if (cache_) return Status::OK();
    auto c = std::make_shared<Cache>();
    if (root_ != kInvalidPageId) {
      BOXAGG_RETURN_NOT_OK(LoadCache(nullptr, c.get()));
    }
    cache_ = std::move(c);  // an empty replica answers V{} everywhere
    return Status::OK();
  }

  // Immutable backend: the BoxSumIndex mutation entry points are refused —
  // a stale replica is rebuilt from the writer tree, never patched.
  Status Insert(const Point&, const V&) {
    return Status::InvalidArgument(
        "CompactReplica is immutable; rebuild it with ReplicaBuilder");
  }
  Status BulkLoad(std::vector<Entry>) {
    return Status::InvalidArgument(
        "CompactReplica is immutable; rebuild it with ReplicaBuilder");
  }

  /// Total value over points dominated by `q`.
  Status DominanceSum(const Point& q, V* out) const {
    return DominanceSumBatch(&q, 1, out);
  }

  /// Batched dominance sums through the shared descent; byte-identical to
  /// the source tree's, batch for batch.
  Status DominanceSumBatch(const Point* queries, size_t count,
                           V* outs) const {
    BOXAGG_RETURN_NOT_OK(EnsureOpen());
    const Reader reader(pool_, cache_.get());
    return descent::PointBatch(
        reader, cache_->node_count == 0 ? Reader::kNull : 0, queries, count,
        dims_, outs, 0);
  }

  /// Header + meta chain + data pages.
  Status PageCount(uint64_t* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    BOXAGG_RETURN_NOT_OK(EnsureOpen());
    *out = 1 + cache_->meta_pages.size() + cache_->data_pages.size();
    return Status::OK();
  }

  Status Destroy() {
    if (root_ == kInvalidPageId) return Status::OK();
    BOXAGG_RETURN_NOT_OK(EnsureOpen());
    for (PageId pid : cache_->data_pages) {
      BOXAGG_RETURN_NOT_OK(pool_->Delete(pid));
    }
    for (PageId pid : cache_->meta_pages) {
      BOXAGG_RETURN_NOT_OK(pool_->Delete(pid));
    }
    BOXAGG_RETURN_NOT_OK(pool_->Delete(root_));
    cache_.reset();
    root_ = kInvalidPageId;
    return Status::OK();
  }

  /// Deep structural audit (fresh from the pages, not the cached state):
  /// header/meta/data crc envelopes, directory and dictionary sanity, a
  /// full strict re-decode of every node, breadth-first reachability of
  /// exactly node_count ordinals, aggregate subtree identities (within
  /// kAggDriftTolerance — replica sums are the source's, re-derived sums
  /// are a different addition order), EXACT equality of the re-counted
  /// entries against the header's entry_count, and the self-oracle.
  Status CheckConsistency(CheckContext* ctx) const {
    if (root_ == kInvalidPageId) return Status::OK();
    Cache c;
    BOXAGG_RETURN_NOT_OK(LoadCache(ctx, &c));
    // Data pages: visit + envelope-check every one (FetchMulti in chunks —
    // the physical sweep fsck wants), and pin down per-page node counts.
    std::vector<uint32_t> nodes_in_page(c.data_pages.size(), 0);
    for (const uint64_t de : c.dir) ++nodes_in_page[de >> 32];
    constexpr size_t kSweepChunk = 32;
    for (size_t base = 0; base < c.data_pages.size(); base += kSweepChunk) {
      const size_t n = std::min(kSweepChunk, c.data_pages.size() - base);
      std::vector<PageGuard> guards;
      BOXAGG_RETURN_NOT_OK(
          pool_->FetchMulti(c.data_pages.data() + base, n, &guards));
      for (size_t k = 0; k < n; ++k) {
        const PageId pid = c.data_pages[base + k];
        BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "compact-replica"));
        const Page* p = guards[k].page();
        if (p->ReadAt<uint16_t>(0) != replica::kDataPageType) {
          return CorruptionAt(pid, "compact-replica: bad data page type");
        }
        const uint32_t len = p->ReadAt<uint32_t>(replica::kDataPayloadLen);
        if (replica::kDataHeaderBytes + len > p->size()) {
          return CorruptionAt(pid, "compact-replica: data payload overruns "
                                   "the page");
        }
        if (Crc32c(p->data() + replica::kDataHeaderBytes, len) !=
            p->ReadAt<uint32_t>(replica::kDataCrc)) {
          return CorruptionAt(pid, "compact-replica: data crc mismatch");
        }
        if (p->ReadAt<uint16_t>(replica::kDataNodeCount) !=
            nodes_in_page[base + k]) {
          return CorruptionAt(pid, "compact-replica: node count disagrees "
                                   "with the directory");
        }
      }
    }
    // Structural walk: strict re-decode from ordinal 0 through Reader
    // (which also checks each node's directory offset), each ordinal
    // reached exactly once, subtree aggregates re-derived, entries counted.
    if (c.node_count == 0) {
      if (c.entry_count != 0) {
        return CorruptionAt(root_, "compact-replica: empty replica with a "
                                   "non-zero entry count");
      }
      return Status::OK();
    }
    std::vector<uint8_t> reached(c.node_count, 0);
    uint64_t entries = 0;
    std::vector<Entry> pts;
    WalkInfo info;
    BOXAGG_RETURN_NOT_OK(CheckNodeRec(Reader(pool_, &c), 0, dims_, &reached,
                                      &entries, &pts, &info));
    for (uint64_t i = 0; i < c.node_count; ++i) {
      if (!reached[i]) {
        return CorruptionAt(root_, "compact-replica: ordinal " +
                                       std::to_string(i) +
                                       " unreachable from the root");
      }
    }
    if (entries != c.entry_count) {
      return CorruptionAt(
          root_, "compact-replica: encoded entries (" +
                     std::to_string(entries) + ") != source root count (" +
                     std::to_string(c.entry_count) + ")");
    }
    if (ctx->check_oracle) {
      BOXAGG_RETURN_NOT_OK(EnsureOpen());
      BOXAGG_RETURN_NOT_OK(SelfOracle(*this, pts, dims_, "compact-replica"));
    }
    return Status::OK();
  }

 private:
  struct Cache {
    uint64_t node_count = 0;
    uint64_t entry_count = 0;
    std::vector<PageId> meta_pages;
    std::vector<PageId> data_pages;
    std::vector<uint64_t> dir;  // ordinal -> (page_index << 32 | offset)
    std::vector<double> key_dict;
    std::vector<uint64_t> val_dict;  // raw V bit patterns
  };

  /// Copies `n` u64s from *m into *out and advances *m. An empty replica
  /// has an empty meta payload, so *m may be null when n == 0, which
  /// memcpy does not allow even for zero bytes.
  static void TakeU64s(const uint8_t** m, uint64_t n,
                       std::vector<uint64_t>* out) {
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), *m, n * 8);
    *m += n * 8;
  }

  Status EnsureOpen() const {
    if (cache_) return Status::OK();
    return const_cast<CompactReplica*>(this)->Open();
  }

  /// Parses the header page and the meta chain into *c — data page ids,
  /// directory and both dictionaries — checking every field against the
  /// others: page types, format version, crc envelopes, dims, value size,
  /// level count, chain length, payload size, strictly increasing
  /// dictionaries and directory page indexes. With a non-null `ctx` (the
  /// audit) every page it reads is also marked visited.
  Status LoadCache(CheckContext* ctx, Cache* c) const {
    if (ctx != nullptr) {
      BOXAGG_RETURN_NOT_OK(ctx->Visit(root_, "compact-replica"));
    }
    uint64_t data_page_count = 0, meta_page_count = 0;
    uint64_t key_dict_count = 0, val_dict_count = 0;
    PageId first_meta = kInvalidPageId;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(root_, &g));
      const Page* p = g.page();
      if (p->ReadAt<uint16_t>(replica::kHdrType) != replica::kHeaderPageType) {
        return CorruptionAt(root_, "compact-replica: bad header page type " +
                                       std::to_string(p->ReadAt<uint16_t>(0)));
      }
      if (p->ReadAt<uint16_t>(replica::kHdrVersion) !=
          replica::kFormatVersion) {
        return CorruptionAt(root_, "compact-replica: unknown format version");
      }
      if (Crc32c(p->data(), replica::kHdrCrc) !=
          p->ReadAt<uint32_t>(replica::kHdrCrc)) {
        return CorruptionAt(root_, "compact-replica: header crc mismatch");
      }
      if (p->ReadAt<uint32_t>(replica::kHdrDims) !=
          static_cast<uint32_t>(dims_)) {
        return CorruptionAt(root_, "compact-replica: dims mismatch");
      }
      if (p->ReadAt<uint32_t>(replica::kHdrValueSize) != sizeof(V)) {
        return CorruptionAt(root_, "compact-replica: value size mismatch");
      }
      if (p->ReadAt<uint32_t>(replica::kHdrLevelCount) >
          replica::kHdrLevelSlots) {
        return CorruptionAt(root_, "compact-replica: level count out of "
                                   "range");
      }
      c->node_count = p->ReadAt<uint64_t>(replica::kHdrNodeCount);
      c->entry_count = p->ReadAt<uint64_t>(replica::kHdrEntryCount);
      data_page_count = p->ReadAt<uint64_t>(replica::kHdrDataPageCount);
      meta_page_count = p->ReadAt<uint64_t>(replica::kHdrMetaPageCount);
      key_dict_count = p->ReadAt<uint64_t>(replica::kHdrKeyDictCount);
      val_dict_count = p->ReadAt<uint64_t>(replica::kHdrValDictCount);
      first_meta = p->ReadAt<uint64_t>(replica::kHdrFirstMeta);
    }
    std::vector<uint8_t> meta;
    for (PageId pid = first_meta; pid != kInvalidPageId;) {
      if (c->meta_pages.size() >= meta_page_count) {
        return CorruptionAt(pid, "compact-replica: meta chain longer than "
                                 "the header's count");
      }
      if (ctx != nullptr) {
        BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "compact-replica"));
      }
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
      const Page* p = g.page();
      if (p->ReadAt<uint16_t>(0) != replica::kMetaPageType) {
        return CorruptionAt(pid, "compact-replica: bad meta page type");
      }
      const uint32_t len = p->ReadAt<uint32_t>(replica::kMetaPayloadLen);
      if (len > p->size() - replica::kMetaHeaderBytes) {
        return CorruptionAt(pid, "compact-replica: meta payload overruns "
                                 "the page");
      }
      if (Crc32c(p->data() + replica::kMetaHeaderBytes, len) !=
          p->ReadAt<uint32_t>(replica::kMetaCrc)) {
        return CorruptionAt(pid, "compact-replica: meta crc mismatch");
      }
      const PageId next = p->ReadAt<uint64_t>(replica::kMetaNext);
      if (next != kInvalidPageId) pool_->PrefetchHint(next);
      meta.insert(meta.end(), p->data() + replica::kMetaHeaderBytes,
                  p->data() + replica::kMetaHeaderBytes + len);
      c->meta_pages.push_back(pid);
      pid = next;
    }
    if (c->meta_pages.size() != meta_page_count) {
      return CorruptionAt(root_, "compact-replica: meta chain truncated");
    }
    // The four sections must fill the payload exactly; each count is
    // checked against what is left, so no product can overflow.
    uint64_t words = meta.size() / 8;
    bool fits = meta.size() % 8 == 0;
    for (uint64_t n : {data_page_count, c->node_count, key_dict_count,
                       val_dict_count}) {
      fits = fits && n <= words;
      if (fits) words -= n;
    }
    if (!fits || words != 0) {
      return CorruptionAt(root_, "compact-replica: meta payload size drift");
    }
    const uint8_t* m = meta.data();
    TakeU64s(&m, data_page_count, &c->data_pages);
    TakeU64s(&m, c->node_count, &c->dir);
    std::vector<uint64_t> key_bits, val_bits;
    TakeU64s(&m, key_dict_count, &key_bits);
    TakeU64s(&m, val_dict_count, &val_bits);
    // Dictionaries are strictly increasing in the order-mapped domain (the
    // builder emits them sorted and deduplicated).
    for (const auto* dict : {&key_bits, &val_bits}) {
      for (size_t i = 1; i < dict->size(); ++i) {
        if ((*dict)[i] <= (*dict)[i - 1]) {
          return CorruptionAt(root_, "compact-replica: dictionary not "
                                     "strictly sorted");
        }
      }
    }
    c->key_dict.resize(key_bits.size());
    for (size_t i = 0; i < key_bits.size(); ++i) {
      c->key_dict[i] = replica::UnmapDouble(key_bits[i]);
    }
    c->val_dict.resize(val_bits.size());
    for (size_t i = 0; i < val_bits.size(); ++i) {
      c->val_dict[i] = replica::UnmapOrderedBits(val_bits[i]);
    }
    for (const uint64_t de : c->dir) {
      if ((de >> 32) >= data_page_count) {
        return CorruptionAt(root_, "compact-replica: directory page index "
                                   "out of range");
      }
    }
    return Status::OK();
  }

  static Status NodeCorruption(PageId pid, const char* what) {
    return CorruptionAt(pid, std::string("compact-replica: ") + what);
  }

  // LINT:hot-path — replica node reader: no heap allocation past warm-up
  /// Node reader for descent::PointBatch and for the audit: each Fetch
  /// pins the node's data page and decodes the node's strips into arena
  /// vectors; BA border sections are decoded on demand through a cursor.
  class Reader {
   public:
    using Value = V;
    using Ref = uint64_t;
    static constexpr Ref kNull = ~uint64_t{0};

    /// Decoded (point, value) entries: a BA leaf or one inline border.
    struct Run {
      core::ArenaVector<Point> pts;
      core::ArenaVector<V> vals;
      uint32_t size() const { return static_cast<uint32_t>(vals.size()); }
      const Point& point(uint32_t k) const { return pts[k]; }
      V value(uint32_t k) const { return vals[k]; }
    };
    struct Border : Run {
      bool spilled = false;
      Ref root = 0;
    };

    /// Bounds-checked sequential decoder over one node's bytes. Every read
    /// is checked against the end of the node's page payload, every strip
    /// width (<= 8) and dictionary index against the dictionaries, and
    /// every ordinal against node_count, so no input bytes make it read out
    /// of bounds. Reads return false on the first bad byte and record why;
    /// Done() turns that into the node's one Status.
    class Cursor {
     public:
      Cursor() = default;
      Cursor(const Cache* c, PageId pid, const uint8_t* p, const uint8_t* end)
          : c_(c), pid_(pid), p_(p), end_(end) {}

      Status Done() const {
        return error_ == nullptr ? Status::OK() : NodeCorruption(pid_, error_);
      }
      bool Byte(uint8_t* out) {
        if (p_ >= end_) return Fail("node overruns its payload");
        *out = *p_++;
        return true;
      }
      /// An LEB128 varint of at most 10 bytes.
      bool Varint(uint64_t* out) {
        uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
          uint8_t b = 0;
          if (!Byte(&b)) return false;
          v |= static_cast<uint64_t>(b & 0x7f) << shift;
          if ((b & 0x80) == 0) {
            *out = v;
            return true;
          }
        }
        return Fail("varint longer than 10 bytes");
      }
      /// An entry count in [min, page size]: bounds what a node can make
      /// the decoder allocate.
      bool Count(uint32_t min, uint32_t page_size, uint32_t* out) {
        uint64_t n = 0;
        if (!Varint(&n)) return false;
        if (n < min || n > page_size) return Fail("entry count out of range");
        *out = static_cast<uint32_t>(n);
        return true;
      }
      /// The first of `span` node ordinals, all in (parent, node_count):
      /// breadth-first order puts children and spilled roots after their
      /// parent, so no bytes can make the descent loop.
      bool Ordinal(uint64_t parent, uint64_t span, uint64_t* out) {
        if (!Varint(out)) return false;
        if (*out <= parent || *out > c_->node_count ||
            span > c_->node_count - *out) {
          return Fail("node ordinal out of range");
        }
        return true;
      }
      bool Strip(uint32_t m, replica::StripRef* s) {
        if (end_ - p_ < 1 + 8) return Fail("strip header overruns");
        if ((*p_ & replica::kStripWidthMask) > 8) {
          return Fail("strip width out of range");
        }
        if (static_cast<size_t>(end_ - p_) - (1 + 8) <
            replica::StripPayloadBytes(*p_, m)) {
          return Fail("strip payload overruns");
        }
        *s = replica::ParseStrip(&p_, m);
        return true;
      }
      /// Decodes a key strip of m > 0 tokens; put(i, key) stores each.
      template <class Put>
      bool Keys(uint32_t m, uint64_t* tok, Put put) {
        replica::StripRef s;
        if (!Strip(m, &s)) return false;
        replica::DecodeStripU64(s, m, tok);
        if ((s.header & replica::kStripDictBit) == 0) {
          for (uint32_t i = 0; i < m; ++i) {
            put(i, replica::UnmapDouble(tok[i]));
          }
          return true;
        }
        const double* dict = c_->key_dict.data();
        const size_t dict_size = c_->key_dict.size();
        for (uint32_t i = 0; i < m; ++i) {
          if (tok[i] >= dict_size) return Fail("bad key index");
          put(i, dict[tok[i]]);
        }
        return true;
      }
      bool Points(uint32_t m, int dims, uint64_t* tok, Point* pts) {
        for (int d = 0; d < dims; ++d) {
          auto put = [pts, d](uint32_t i, double x) { pts[i][d] = x; };
          if (!Keys(m, tok, put)) return false;
        }
        return true;
      }
      bool Values(uint32_t m, uint64_t* tok, V* out) {
        replica::StripRef s;
        if (!Strip(m, &s)) return false;
        replica::DecodeStripU64(s, m, tok);
        if ((s.header & replica::kStripDictBit) == 0) {
          for (uint32_t i = 0; i < m; ++i) {
            const uint64_t bits = replica::UnmapOrderedBits(tok[i]);
            std::memcpy(&out[i], &bits, sizeof(V));
          }
          return true;
        }
        const uint64_t* dict = c_->val_dict.data();
        const size_t dict_size = c_->val_dict.size();
        for (uint32_t i = 0; i < m; ++i) {
          if (tok[i] >= dict_size) return Fail("bad value index");
          std::memcpy(&out[i], &dict[tok[i]], sizeof(V));
        }
        return true;
      }
      /// One border section of a record of the `dims`-d node at ordinal
      /// `ord`; a null `out` skips it without decoding.
      bool BorderSection(int dims, uint64_t ord, uint32_t page_size,
                         Border* out) {
        uint8_t tag = 0;
        if (!Byte(&tag)) return false;
        if (tag == replica::kBorderEmpty) return true;
        if (tag == replica::kBorderSpill) {
          uint64_t root = 0;
          if (!Ordinal(ord, 1, &root)) return false;
          if (out != nullptr) {
            out->spilled = true;
            out->root = root;
          }
          return true;
        }
        if (tag != replica::kBorderInline) return Fail("bad border tag");
        uint32_t cnt = 0;
        if (!Count(1, page_size, &cnt)) return false;
        if (out == nullptr) {
          replica::StripRef s;
          for (int d = 0; d < dims; ++d) {
            if (!Strip(cnt, &s)) return false;
          }
          return true;
        }
        core::ArenaVector<uint64_t> tok(cnt);
        out->pts.resize(cnt);
        out->vals.resize(cnt);
        return Points(cnt, dims - 1, tok.data(), out->pts.data()) &&
               Values(cnt, tok.data(), out->vals.data());
      }

     private:
      bool Fail(const char* what) {
        error_ = what;
        return false;
      }

      const Cache* c_ = nullptr;
      PageId pid_ = kInvalidPageId;
      const uint8_t* p_ = nullptr;
      const uint8_t* end_ = nullptr;
      const char* error_ = nullptr;
    };

    /// What every node view starts with: the pin and the node header.
    class Head {
     public:
      bool leaf() const { return leaf_; }
      uint32_t count() const { return n_; }
      Ref child(uint32_t i) const { return first_child_ + i; }

     private:
      friend class Reader;
      PageGuard guard_;
      bool leaf_ = false;
      uint32_t n_ = 0;
      uint64_t first_child_ = 0;
    };

    class AggNode : public Head {
     public:
      const double* keys() const { return keys_.data(); }
      V value(uint32_t i) const { return vals_[i]; }
      V sum(uint32_t i) const { return vals_[i]; }

     private:
      friend class Reader;
      core::ArenaVector<double> keys_;
      core::ArenaVector<V> vals_;  // leaf values or subtree sums
    };

    class BaNode : public Head, public Run {
     public:
      const Box& box(uint32_t i) const { return boxes_[i]; }
      V subtotal(uint32_t i) const { return this->vals[i]; }
      Status SkipBorders(uint32_t) {
        for (int b = 0; b < dims_; ++b) {
          if (!cur_.BorderSection(dims_, ord_, page_size_, nullptr)) break;
        }
        return cur_.Done();
      }
      Status ReadBorder(uint32_t, int, Border* out) {
        cur_.BorderSection(dims_, ord_, page_size_, out);
        return cur_.Done();
      }

     private:
      friend class Reader;
      Cursor cur_;  // at the next record's border sections
      int dims_ = 0;
      uint32_t page_size_ = 0;
      uint64_t ord_ = 0;
      core::ArenaVector<Box> boxes_;  // subtotals live in Run::vals
    };

    Reader(BufferPool* pool, const Cache* c) : pool_(pool), c_(c) {}

    Status Fetch(Ref ord, AggNode* node) const {
      Cursor cur;
      BOXAGG_RETURN_NOT_OK(Open(ord, replica::kNodeAggLeaf,
                                replica::kNodeAggInternal, node, &cur));
      const uint32_t n = node->n_;
      if (n == 0) return Status::OK();  // drained leaf
      core::ArenaVector<uint64_t> tok(n);
      node->keys_.resize(n);
      node->vals_.resize(n);
      double* keys = node->keys_.data();
      auto put = [keys](uint32_t i, double x) { keys[i] = x; };
      if (cur.Keys(n, tok.data(), put)) {
        cur.Values(n, tok.data(), node->vals_.data());
      }
      return cur.Done();
    }

    Status Fetch(Ref ord, int dims, BaNode* node) const {
      Cursor& cur = node->cur_;
      BOXAGG_RETURN_NOT_OK(Open(ord, replica::kNodeBaLeaf,
                                replica::kNodeBaInternal, node, &cur));
      const uint32_t n = node->n_;
      node->dims_ = dims;
      node->ord_ = ord;
      node->page_size_ = node->guard_.page()->size();
      if (n == 0) return Status::OK();  // drained leaf
      core::ArenaVector<uint64_t> tok(n);
      node->vals.resize(n);
      bool ok = true;
      if (node->leaf_) {
        node->pts.resize(n);
        ok = cur.Points(n, dims, tok.data(), node->pts.data());
      } else {
        node->boxes_.resize(n);
        Box* boxes = node->boxes_.data();
        for (int side = 0; side < 2 && ok; ++side) {
          for (int d = 0; d < dims && ok; ++d) {
            auto put = [boxes, side, d](uint32_t i, double x) {
              (side == 0 ? boxes[i].lo : boxes[i].hi)[d] = x;
            };
            ok = cur.Keys(n, tok.data(), put);
          }
        }
      }
      if (ok) cur.Values(n, tok.data(), node->vals.data());
      return cur.Done();
    }

    void Prefetch(Ref ord) const { pool_->PrefetchHint(PageOf(ord)); }
    void NoteProbeFetchesSaved(uint64_t n) const {
      pool_->NoteProbeFetchesSaved(n);
    }
    PageId PageOf(Ref ord) const { return c_->data_pages[c_->dir[ord] >> 32]; }

   private:
    /// Pins node `ord`'s page and reads its header: a kind that must be
    /// `leaf_kind` or `internal_kind` (the kinds of the probe's
    /// dimensionality), the entry count and, for an internal node (never
    /// empty), the first child ordinal.
    Status Open(Ref ord, uint8_t leaf_kind, uint8_t internal_kind, Head* head,
                Cursor* cur) const {
      const PageId pid = PageOf(ord);
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &head->guard_));
      const Page* page = head->guard_.page();
      const uint32_t len = page->ReadAt<uint32_t>(replica::kDataPayloadLen);
      const uint32_t off = static_cast<uint32_t>(c_->dir[ord]);
      if (len > page->size() - replica::kDataHeaderBytes ||
          off < replica::kDataHeaderBytes ||
          off - replica::kDataHeaderBytes >= len) {
        return NodeCorruption(pid, "node offset outside the page payload");
      }
      *cur = Cursor(c_, pid, page->data() + off,
                    page->data() + replica::kDataHeaderBytes + len);
      uint8_t kind = 0;
      if (!cur->Byte(&kind) || !cur->Count(0, page->size(), &head->n_)) {
        return cur->Done();
      }
      head->leaf_ = kind == leaf_kind;
      if (!head->leaf_ && kind != internal_kind) {
        return NodeCorruption(pid, "node kind unknown or not of the probe's "
                                   "dimensionality");
      }
      if (head->leaf_) return Status::OK();
      if (head->n_ == 0) {
        return NodeCorruption(pid, "internal node with no entries");
      }
      cur->Ordinal(ord, head->n_, &head->first_child_);
      return cur->Done();
    }

    BufferPool* pool_;
    const Cache* c_;
  };
  // LINT:hot-path-end

  // ---- verification (check path: free to allocate) -------------------------

  struct WalkInfo {
    V total{};
    uint32_t depth = 0;
  };

  /// Strict re-decode of one subtree through Reader (which checks bytes,
  /// kinds against the dimensionality, and ordinals): keys sorted,
  /// aggregates re-derived, entries collected (main branch) or counted
  /// (spilled borders), every ordinal reached exactly once.
  Status CheckNodeRec(const Reader& reader, uint64_t ord, int dims,
                      std::vector<uint8_t>* reached, uint64_t* entries,
                      std::vector<Entry>* out, WalkInfo* info) const {
    if ((*reached)[ord]) {
      return CorruptionAt(root_, "compact-replica: ordinal " +
                                     std::to_string(ord) +
                                     " reached twice (cycle or shared "
                                     "ownership)");
    }
    (*reached)[ord] = 1;
    const PageId pid = reader.PageOf(ord);
    core::ArenaScope scope(core::ScratchArena());  // the reader decodes here
    info->total = V{};
    if (dims == 1) {
      std::vector<double> keys;
      std::vector<V> vals;
      uint64_t first_child = 0;
      bool leaf = false;
      {
        typename Reader::AggNode node;
        BOXAGG_RETURN_NOT_OK(reader.Fetch(ord, &node));
        leaf = node.leaf();
        keys.assign(node.keys(), node.keys() + node.count());
        for (uint32_t i = 0; i < node.count(); ++i) {
          vals.push_back(leaf ? node.value(i) : node.sum(i));
        }
        if (!leaf) first_child = node.child(0);
      }
      for (size_t i = 1; i < keys.size(); ++i) {
        if (!(keys[i - 1] < keys[i])) {
          return CorruptionAt(pid, "compact-replica: agg keys not strictly "
                                   "increasing");
        }
      }
      if (leaf) {
        for (size_t i = 0; i < keys.size(); ++i) {
          Entry e;
          e.pt[0] = keys[i];
          e.value = vals[i];
          out->push_back(e);
          info->total += vals[i];
        }
        *entries += keys.size();
        info->depth = 1;
        return Status::OK();
      }
      uint32_t child_depth = 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        WalkInfo ci;
        BOXAGG_RETURN_NOT_OK(CheckNodeRec(reader, first_child + i, dims,
                                          reached, entries, out, &ci));
        if (i == 0) {
          child_depth = ci.depth;
        } else if (ci.depth != child_depth) {
          return CorruptionAt(pid, "compact-replica: agg subtree depths "
                                   "differ");
        }
        if (AggDrift(vals[i], ci.total) > kAggDriftTolerance) {
          return CorruptionAt(pid, "compact-replica: agg subtree sum "
                                   "drifts from the stored aggregate");
        }
        info->total += vals[i];
      }
      info->depth = child_depth + 1;
      return Status::OK();
    }
    std::vector<Box> boxes;
    uint64_t first_child = 0;
    std::vector<std::vector<uint64_t>> spills;  // per record
    {
      typename Reader::BaNode node;
      BOXAGG_RETURN_NOT_OK(reader.Fetch(ord, dims, &node));
      if (node.leaf()) {
        for (uint32_t i = 0; i < node.size(); ++i) {
          out->push_back(Entry{node.point(i), node.value(i)});
        }
        *entries += node.size();
        info->depth = 1;
        return Status::OK();
      }
      first_child = node.child(0);
      spills.resize(node.count());
      for (uint32_t i = 0; i < node.count(); ++i) {
        boxes.push_back(node.box(i));
        for (int b = 0; b < dims; ++b) {
          typename Reader::Border br;
          BOXAGG_RETURN_NOT_OK(node.ReadBorder(i, b, &br));
          if (br.spilled) spills[i].push_back(br.root);
          for (uint32_t k = 1; k < br.size(); ++k) {
            if (!LexLess(br.point(k - 1), br.point(k), dims - 1)) {
              return CorruptionAt(pid, "compact-replica: inline border "
                                       "entries not strictly sorted");
            }
          }
          *entries += br.size();
        }
      }
    }
    // Child points inside their record box, boxes tile the node scope,
    // spilled borders audited structurally like
    // PackedBaTree::CheckBorderTree.
    const size_t begin = out->size();
    for (size_t i = 0; i < boxes.size(); ++i) {
      const size_t lo = out->size();
      WalkInfo ci;
      BOXAGG_RETURN_NOT_OK(CheckNodeRec(reader, first_child + i, dims,
                                        reached, entries, out, &ci));
      for (size_t k = lo; k < out->size(); ++k) {
        if (!boxes[i].ContainsPointHalfOpen((*out)[k].pt, dims)) {
          return CorruptionAt(pid, "compact-replica: subtree point escapes "
                                   "its record box");
        }
      }
      for (const uint64_t spill : spills[i]) {
        std::vector<Entry> scratch;
        WalkInfo bi;
        BOXAGG_RETURN_NOT_OK(CheckNodeRec(reader, spill, dims - 1, reached,
                                          entries, &scratch, &bi));
      }
    }
    for (size_t k = begin; k < out->size(); ++k) {
      int owners = 0;
      for (const Box& box : boxes) {
        if (box.ContainsPointHalfOpen((*out)[k].pt, dims)) ++owners;
      }
      if (owners != 1) {
        return CorruptionAt(pid, "compact-replica: record boxes do not "
                                 "tile the node scope");
      }
    }
    info->depth = 0;  // mixed-depth forests: BA depth is not audited here
    return Status::OK();
  }

  BufferPool* pool_;
  int dims_;
  PageId root_;
  std::shared_ptr<const Cache> cache_;
};

}  // namespace boxagg

#endif  // BOXAGG_REPLICA_COMPACT_REPLICA_H_
