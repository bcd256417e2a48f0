// The storage stack a boxagg_cli user gets, built from public calls only:
//
//   FilePageFile -> BagFile -> BufferPool -> BoxSumIndex<Index>
//
// and, for the traced run, the same stack with forwarding wrappers spliced
// in at each layer boundary:
//
//   FilePageFile -> PhysicalTraceFile -> BagFile -> LogicalTraceFile
//                -> BufferPool -> BoxSumIndex<TracedIndex<Index>>
//
// The wrappers time every call they forward (trace.h) and change nothing
// else: same allocation sequence, same page images, same I/O counts. The
// benchmark proves the last point by comparing BufferPool::stats() deltas
// between the two runs.

#ifndef BOXBENCH_STACK_H_
#define BOXBENCH_STACK_H_

#include <unistd.h>

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "core/bag_file.h"
#include "core/box_sum_index.h"
#include "replica/compact_replica.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "trace.h"

namespace boxbench {

using boxagg::BagFile;
using boxagg::BufferPool;
using boxagg::FilePageFile;
using boxagg::Page;
using boxagg::PageFile;
using boxagg::PageId;
using boxagg::Status;

/// Physical layer probe, between BagFile and the file: times preads
/// (with the CRC32C envelope check), pwrites, fsyncs and file growth.
///
/// Allocation state (page count, free list) lives in this wrapper, with the
/// base-class logic BagFile would otherwise run on the file itself; Extend
/// grows the inner file page by page. That keeps the non-virtual accessors
/// BagFile reads (page_count, free_list, SetFreeList) coherent while the
/// allocation sequence stays identical to the unwrapped stack.
class PhysicalTraceFile final : public PageFile {
 public:
  explicit PhysicalTraceFile(PageFile* inner)
      : PageFile(inner->page_size()), inner_(inner) {
    page_count_ = inner->page_count();
    SetFreeList(inner->free_list());
  }

  Status ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) override {
    ScopedSpan s(SpanName::kStorageRead);
    return inner_->ReadPageEx(id, page, epoch_out);
  }
  Status WritePage(PageId id, const Page& page) override {
    ScopedSpan s(SpanName::kStorageWrite);
    inner_->set_write_epoch(write_epoch());  // BagFile stamps epochs on us
    return inner_->WritePage(id, page);
  }
  Status Sync() override {
    ScopedSpan s(SpanName::kStorageSync);
    return inner_->Sync();
  }

 protected:
  Status Extend(uint64_t new_count) override {
    ScopedSpan s(SpanName::kStorageExtend);
    while (inner_->page_count() < new_count) {
      PageId id = boxagg::kInvalidPageId;
      BOXAGG_RETURN_NOT_OK(inner_->Allocate(&id));
    }
    return Status::OK();
  }

 private:
  PageFile* inner_;  // not owned
};

/// Logical layer probe, between BufferPool and BagFile: times the BagFile's
/// logical page reads (map lookup + epoch cross-check around the physical
/// read), writes (copy-on-write), allocation and frees.
class LogicalTraceFile final : public PageFile {
 public:
  explicit LogicalTraceFile(BagFile* bag)
      : PageFile(bag->page_size()), bag_(bag) {
    page_count_ = bag->page_count();
  }

  Status Allocate(PageId* out) override {
    ScopedSpan s(SpanName::kBagAlloc);
    Status st = bag_->Allocate(out);
    page_count_ = bag_->page_count();
    return st;
  }
  Status Free(PageId id) override {
    ScopedSpan s(SpanName::kBagFree);
    return bag_->Free(id);
  }
  Status ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) override {
    ScopedSpan s(SpanName::kBagRead);
    return bag_->ReadPageEx(id, page, epoch_out);
  }
  Status WritePage(PageId id, const Page& page) override {
    ScopedSpan s(SpanName::kBagWrite);
    return bag_->WritePage(id, page);
  }
  Status Sync() override {
    ScopedSpan s(SpanName::kBagSync);
    return bag_->Sync();
  }

 protected:
  Status Extend(uint64_t) override {
    return Status::InvalidArgument("LogicalTraceFile forwards Allocate");
  }

 private:
  BagFile* bag_;  // not owned
};

/// Span names of the index layer each backend belongs to.
template <class Inner>
struct IndexSpans;
template <>
struct IndexSpans<boxagg::PackedBaTree<double>> {
  static constexpr SpanName kDescent = SpanName::kBatreeDescent;
  static constexpr SpanName kInsert = SpanName::kBatreeInsert;
  static constexpr SpanName kBulkLoad = SpanName::kBatreeBulkLoad;
};
template <>
struct IndexSpans<boxagg::CompactReplica<double>> {
  static constexpr SpanName kDescent = SpanName::kReplicaDescent;
};

/// Forwarding dominance-sum Index for BoxSumIndex<>: times the calls the
/// corner transform makes into one sign index. The probe count of each
/// batched descent is the span's arg.
template <class Inner>
class TracedIndex {
 public:
  using Entry = boxagg::PointEntry<double>;
  using Spans = IndexSpans<Inner>;

  explicit TracedIndex(Inner inner) : inner_(std::move(inner)) {}

  Status Insert(const boxagg::Point& p, const double& v) {
    ScopedSpan s(Spans::kInsert);
    return inner_.Insert(p, v);
  }
  Status DominanceSumBatch(const boxagg::Point* qs, size_t count,
                           double* outs) const {
    ScopedSpan s(Spans::kDescent, static_cast<uint32_t>(count));
    return inner_.DominanceSumBatch(qs, count, outs);
  }
  Status BulkLoad(std::vector<Entry> entries) {
    ScopedSpan s(Spans::kBulkLoad);
    return inner_.BulkLoad(std::move(entries));
  }
  Status Open() {
    ScopedSpan s(SpanName::kReplicaOpen);
    return inner_.Open();
  }
  Status PageCount(uint64_t* out) const { return inner_.PageCount(out); }
  Status Destroy() { return inner_.Destroy(); }
  [[nodiscard]] PageId root() const { return inner_.root(); }

  Inner& inner() { return inner_; }
  const Inner& inner() const { return inner_; }

 private:
  Inner inner_;
};

/// The backend type and its handle constructor for one run flavour.
template <bool kTraced, class Inner>
using IndexT = std::conditional_t<kTraced, TracedIndex<Inner>, Inner>;

template <class Inner>
const Inner& Raw(const Inner& idx) {
  return idx;
}
template <class Inner>
const Inner& Raw(const TracedIndex<Inner>& idx) {
  return idx.inner();
}

/// One on-disk index file and the layers above it. Destroying it closes
/// the file and removes it.
template <bool kTraced>
class Store {
 public:
  Store() = default;
  ~Store() {
    pool_.reset();
    logical_.reset();
    bag_.reset();
    phys_.reset();
    file_.reset();
    if (!path_.empty()) ::unlink(path_.c_str());
  }
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Creates `path` (truncating), an empty BagFile with `roots` roots over
  /// it, and a pool of `pool_pages` frames in `shards` shards.
  Status Create(const std::string& path, uint32_t page_size, uint32_t roots,
                size_t pool_pages, size_t shards) {
    path_ = path;
    BOXAGG_RETURN_NOT_OK(
        FilePageFile::Open(path, page_size, /*truncate=*/true, &file_));
    PageFile* under_bag = file_.get();
    if constexpr (kTraced) {
      phys_ = std::make_unique<PhysicalTraceFile>(file_.get());
      under_bag = phys_.get();
    }
    BOXAGG_RETURN_NOT_OK(BagFile::Create(under_bag, /*dims=*/2, roots, &bag_));
    PageFile* under_pool = bag_.get();
    if constexpr (kTraced) {
      logical_ = std::make_unique<LogicalTraceFile>(bag_.get());
      under_pool = logical_.get();
    }
    pool_ = std::make_unique<BufferPool>(under_pool, pool_pages, shards);
    return Status::OK();
  }

  /// FlushAll + Commit: publishes `roots` durably (3 fsyncs).
  Status Publish(const std::vector<PageId>& roots) {
    {
      MaybeSpan<kTraced> s(SpanName::kPoolFlushAll);
      BOXAGG_RETURN_NOT_OK(pool_->FlushAll());
    }
    MaybeSpan<kTraced> s(SpanName::kCoreCommit);
    return bag_->Commit(roots);
  }

  BufferPool* pool() { return pool_.get(); }
  BagFile* bag() { return bag_.get(); }
  FilePageFile* file() { return file_.get(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::unique_ptr<FilePageFile> file_;
  std::unique_ptr<PhysicalTraceFile> phys_;
  std::unique_ptr<BagFile> bag_;
  std::unique_ptr<LogicalTraceFile> logical_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace boxbench

#endif  // BOXBENCH_STACK_H_
