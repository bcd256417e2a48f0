// BatchQueryFn adapter: bridges a BoxSumIndex to the ParallelQueryExecutor's
// uniform `Status(const Box*, size_t, double*)` shape.
//
// The adapter captures a raw pointer to the index; the caller keeps the
// index (and its storage) alive for the lifetime of the returned function.
// The adapted call is a const-qualified read — safe to invoke from many
// executor workers at once over a sharded BufferPool.

#ifndef BOXAGG_EXEC_QUERY_ADAPTERS_H_
#define BOXAGG_EXEC_QUERY_ADAPTERS_H_

#include "core/box_sum_index.h"
#include "exec/parallel_executor.h"
#include "geom/box.h"

namespace boxagg {
namespace exec {

/// Batched box-sum over a corner-transform reduction (packed BA-tree,
/// ECDF-B-tree, compact replica — anything a BoxSumIndex wraps): one
/// QueryBatch call answers the whole span with corner dedup and sorted
/// multi-probe descents. Pair with ParallelQueryExecutor::RunBatchGrouped.
template <class Index>
BatchQueryFn BoxSumBatchQueryFn(const BoxSumIndex<Index>* index) {
  return [index](const Box* qs, size_t count, double* out) {
    return index->QueryBatch(qs, count, out);
  };
}

}  // namespace exec
}  // namespace boxagg

#endif  // BOXAGG_EXEC_QUERY_ADAPTERS_H_
