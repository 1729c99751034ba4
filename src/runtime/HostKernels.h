#ifndef C4CAM_RUNTIME_HOSTKERNELS_H
#define C4CAM_RUNTIME_HOSTKERNELS_H

/**
 * @file
 * Host tensor kernels shared by the tree-walking interpreter and the
 * execution-plan replay engine.
 *
 * These implement the functional semantics of the torch/cim tensor ops
 * (the paper's host reference path). They are pure functions of their
 * inputs -- safe to call from any thread -- and both execution back
 * ends dispatch into the same implementations, so the plan replay
 * cannot drift numerically from the tree walk. Arithmetic is done in
 * double and rounded to float where it is stored into an F32 output,
 * as an f32 memref would hold it.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/Buffer.h"

namespace c4cam::rt::host {

/** Transpose of a rank-2 tensor. */
BufferPtr transpose2d(const BufferPtr &in);

/** Rank-2 matrix product (f32 accumulate in double). */
BufferPtr matmul(const BufferPtr &a, const BufferPtr &b);

/**
 * Elementwise subtraction with the KNN broadcast form:
 * same-shape a-b, or (QxD) - (NxD) -> QxNxD.
 */
BufferPtr subBroadcast(const BufferPtr &a, const BufferPtr &b);

/** Elementwise division of two same-element-count tensors. */
BufferPtr elementwiseDiv(const BufferPtr &a, const BufferPtr &b);

/** L-p norm (p in {1, 2}) over the last dimension. */
BufferPtr normLastDim(const BufferPtr &in, int p);

/**
 * Top-k along the last dim, stable (ties keep the lower index).
 * @return {values (F32), indices (I64)}.
 */
std::pair<BufferPtr, BufferPtr> topk(const BufferPtr &in, std::int64_t k,
                                     bool largest);

/**
 * Fresh I64 buffer: every element of @p in plus @p offset, exact in
 * int64 (an F32 @p in converts like Buffer::atInt first).
 */
BufferPtr offsetIndices(const BufferPtr &in, std::int64_t offset);

/** Elementwise sum of two same-element-count tensors (merge partial). */
BufferPtr elementwiseAdd(const BufferPtr &a, const BufferPtr &b);

/** Cosine renormalization: m[q][n] / (qn[q] * sn[n] + 1e-12). */
BufferPtr cosineDiv(const BufferPtr &m, const BufferPtr &qn,
                    const BufferPtr &sn);

/**
 * Element-count-preserving copy of @p src into @p dst (shapes may
 * differ, e.g. 1xN row views vs N vectors; a same-dtype dense copy is
 * one block copy). @p what names the op for the size-mismatch
 * diagnostic.
 */
void copyInto(const BufferPtr &src, const BufferPtr &dst,
              const char *what = "memref.copy");

/**
 * memref.store of @p value into @p dst at @p index: an integer value
 * is stored exactly (setInt), a float one rounds on store (set).
 */
void storeElement(Buffer &dst, const std::vector<std::int64_t> &index,
                  const RtValue &value);

/**
 * In-place elementwise accumulate @p partial into @p acc (flattened,
 * row-major over acc's shape). @p what names the op for diagnostics.
 */
void addInto(const BufferPtr &acc, const BufferPtr &partial,
             const char *what = "cam.merge_partial_subarray");

} // namespace c4cam::rt::host

#endif // C4CAM_RUNTIME_HOSTKERNELS_H
