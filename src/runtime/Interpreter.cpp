#include "runtime/Interpreter.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "dialects/cam/CamDialect.h"
#include "dialects/cim/CimDialect.h"
#include "dialects/torch/TorchDialect.h"
#include "runtime/HostKernels.h"
#include "runtime/OpSupport.h"
#include "support/Error.h"
#include "support/StringUtils.h"

namespace c4cam::rt {

using namespace ir;
namespace camd = c4cam::dialects::cam;
namespace cimd = c4cam::dialects::cim;
namespace torchd = c4cam::dialects::torch;

//
// ExecutionState
//

RtValue
ExecutionState::get(Value *value) const
{
    auto it = env_.find(value);
    C4CAM_ASSERT(it != env_.end(), "use of unevaluated SSA value");
    return it->second;
}

void
ExecutionState::set(Value *value, RtValue rt_value)
{
    env_[value] = std::move(rt_value);
}

ExecutionState
ExecutionState::forkForReplica(sim::CamDevice *device) const
{
    ExecutionState fork(device);
    fork.env_ = env_;
    fork.nextCimHandle_ = nextCimHandle_;
    return fork;
}

//
// Host tensor kernels live in runtime/HostKernels.h, shared with the
// execution-plan replay engine so the two back ends cannot drift.
//

using host::matmul;
using host::normLastDim;
using host::subBroadcast;
using host::topk;
using host::transpose2d;

namespace {

/**
 * One in-flight execution: borrows the (shared, read-only) module and
 * one (exclusively owned) ExecutionState. Constructed on the stack per
 * callFunction call, so concurrent executions never share mutable
 * interpreter state.
 */
class Executor
{
  public:
    using ExecPhase = Interpreter::ExecPhase;

    Executor(ExecutionState &state) : state_(state) {}

    std::vector<RtValue> runTopLevel(Block &block, ExecPhase phase);

  private:
    RtValue get(Value *value) const { return state_.get(value); }
    void set(Value *value, RtValue v) { state_.set(value, std::move(v)); }
    sim::CamDevice *device() const { return state_.device(); }

    /**
     * Run all ops of @p block. @return the operands of the terminator
     * (func.return / scf.yield / cim.yield) or empty.
     */
    std::vector<RtValue> runBlock(Block &block);

    /** True when every operand of @p op has a value in the env. */
    bool operandsReady(Operation *op) const;

    void runOp(Operation *op);

    /// @name Dialect-specific handlers
    /// @{
    void runArith(Operation *op);
    void runScf(Operation *op);
    void runMemRef(Operation *op);
    void runTensorOp(Operation *op);
    void runTorch(Operation *op);
    void runCim(Operation *op);
    void runCam(Operation *op);
    /// @}

    /** Resolve static+dynamic offset/size lists of slicing ops. */
    void resolveSlice(Operation *op, std::vector<std::int64_t> &offsets,
                      std::vector<std::int64_t> &sizes);

    ExecutionState &state_;
    /** A strided cam.search query view gathered into floats. */
    std::vector<float> queryScratch_;
};

bool
Executor::operandsReady(Operation *op) const
{
    for (std::size_t i = 0; i < op->numOperands(); ++i)
        if (!state_.has(op->operand(i)))
            return false;
    return true;
}

std::vector<RtValue>
Executor::runTopLevel(Block &block, ExecPhase phase)
{
    for (Operation *op : block.opVector()) {
        const std::string &name = op->name();
        if (name == kReturnOpName || name == "scf.yield" ||
            name == cimd::kYield) {
            if (phase == ExecPhase::SetupOnly)
                return {};
            std::vector<RtValue> results;
            for (std::size_t i = 0; i < op->numOperands(); ++i)
                results.push_back(get(op->operand(i)));
            return results;
        }
        if (phase == ExecPhase::SetupOnly) {
            // Skip the query body and anything downstream of it
            // (untagged ops whose operands have not been evaluated).
            if (op->strAttrOr(camd::kPhaseAttr, "") == camd::kPhaseQuery ||
                !operandsReady(op))
                continue;
        } else if (phase == ExecPhase::QueryOnly) {
            if (op->strAttrOr(camd::kPhaseAttr, "") == camd::kPhaseSetup)
                continue;
        }
        runOp(op);
    }
    return {};
}

std::vector<RtValue>
Executor::runBlock(Block &block)
{
    return runTopLevel(block, ExecPhase::Full);
}

void
Executor::runOp(Operation *op)
{
    std::string dialect = op->dialect();
    if (dialect == "arith" || dialect == "math") {
        runArith(op);
    } else if (dialect == "scf") {
        runScf(op);
    } else if (dialect == "memref") {
        runMemRef(op);
    } else if (dialect == "tensor" || dialect == "bufferization") {
        runTensorOp(op);
    } else if (dialect == "torch") {
        runTorch(op);
    } else if (dialect == "cim") {
        runCim(op);
    } else if (dialect == "cam") {
        runCam(op);
    } else {
        throwUnknownOp("interpreter", op);
    }
}

//
// arith
//

void
Executor::runArith(Operation *op)
{
    const std::string &name = op->name();
    if (name == "arith.constant") {
        const Attribute &value = op->attr("value");
        if (value.isInt())
            set(op->result(0), RtValue(value.asInt()));
        else if (value.isBool())
            set(op->result(0), RtValue(std::int64_t(value.asBool())));
        else
            set(op->result(0), RtValue(value.asFloat()));
        return;
    }
    if (name == "arith.index_cast" || name == "arith.fptosi") {
        set(op->result(0),
            RtValue(static_cast<std::int64_t>(get(op->operand(0))
                                                   .asFloat())));
        return;
    }
    if (name == "arith.sitofp") {
        set(op->result(0), RtValue(get(op->operand(0)).asFloat()));
        return;
    }
    if (name == "math.sqrt") {
        set(op->result(0),
            RtValue(std::sqrt(get(op->operand(0)).asFloat())));
        return;
    }
    if (name == "arith.select") {
        bool cond = get(op->operand(0)).asInt() != 0;
        set(op->result(0), get(op->operand(cond ? 1 : 2)));
        return;
    }
    if (name == "arith.cmpi") {
        std::int64_t a = get(op->operand(0)).asInt();
        std::int64_t b = get(op->operand(1)).asInt();
        std::string pred = op->strAttr("predicate");
        bool r = false;
        if (pred == "eq")
            r = a == b;
        else if (pred == "ne")
            r = a != b;
        else if (pred == "slt")
            r = a < b;
        else if (pred == "sle")
            r = a <= b;
        else if (pred == "sgt")
            r = a > b;
        else if (pred == "sge")
            r = a >= b;
        else
            C4CAM_USER_ERROR("unknown cmpi predicate '" << pred << "'");
        set(op->result(0), RtValue(std::int64_t(r)));
        return;
    }
    if (name == "arith.cmpf") {
        double a = get(op->operand(0)).asFloat();
        double b = get(op->operand(1)).asFloat();
        std::string pred = op->strAttrOr("predicate", "olt");
        bool r = false;
        if (pred == "olt")
            r = a < b;
        else if (pred == "ole")
            r = a <= b;
        else if (pred == "ogt")
            r = a > b;
        else if (pred == "oge")
            r = a >= b;
        else if (pred == "oeq")
            r = a == b;
        else
            C4CAM_USER_ERROR("unknown cmpf predicate '" << pred << "'");
        set(op->result(0), RtValue(std::int64_t(r)));
        return;
    }

    // Integer binary ops.
    auto ibin = [&](auto fn) {
        std::int64_t a = get(op->operand(0)).asInt();
        std::int64_t b = get(op->operand(1)).asInt();
        set(op->result(0), RtValue(std::int64_t(fn(a, b))));
    };
    auto fbin = [&](auto fn) {
        double a = get(op->operand(0)).asFloat();
        double b = get(op->operand(1)).asFloat();
        set(op->result(0), RtValue(double(fn(a, b))));
    };
    if (name == "arith.addi")
        return ibin([](auto a, auto b) { return a + b; });
    if (name == "arith.subi")
        return ibin([](auto a, auto b) { return a - b; });
    if (name == "arith.muli")
        return ibin([](auto a, auto b) { return a * b; });
    if (name == "arith.divsi")
        return ibin([](auto a, auto b) {
            C4CAM_CHECK(b != 0, "division by zero in arith.divsi");
            return a / b;
        });
    if (name == "arith.remsi")
        return ibin([](auto a, auto b) {
            C4CAM_CHECK(b != 0, "division by zero in arith.remsi");
            return a % b;
        });
    if (name == "arith.minsi")
        return ibin([](auto a, auto b) { return std::min(a, b); });
    if (name == "arith.maxsi")
        return ibin([](auto a, auto b) { return std::max(a, b); });
    if (name == "arith.addf")
        return fbin([](auto a, auto b) { return a + b; });
    if (name == "arith.subf")
        return fbin([](auto a, auto b) { return a - b; });
    if (name == "arith.mulf")
        return fbin([](auto a, auto b) { return a * b; });
    if (name == "arith.divf")
        return fbin([](auto a, auto b) { return a / b; });
    if (name == "arith.minimumf")
        return fbin([](auto a, auto b) { return std::min(a, b); });
    if (name == "arith.maximumf")
        return fbin([](auto a, auto b) { return std::max(a, b); });
    throwUnknownOp("interpreter", op);
}

//
// scf
//

void
Executor::runScf(Operation *op)
{
    const std::string &name = op->name();
    if (name == "scf.for") {
        std::int64_t lb = get(op->operand(0)).asInt();
        std::int64_t ub = get(op->operand(1)).asInt();
        std::int64_t step = get(op->operand(2)).asInt();
        C4CAM_CHECK(step > 0, "scf.for requires a positive step");
        Block &body = op->region(0).front();
        std::size_t num_iters = op->numOperands() - 3;

        std::vector<RtValue> carried;
        for (std::size_t i = 0; i < num_iters; ++i)
            carried.push_back(get(op->operand(3 + i)));

        if (device())
            device()->timing().beginScope(/*parallel=*/false);
        for (std::int64_t iv = lb; iv < ub; iv += step) {
            set(body.argument(0), RtValue(iv));
            for (std::size_t i = 0; i < num_iters; ++i)
                set(body.argument(1 + i), carried[i]);
            std::vector<RtValue> yielded = runBlock(body);
            C4CAM_CHECK(yielded.size() == num_iters,
                        "scf.for yield arity mismatch");
            carried = std::move(yielded);
        }
        if (device())
            device()->timing().endScope();
        for (std::size_t i = 0; i < num_iters; ++i)
            set(op->result(i), carried[i]);
        return;
    }
    if (name == "scf.parallel") {
        std::int64_t lb = get(op->operand(0)).asInt();
        std::int64_t ub = get(op->operand(1)).asInt();
        std::int64_t step = get(op->operand(2)).asInt();
        C4CAM_CHECK(step > 0, "scf.parallel requires a positive step");
        Block &body = op->region(0).front();
        if (device())
            device()->timing().beginScope(/*parallel=*/true);
        for (std::int64_t iv = lb; iv < ub; iv += step) {
            set(body.argument(0), RtValue(iv));
            if (device())
                device()->timing().beginScope(/*parallel=*/false);
            runBlock(body);
            if (device())
                device()->timing().endScope();
        }
        if (device())
            device()->timing().endScope();
        return;
    }
    if (name == "scf.if") {
        bool cond = get(op->operand(0)).asInt() != 0;
        if (cond)
            runBlock(op->region(0).front());
        return;
    }
    throwUnknownOp("interpreter", op);
}

//
// memref
//

void
Executor::resolveSlice(Operation *op, std::vector<std::int64_t> &offsets,
                       std::vector<std::int64_t> &sizes)
{
    offsets = op->attr("static_offsets").asIntArray();
    sizes = op->attr("static_sizes").asIntArray();
    // Dynamic entries (-1) consume trailing index operands: first the
    // dynamic offsets in order, then the dynamic sizes.
    std::size_t operand_idx = 1;
    for (auto &offset : offsets) {
        if (offset == -1) {
            C4CAM_CHECK(operand_idx < op->numOperands(),
                        "missing dynamic offset operand");
            offset = get(op->operand(operand_idx++)).asInt();
        }
    }
    for (auto &size : sizes) {
        if (size == -1) {
            C4CAM_CHECK(operand_idx < op->numOperands(),
                        "missing dynamic size operand");
            size = get(op->operand(operand_idx++)).asInt();
        }
    }
}

void
Executor::runMemRef(Operation *op)
{
    const std::string &name = op->name();
    if (name == "memref.alloc") {
        Type t = op->result(0)->type();
        DType dtype = t.elementType().isInteger() || t.elementType().isIndex()
                          ? DType::I64
                          : DType::F32;
        set(op->result(0), RtValue(Buffer::alloc(dtype, t.shape())));
        return;
    }
    if (name == "memref.dealloc") {
        return; // storage is reference-counted
    }
    if (name == "memref.copy") {
        // Element-count preserving copy; shapes may differ (e.g. 1xN
        // row views vs N vectors).
        host::copyInto(get(op->operand(0)).asBuffer(),
                       get(op->operand(1)).asBuffer(), "memref.copy");
        return;
    }
    if (name == "memref.subview") {
        std::vector<std::int64_t> offsets;
        std::vector<std::int64_t> sizes;
        resolveSlice(op, offsets, sizes);
        BufferPtr src = get(op->operand(0)).asBuffer();
        set(op->result(0), RtValue(src->subview(offsets, sizes)));
        return;
    }
    if (name == "memref.load") {
        BufferPtr src = get(op->operand(0)).asBuffer();
        std::vector<std::int64_t> index;
        for (std::size_t i = 1; i < op->numOperands(); ++i)
            index.push_back(get(op->operand(i)).asInt());
        if (op->result(0)->type().isFloat())
            set(op->result(0), RtValue(src->at(index)));
        else
            set(op->result(0), RtValue(src->atInt(index)));
        return;
    }
    if (name == "memref.store") {
        RtValue value = get(op->operand(0));
        BufferPtr dst = get(op->operand(1)).asBuffer();
        std::vector<std::int64_t> index;
        for (std::size_t i = 2; i < op->numOperands(); ++i)
            index.push_back(get(op->operand(i)).asInt());
        host::storeElement(*dst, index, value);
        return;
    }
    throwUnknownOp("interpreter", op);
}

//
// tensor + bufferization
//

void
Executor::runTensorOp(Operation *op)
{
    const std::string &name = op->name();
    if (name == "tensor.extract_slice") {
        std::vector<std::int64_t> offsets;
        std::vector<std::int64_t> sizes;
        resolveSlice(op, offsets, sizes);
        BufferPtr src = get(op->operand(0)).asBuffer();
        set(op->result(0), RtValue(src->subview(offsets, sizes)));
        return;
    }
    if (name == "tensor.empty") {
        Type t = op->result(0)->type();
        set(op->result(0), RtValue(Buffer::alloc(DType::F32, t.shape())));
        return;
    }
    if (name == "bufferization.to_memref" ||
        name == "bufferization.to_tensor") {
        set(op->result(0), get(op->operand(0)));
        return;
    }
    throwUnknownOp("interpreter", op);
}

//
// torch
//

void
Executor::runTorch(Operation *op)
{
    const std::string &name = op->name();
    if (name == torchd::kTranspose) {
        set(op->result(0),
            RtValue(transpose2d(get(op->operand(0)).asBuffer())));
        return;
    }
    if (name == torchd::kMm || name == torchd::kMatmul) {
        set(op->result(0), RtValue(matmul(get(op->operand(0)).asBuffer(),
                                          get(op->operand(1)).asBuffer())));
        return;
    }
    if (name == torchd::kSub) {
        set(op->result(0),
            RtValue(subBroadcast(get(op->operand(0)).asBuffer(),
                                 get(op->operand(1)).asBuffer())));
        return;
    }
    if (name == torchd::kDiv) {
        set(op->result(0),
            RtValue(host::elementwiseDiv(get(op->operand(0)).asBuffer(),
                                         get(op->operand(1)).asBuffer())));
        return;
    }
    if (name == torchd::kNorm) {
        int p = static_cast<int>(op->intAttrOr("p", 2));
        set(op->result(0),
            RtValue(normLastDim(get(op->operand(0)).asBuffer(), p)));
        return;
    }
    if (name == torchd::kTopk) {
        auto [values, indices] =
            topk(get(op->operand(0)).asBuffer(), op->intAttr("k"),
                 op->boolAttrOr("largest", true));
        set(op->result(0), RtValue(values));
        set(op->result(1), RtValue(indices));
        return;
    }
    throwUnknownOp("interpreter", op);
}

//
// cim
//

void
Executor::runCim(Operation *op)
{
    const std::string &name = op->name();
    if (name == cimd::kAcquire) {
        set(op->result(0), RtValue(state_.takeCimHandle()));
        return;
    }
    if (name == cimd::kRelease) {
        return;
    }
    if (name == cimd::kExecute) {
        // The body uses captured outer SSA values directly.
        std::vector<RtValue> yielded = runBlock(op->region(0).front());
        C4CAM_CHECK(yielded.size() == op->numResults(),
                    "cim.execute yield arity mismatch");
        for (std::size_t i = 0; i < yielded.size(); ++i)
            set(op->result(i), yielded[i]);
        return;
    }
    if (name == cimd::kTranspose) {
        set(op->result(0),
            RtValue(transpose2d(get(op->operand(0)).asBuffer())));
        return;
    }
    if (name == cimd::kMatmul) {
        set(op->result(0), RtValue(matmul(get(op->operand(0)).asBuffer(),
                                          get(op->operand(1)).asBuffer())));
        return;
    }
    if (name == cimd::kSub) {
        set(op->result(0),
            RtValue(subBroadcast(get(op->operand(0)).asBuffer(),
                                 get(op->operand(1)).asBuffer())));
        return;
    }
    if (name == cimd::kNorm) {
        int p = static_cast<int>(op->intAttrOr("p", 2));
        set(op->result(0),
            RtValue(normLastDim(get(op->operand(0)).asBuffer(), p)));
        return;
    }
    if (name == cimd::kDiv) {
        // 2-operand: elementwise; 3-operand (cosine): m / (qn x sn).
        BufferPtr m = get(op->operand(0)).asBuffer();
        if (op->numOperands() == 2) {
            set(op->result(0),
                RtValue(host::elementwiseDiv(
                    m, get(op->operand(1)).asBuffer())));
            return;
        }
        set(op->result(0),
            RtValue(host::cosineDiv(m, get(op->operand(1)).asBuffer(),
                                    get(op->operand(2)).asBuffer())));
        return;
    }
    if (name == cimd::kTopk) {
        std::int64_t k = op->numOperands() >= 2
                             ? get(op->operand(1)).asInt()
                             : op->intAttr("k");
        bool largest = op->boolAttrOr("largest", false);
        auto [values, indices] =
            topk(get(op->operand(0)).asBuffer(), k, largest);
        set(op->result(0), RtValue(values));
        set(op->result(1), RtValue(indices));
        if (device()) {
            std::int64_t inner = get(op->operand(0)).asBuffer()
                                     ->shape().back();
            device()->postMerge(static_cast<int>(inner));
        }
        return;
    }
    if (name == cimd::kSimilarity) {
        BufferPtr stored = get(op->operand(0)).asBuffer();
        BufferPtr query = get(op->operand(1)).asBuffer();
        std::string metric = op->strAttr("metric");
        bool partial = op->boolAttrOr("partial", false);

        // Scores: QxN matrix of dot products or (squared) distances.
        BufferPtr scores;
        bool largest = false;
        if (metric == cimd::kMetricDot) {
            scores = matmul(query, transpose2d(stored));
            largest = true;
        } else if (metric == cimd::kMetricEucl) {
            scores = normLastDim(subBroadcast(query, stored), 2);
            largest = false;
        } else { // cosine
            BufferPtr dots = matmul(query, transpose2d(stored));
            BufferPtr qn = normLastDim(query, 2);
            BufferPtr sn = normLastDim(stored, 2);
            scores = Buffer::alloc(DType::F32, dots->shape());
            for (std::int64_t q = 0; q < dots->shape()[0]; ++q)
                for (std::int64_t n = 0; n < dots->shape()[1]; ++n)
                    scores->set({q, n},
                                dots->at({q, n}) /
                                    (qn->at({q}) * sn->at({n}) + 1e-12));
            largest = true;
        }
        if (partial) {
            // Partial similarities: raw score matrix, indices are row ids.
            auto indices = Buffer::alloc(DType::I64, scores->shape());
            for (std::int64_t q = 0; q < scores->shape()[0]; ++q)
                for (std::int64_t n = 0; n < scores->shape()[1]; ++n)
                    indices->setInt({q, n}, n);
            set(op->result(0), RtValue(scores));
            set(op->result(1), RtValue(indices));
            return;
        }
        std::int64_t k = op->numOperands() >= 3
                             ? get(op->operand(2)).asInt()
                             : op->intAttrOr("k", 1);
        auto [values, indices] = topk(scores, k, largest);
        set(op->result(0), RtValue(values));
        set(op->result(1), RtValue(indices));
        return;
    }
    if (name == cimd::kMergePartial) {
        // (handle, acc, partial) -> acc + partial, elementwise.
        set(op->result(0),
            RtValue(host::elementwiseAdd(get(op->operand(1)).asBuffer(),
                                         get(op->operand(2)).asBuffer())));
        return;
    }
    throwUnknownOp("interpreter", op);
}

//
// cam
//

void
Executor::runCam(Operation *op)
{
    C4CAM_CHECK(device(), "cam ops require an attached CAM simulator");
    const std::string &name = op->name();
    if (name == camd::kAllocBank) {
        std::int64_t rows = get(op->operand(0)).asInt();
        std::int64_t cols = get(op->operand(1)).asInt();
        set(op->result(0),
            RtValue(device()->allocBank(static_cast<int>(rows),
                                        static_cast<int>(cols))));
        return;
    }
    if (name == camd::kAllocMat) {
        set(op->result(0),
            RtValue(device()->allocMat(get(op->operand(0)).asInt())));
        return;
    }
    if (name == camd::kAllocArray) {
        set(op->result(0),
            RtValue(device()->allocArray(get(op->operand(0)).asInt())));
        return;
    }
    if (name == camd::kAllocSubarray) {
        set(op->result(0),
            RtValue(device()->allocSubarray(get(op->operand(0)).asInt())));
        return;
    }
    if (name == camd::kGetSubarray) {
        set(op->result(0),
            RtValue(device()->subarrayAt(get(op->operand(0)).asInt(),
                                         get(op->operand(1)).asInt(),
                                         get(op->operand(2)).asInt(),
                                         get(op->operand(3)).asInt())));
        return;
    }
    if (name == camd::kWriteValue) {
        sim::Handle sub = get(op->operand(0)).asInt();
        BufferPtr data = get(op->operand(1)).asBuffer();
        int row_offset =
            static_cast<int>(op->intAttrOr("row_offset", 0));
        device()->writeValue(sub, data->toMatrix(), row_offset);
        return;
    }
    if (name == camd::kSearch) {
        sim::Handle sub = get(op->operand(0)).asInt();
        BufferPtr query = get(op->operand(1)).asBuffer();
        std::string kind_str = op->strAttr("kind");
        arch::SearchKind kind = kind_str == camd::kKindExact
                                    ? arch::SearchKind::Exact
                                : kind_str == camd::kKindBest
                                    ? arch::SearchKind::Best
                                    : arch::SearchKind::Range;
        bool euclidean = op->strAttr("metric") == camd::kMetricEucl;
        double threshold = 0.0;
        if (const Attribute *thr = op->findAttr("threshold"))
            threshold = thr->asFloat();
        int row_begin = static_cast<int>(op->intAttrOr("row_begin", -1));
        int row_end = static_cast<int>(op->intAttrOr("row_end", -1));
        if (op->numOperands() >= 4) {
            row_begin = static_cast<int>(get(op->operand(2)).asInt());
            row_end = static_cast<int>(get(op->operand(3)).asInt());
        }
        bool selective = op->boolAttrOr("selective", false);
        device()->search(sub, query->elements<float>(queryScratch_), kind,
                         euclidean, row_begin, row_end, threshold,
                         selective);
        return;
    }
    if (name == camd::kRead) {
        sim::Handle sub = get(op->operand(0)).asInt();
        const sim::SearchResult &result = device()->read(sub);
        std::int64_t n = static_cast<std::int64_t>(result.values.size());
        auto values = Buffer::alloc(DType::F32, {n});
        auto indices = Buffer::alloc(DType::I64, {n});
        std::copy(result.values.begin(), result.values.end(),
                  values->denseElements<float>().begin());
        std::copy(result.indices.begin(), result.indices.end(),
                  indices->denseElements<std::int64_t>().begin());
        set(op->result(0), RtValue(values));
        set(op->result(1), RtValue(indices));
        return;
    }
    if (name == camd::kMergePartialSubarray) {
        // (sub, acc, partial): acc += partial, flattened elementwise.
        BufferPtr acc = get(op->operand(1)).asBuffer();
        host::addInto(acc, get(op->operand(2)).asBuffer(),
                      "cam.merge_partial_subarray");
        device()->postMerge(static_cast<int>(acc->numElements()));
        set(op->result(0), get(op->operand(1)));
        return;
    }
    throwUnknownOp("interpreter", op);
}

} // namespace

//
// Interpreter
//

Interpreter::Interpreter(Module &module, sim::CamDevice *device)
    : module_(module), state_(device)
{}

std::vector<RtValue>
Interpreter::callFunction(const std::string &name,
                          const std::vector<RtValue> &args, ExecPhase phase)
{
    return callFunction(state_, name, args, phase);
}

std::vector<RtValue>
Interpreter::callFunction(ExecutionState &state, const std::string &name,
                          const std::vector<RtValue> &args,
                          ExecPhase phase) const
{
    Operation *func = module_.lookupFunction(name);
    C4CAM_CHECK(func, "no function named '" << name << "' in module");
    Block *body = &func->region(0).front();
    C4CAM_CHECK(body->numArguments() == args.size(),
                "function '" << name << "' takes " << body->numArguments()
                << " arguments, got " << args.size());
    for (std::size_t i = 0; i < args.size(); ++i)
        state.set(body->argument(i), args[i]);
    if (phase != ExecPhase::Full && !camd::hasPhaseMarkers(func)) {
        // No setup phase: the whole function is the query.
        if (phase == ExecPhase::SetupOnly)
            return {};
        phase = ExecPhase::Full;
    }
    Executor exec(state);
    return exec.runTopLevel(*body, phase);
}

} // namespace c4cam::rt
