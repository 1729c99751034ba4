#include "runtime/ExecutionPlan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iomanip>
#include <span>
#include <sstream>
#include <type_traits>
#include <unordered_set>

#include "dialects/cam/CamDialect.h"
#include "dialects/cim/CimDialect.h"
#include "dialects/torch/TorchDialect.h"
#include "ir/IR.h"
#include "ir/ValueNumbering.h"
#include "runtime/HostKernels.h"
#include "runtime/OpSupport.h"
#include "sim/CamDevice.h"
#include "support/Error.h"

namespace c4cam::rt {

using namespace ir;
namespace camd = c4cam::dialects::cam;
namespace cimd = c4cam::dialects::cim;
namespace torchd = c4cam::dialects::torch;

//
// Plan compiler
//

/**
 * Builds the per-phase instruction streams of one ExecutionPlan. The
 * builder mirrors Executor's semantics op for op: every runtime
 * decision the tree walk makes from strings/attributes is made here,
 * once, and baked into opcodes, slots and aux tables.
 */
class PlanBuilder
{
  public:
    using ExecPhase = ExecutionPlan::ExecPhase;

    PlanBuilder(ExecutionPlan &plan, Operation *func)
        : plan_(plan), vn_(ValueNumbering::forFunction(func)), func_(func)
    {
        plan_.numSlots_ = vn_.numSlots();
    }

    void
    build()
    {
        Block &body = func_->region(0).front();
        plan_.numArgs_ = body.numArguments();
        for (std::size_t i = 0; i < body.numArguments(); ++i)
            plan_.argSlots_.push_back(vn_.slot(body.argument(i)));
        plan_.phased_ = camd::hasPhaseMarkers(func_);

        // Without phase markers there is no setup: the setup program
        // stays empty and the query program is the whole function.
        if (plan_.phased_)
            compileTopLevel(body, ExecPhase::SetupOnly, plan_.setup_);
        compileTopLevel(body, ExecPhase::QueryOnly, plan_.query_);
    }

  private:
    static bool
    isTerminator(const std::string &name)
    {
        return name == kReturnOpName || name == "scf.yield" ||
               name == cimd::kYield;
    }

    /// @name Emission helpers
    /// @{
    std::int32_t pc() const
    {
        return static_cast<std::int32_t>(prog_->size());
    }

    Instr &
    emit(Opcode op)
    {
        prog_->push_back(Instr{});
        prog_->back().op = op;
        return prog_->back();
    }

    std::int32_t use(Operation *op, std::size_t i) const
    {
        return vn_.slot(op->operand(i));
    }
    std::int32_t def(Operation *op, std::size_t i = 0) const
    {
        return vn_.slot(op->result(i));
    }

    /** A scratch slot beyond the SSA numbering (loop yield temps). */
    std::int32_t
    newTemp()
    {
        return plan_.numSlots_++;
    }

    /** Append @p slot to @p inst's variadic operands (the pool keeps
     *  one instruction's operands contiguous: append them in a row). */
    void
    addExtra(Instr &inst, std::int32_t slot)
    {
        if (inst.extraCount == 0)
            inst.extraBegin =
                static_cast<std::int32_t>(plan_.operands_.size());
        plan_.operands_.push_back(slot);
        ++inst.extraCount;
    }

    void
    emitCopy(std::int32_t from, std::int32_t to)
    {
        Instr &i = emit(Opcode::Copy);
        i.a = from;
        i.r = to;
    }
    /// @}

    /**
     * Phase-filtered compilation of the function's top-level block,
     * mirroring Interpreter::runTopLevel: SetupOnly skips query-tagged
     * ops and anything (statically) downstream of them and ends at
     * the terminator; QueryOnly skips setup-tagged ops of a phased
     * function and compiles all of an unphased one.
     */
    void
    compileTopLevel(Block &block, ExecPhase phase,
                    std::vector<Instr> &program)
    {
        prog_ = &program;
        std::unordered_set<Value *> defined;
        for (std::size_t i = 0; i < block.numArguments(); ++i)
            defined.insert(block.argument(i));

        auto ready = [&defined](Operation *op) {
            for (std::size_t i = 0; i < op->numOperands(); ++i)
                if (!defined.count(op->operand(i)))
                    return false;
            return true;
        };

        for (Operation *op : block.opVector()) {
            if (isTerminator(op->name())) {
                if (phase == ExecPhase::SetupOnly)
                    return;
                Instr &ret = emit(Opcode::Return);
                for (std::size_t i = 0; i < op->numOperands(); ++i)
                    addExtra(ret, use(op, i));
                return;
            }
            if (phase == ExecPhase::SetupOnly) {
                // The dynamic operands-ready probe of the tree walk is
                // a deterministic dataflow property; resolve it here.
                if (op->strAttrOr(camd::kPhaseAttr, "") ==
                        camd::kPhaseQuery ||
                    !ready(op))
                    continue;
                for (std::size_t i = 0; i < op->numResults(); ++i)
                    defined.insert(op->result(i));
            } else if (plan_.phased_ &&
                       op->strAttrOr(camd::kPhaseAttr, "") ==
                           camd::kPhaseSetup) {
                continue;
            }
            emitOp(op);
        }
    }

    /**
     * Flatten @p block (nested: no phase filtering, like runBlock).
     * Stops at the first terminator and hands it to @p on_terminator;
     * hands nullptr when the block has none.
     */
    void
    flattenBlock(Block &block,
                 const std::function<void(Operation *)> &on_terminator)
    {
        for (Operation *op : block.opVector()) {
            if (isTerminator(op->name())) {
                on_terminator(op);
                return;
            }
            emitOp(op);
        }
        on_terminator(nullptr);
    }

    void
    emitOp(Operation *op)
    {
        std::string dialect = op->dialect();
        if (dialect == "arith" || dialect == "math") {
            emitArith(op);
        } else if (dialect == "scf") {
            emitScf(op);
        } else if (dialect == "memref") {
            emitMemRef(op);
        } else if (dialect == "tensor" || dialect == "bufferization") {
            emitTensorOp(op);
        } else if (dialect == "torch") {
            emitTorch(op);
        } else if (dialect == "cim") {
            emitCim(op);
        } else if (dialect == "cam") {
            emitCam(op);
        } else {
            throwUnknownOp("plan compiler", op);
        }
    }

    void
    emitArith(Operation *op)
    {
        const std::string &name = op->name();
        if (name == "arith.constant") {
            const Attribute &value = op->attr("value");
            if (value.isInt()) {
                Instr &i = emit(Opcode::ConstInt);
                i.imm = value.asInt();
                i.r = def(op);
            } else if (value.isBool()) {
                Instr &i = emit(Opcode::ConstInt);
                i.imm = static_cast<std::int64_t>(value.asBool());
                i.r = def(op);
            } else {
                Instr &i = emit(Opcode::ConstFloat);
                i.fimm = value.asFloat();
                i.r = def(op);
            }
            return;
        }
        auto unary = [&](Opcode opcode) {
            Instr &i = emit(opcode);
            i.a = use(op, 0);
            i.r = def(op);
        };
        auto binary = [&](Opcode opcode) {
            Instr &i = emit(opcode);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.r = def(op);
        };
        if (name == "arith.index_cast" || name == "arith.fptosi")
            return unary(Opcode::CastToInt);
        if (name == "arith.sitofp")
            return unary(Opcode::CastToFloat);
        if (name == "math.sqrt")
            return unary(Opcode::Sqrt);
        if (name == "arith.select") {
            Instr &i = emit(Opcode::Select);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.c = use(op, 2);
            i.r = def(op);
            return;
        }
        if (name == "arith.cmpi") {
            std::string pred = op->strAttr("predicate");
            CmpIPred p;
            if (pred == "eq")
                p = CmpIPred::Eq;
            else if (pred == "ne")
                p = CmpIPred::Ne;
            else if (pred == "slt")
                p = CmpIPred::Slt;
            else if (pred == "sle")
                p = CmpIPred::Sle;
            else if (pred == "sgt")
                p = CmpIPred::Sgt;
            else if (pred == "sge")
                p = CmpIPred::Sge;
            else
                C4CAM_USER_ERROR("unknown cmpi predicate '" << pred
                                 << "'");
            Instr &i = emit(Opcode::CmpI);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.r = def(op);
            i.imm = static_cast<std::int64_t>(p);
            return;
        }
        if (name == "arith.cmpf") {
            std::string pred = op->strAttrOr("predicate", "olt");
            CmpFPred p;
            if (pred == "olt")
                p = CmpFPred::Olt;
            else if (pred == "ole")
                p = CmpFPred::Ole;
            else if (pred == "ogt")
                p = CmpFPred::Ogt;
            else if (pred == "oge")
                p = CmpFPred::Oge;
            else if (pred == "oeq")
                p = CmpFPred::Oeq;
            else
                C4CAM_USER_ERROR("unknown cmpf predicate '" << pred
                                 << "'");
            Instr &i = emit(Opcode::CmpF);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.r = def(op);
            i.imm = static_cast<std::int64_t>(p);
            return;
        }
        if (name == "arith.addi")
            return binary(Opcode::AddI);
        if (name == "arith.subi")
            return binary(Opcode::SubI);
        if (name == "arith.muli")
            return binary(Opcode::MulI);
        if (name == "arith.divsi")
            return binary(Opcode::DivI);
        if (name == "arith.remsi")
            return binary(Opcode::RemI);
        if (name == "arith.minsi")
            return binary(Opcode::MinI);
        if (name == "arith.maxsi")
            return binary(Opcode::MaxI);
        if (name == "arith.addf")
            return binary(Opcode::AddF);
        if (name == "arith.subf")
            return binary(Opcode::SubF);
        if (name == "arith.mulf")
            return binary(Opcode::MulF);
        if (name == "arith.divf")
            return binary(Opcode::DivF);
        if (name == "arith.minimumf")
            return binary(Opcode::MinF);
        if (name == "arith.maximumf")
            return binary(Opcode::MaxF);
        throwUnknownOp("plan compiler", op);
    }

    void
    emitScf(Operation *op)
    {
        const std::string &name = op->name();
        if (name == "scf.for") {
            emitScfFor(op);
            return;
        }
        if (name == "scf.parallel") {
            emitScfParallel(op);
            return;
        }
        if (name == "scf.if") {
            Instr &br = emit(Opcode::BranchIfFalse);
            br.a = use(op, 0);
            std::int32_t br_idx = pc() - 1;
            flattenBlock(op->region(0).front(), [](Operation *) {
                // scf.yield inside an if body carries no control flow;
                // its operands are plain env reads in the tree walk.
            });
            (*prog_)[static_cast<std::size_t>(br_idx)].target = pc();
            return;
        }
        throwUnknownOp("plan compiler", op);
    }

    void
    emitScfFor(Operation *op)
    {
        std::int32_t lb = use(op, 0);
        std::int32_t ub = use(op, 1);
        std::int32_t step = use(op, 2);
        Block &body = op->region(0).front();
        std::size_t num_iters = op->numOperands() - 3;
        C4CAM_CHECK(body.numArguments() == 1 + num_iters,
                    "scf.for body arity mismatch");
        std::int32_t iv = vn_.slot(body.argument(0));

        Instr &chk = emit(Opcode::CheckPosStep);
        chk.a = step;
        chk.imm = 0;
        for (std::size_t i = 0; i < num_iters; ++i)
            emitCopy(use(op, 3 + i), vn_.slot(body.argument(1 + i)));
        emit(Opcode::BeginSeqScope);
        emitCopy(lb, iv);

        std::int32_t head = pc();
        Instr &exit_br = emit(Opcode::BranchIfGe);
        exit_br.a = iv;
        exit_br.b = ub;
        std::int32_t exit_idx = pc() - 1;

        flattenBlock(body, [&](Operation *term) {
            std::size_t yielded = term ? term->numOperands() : 0;
            C4CAM_CHECK(yielded == num_iters,
                        "scf.for yield arity mismatch");
            if (num_iters == 0)
                return;
            // Yields may permute the carried values; stage through
            // temps so sequential copies cannot clobber a source.
            std::vector<std::int32_t> temps;
            for (std::size_t i = 0; i < num_iters; ++i) {
                std::int32_t tmp = newTemp();
                temps.push_back(tmp);
                emitCopy(vn_.slot(term->operand(i)), tmp);
            }
            for (std::size_t i = 0; i < num_iters; ++i)
                emitCopy(temps[i], vn_.slot(body.argument(1 + i)));
        });

        Instr &inc = emit(Opcode::AddI);
        inc.a = iv;
        inc.b = step;
        inc.r = iv;
        Instr &back = emit(Opcode::Jump);
        back.target = head;
        (*prog_)[static_cast<std::size_t>(exit_idx)].target = pc();
        emit(Opcode::EndScope);
        for (std::size_t i = 0; i < num_iters; ++i)
            emitCopy(vn_.slot(body.argument(1 + i)), def(op, i));
    }

    void
    emitScfParallel(Operation *op)
    {
        std::int32_t lb = use(op, 0);
        std::int32_t ub = use(op, 1);
        std::int32_t step = use(op, 2);
        Block &body = op->region(0).front();
        std::int32_t iv = vn_.slot(body.argument(0));

        Instr &chk = emit(Opcode::CheckPosStep);
        chk.a = step;
        chk.imm = 1;
        emit(Opcode::BeginParScope);
        emitCopy(lb, iv);

        std::int32_t head = pc();
        Instr &exit_br = emit(Opcode::BranchIfGe);
        exit_br.a = iv;
        exit_br.b = ub;
        std::int32_t exit_idx = pc() - 1;

        emit(Opcode::BeginSeqScope);
        flattenBlock(body, [](Operation *) {});
        emit(Opcode::EndScope);

        Instr &inc = emit(Opcode::AddI);
        inc.a = iv;
        inc.b = step;
        inc.r = iv;
        Instr &back = emit(Opcode::Jump);
        back.target = head;
        (*prog_)[static_cast<std::size_t>(exit_idx)].target = pc();
        emit(Opcode::EndScope);
    }

    /** Decode the static_offsets/static_sizes + dynamic operand form. */
    std::int32_t
    addSliceSpec(Operation *op)
    {
        ExecutionPlan::SliceSpec spec;
        std::vector<std::int64_t> offsets =
            op->attr("static_offsets").asIntArray();
        std::vector<std::int64_t> sizes =
            op->attr("static_sizes").asIntArray();
        std::size_t operand_idx = 1;
        for (std::int64_t offset : offsets) {
            ExecutionPlan::SliceDim dim;
            if (offset == -1) {
                C4CAM_CHECK(operand_idx < op->numOperands(),
                            "missing dynamic offset operand");
                dim.slot = use(op, operand_idx++);
            } else {
                dim.imm = offset;
            }
            spec.offsets.push_back(dim);
        }
        for (std::int64_t size : sizes) {
            ExecutionPlan::SliceDim dim;
            if (size == -1) {
                C4CAM_CHECK(operand_idx < op->numOperands(),
                            "missing dynamic size operand");
                dim.slot = use(op, operand_idx++);
            } else {
                dim.imm = size;
            }
            spec.sizes.push_back(dim);
        }
        plan_.slices_.push_back(std::move(spec));
        return static_cast<std::int32_t>(plan_.slices_.size() - 1);
    }

    void
    emitMemRef(Operation *op)
    {
        const std::string &name = op->name();
        if (name == "memref.alloc") {
            Type t = op->result(0)->type();
            ExecutionPlan::ShapeSpec spec;
            spec.dtype =
                t.elementType().isInteger() || t.elementType().isIndex()
                    ? DType::I64
                    : DType::F32;
            spec.shape = t.shape();
            plan_.shapes_.push_back(std::move(spec));
            Instr &i = emit(Opcode::AllocBuf);
            i.aux = static_cast<std::int32_t>(plan_.shapes_.size() - 1);
            i.r = def(op);
            return;
        }
        if (name == "memref.dealloc")
            return; // storage is reference-counted
        if (name == "memref.copy") {
            Instr &i = emit(Opcode::CopyBuf);
            i.a = use(op, 0);
            i.b = use(op, 1);
            return;
        }
        if (name == "memref.subview") {
            Instr &i = emit(Opcode::Subview);
            i.aux = addSliceSpec(op);
            i.a = use(op, 0);
            i.r = def(op);
            return;
        }
        if (name == "memref.load") {
            Instr &i = emit(op->result(0)->type().isFloat()
                                ? Opcode::LoadF
                                : Opcode::LoadI);
            i.a = use(op, 0);
            for (std::size_t j = 1; j < op->numOperands(); ++j)
                addExtra(i, use(op, j));
            i.r = def(op);
            return;
        }
        if (name == "memref.store") {
            Instr &i = emit(Opcode::Store);
            i.a = use(op, 0);
            i.b = use(op, 1);
            for (std::size_t j = 2; j < op->numOperands(); ++j)
                addExtra(i, use(op, j));
            return;
        }
        throwUnknownOp("plan compiler", op);
    }

    void
    emitTensorOp(Operation *op)
    {
        const std::string &name = op->name();
        if (name == "tensor.extract_slice") {
            Instr &i = emit(Opcode::Subview);
            i.aux = addSliceSpec(op);
            i.a = use(op, 0);
            i.r = def(op);
            return;
        }
        if (name == "tensor.empty") {
            ExecutionPlan::ShapeSpec spec;
            spec.dtype = DType::F32;
            spec.shape = op->result(0)->type().shape();
            plan_.shapes_.push_back(std::move(spec));
            Instr &i = emit(Opcode::AllocBuf);
            i.aux = static_cast<std::int32_t>(plan_.shapes_.size() - 1);
            i.r = def(op);
            return;
        }
        if (name == "bufferization.to_memref" ||
            name == "bufferization.to_tensor") {
            emitCopy(use(op, 0), def(op));
            return;
        }
        throwUnknownOp("plan compiler", op);
    }

    void
    emitTorch(Operation *op)
    {
        const std::string &name = op->name();
        auto unary = [&](Opcode opcode) {
            Instr &i = emit(opcode);
            i.a = use(op, 0);
            i.r = def(op);
        };
        auto binary = [&](Opcode opcode) {
            Instr &i = emit(opcode);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.r = def(op);
        };
        if (name == torchd::kTranspose)
            return unary(Opcode::Transpose2d);
        if (name == torchd::kMm || name == torchd::kMatmul)
            return binary(Opcode::MatmulOp);
        if (name == torchd::kSub)
            return binary(Opcode::SubBroadcastOp);
        if (name == torchd::kDiv)
            return binary(Opcode::DivElem);
        if (name == torchd::kNorm) {
            Instr &i = emit(Opcode::NormOp);
            i.a = use(op, 0);
            i.r = def(op);
            i.imm = op->intAttrOr("p", 2);
            return;
        }
        if (name == torchd::kTopk) {
            ExecutionPlan::TopkSpec spec;
            spec.k = op->intAttr("k");
            spec.largest = op->boolAttrOr("largest", true);
            spec.postMergeCost = false;
            plan_.topks_.push_back(spec);
            Instr &i = emit(Opcode::TopkOp);
            i.aux = static_cast<std::int32_t>(plan_.topks_.size() - 1);
            i.a = use(op, 0);
            i.r = def(op, 0);
            i.r2 = def(op, 1);
            return;
        }
        throwUnknownOp("plan compiler", op);
    }

    void
    emitCim(Operation *op)
    {
        const std::string &name = op->name();
        if (name == cimd::kAcquire) {
            Instr &i = emit(Opcode::CimAcquire);
            i.r = def(op);
            return;
        }
        if (name == cimd::kRelease)
            return;
        if (name == cimd::kExecute) {
            // The body uses captured outer SSA values directly; the
            // yields become the execute op's results.
            flattenBlock(op->region(0).front(), [&](Operation *term) {
                std::size_t yielded = term ? term->numOperands() : 0;
                C4CAM_CHECK(yielded == op->numResults(),
                            "cim.execute yield arity mismatch");
                for (std::size_t i = 0; i < yielded; ++i)
                    emitCopy(vn_.slot(term->operand(i)), def(op, i));
            });
            return;
        }
        auto unary = [&](Opcode opcode) {
            Instr &i = emit(opcode);
            i.a = use(op, 0);
            i.r = def(op);
        };
        auto binary = [&](Opcode opcode) {
            Instr &i = emit(opcode);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.r = def(op);
        };
        if (name == cimd::kTranspose)
            return unary(Opcode::Transpose2d);
        if (name == cimd::kMatmul)
            return binary(Opcode::MatmulOp);
        if (name == cimd::kSub)
            return binary(Opcode::SubBroadcastOp);
        if (name == cimd::kNorm) {
            Instr &i = emit(Opcode::NormOp);
            i.a = use(op, 0);
            i.r = def(op);
            i.imm = op->intAttrOr("p", 2);
            return;
        }
        if (name == cimd::kDiv) {
            if (op->numOperands() == 2)
                return binary(Opcode::DivElem);
            Instr &i = emit(Opcode::DivCosine);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.c = use(op, 2);
            i.r = def(op);
            return;
        }
        if (name == cimd::kTopk) {
            ExecutionPlan::TopkSpec spec;
            if (op->numOperands() >= 2)
                spec.kSlot = use(op, 1);
            else
                spec.k = op->intAttr("k");
            spec.largest = op->boolAttrOr("largest", false);
            spec.postMergeCost = true;
            plan_.topks_.push_back(spec);
            Instr &i = emit(Opcode::TopkOp);
            i.aux = static_cast<std::int32_t>(plan_.topks_.size() - 1);
            i.a = use(op, 0);
            i.r = def(op, 0);
            i.r2 = def(op, 1);
            return;
        }
        if (name == cimd::kSimilarity) {
            ExecutionPlan::SimilaritySpec spec;
            std::string metric = op->strAttr("metric");
            spec.metric = metric == cimd::kMetricDot
                              ? ExecutionPlan::SimMetric::Dot
                          : metric == cimd::kMetricEucl
                              ? ExecutionPlan::SimMetric::Eucl
                              : ExecutionPlan::SimMetric::Cos;
            spec.partial = op->boolAttrOr("partial", false);
            if (op->numOperands() >= 3)
                spec.kSlot = use(op, 2);
            else
                spec.k = op->intAttrOr("k", 1);
            plan_.sims_.push_back(spec);
            Instr &i = emit(Opcode::SimilarityOp);
            i.aux = static_cast<std::int32_t>(plan_.sims_.size() - 1);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.r = def(op, 0);
            i.r2 = def(op, 1);
            return;
        }
        if (name == cimd::kMergePartial) {
            // (handle, acc, partial) -> acc + partial, elementwise.
            Instr &i = emit(Opcode::MergePartial);
            i.a = use(op, 1);
            i.b = use(op, 2);
            i.r = def(op);
            return;
        }
        throwUnknownOp("plan compiler", op);
    }

    void
    emitCam(Operation *op)
    {
        const std::string &name = op->name();
        if (name == camd::kAllocBank) {
            Instr &i = emit(Opcode::CamAllocBank);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.r = def(op);
            return;
        }
        if (name == camd::kAllocMat) {
            Instr &i = emit(Opcode::CamAllocMat);
            i.a = use(op, 0);
            i.r = def(op);
            return;
        }
        if (name == camd::kAllocArray) {
            Instr &i = emit(Opcode::CamAllocArray);
            i.a = use(op, 0);
            i.r = def(op);
            return;
        }
        if (name == camd::kAllocSubarray) {
            Instr &i = emit(Opcode::CamAllocSubarray);
            i.a = use(op, 0);
            i.r = def(op);
            return;
        }
        if (name == camd::kGetSubarray) {
            Instr &i = emit(Opcode::CamGetSubarray);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.c = use(op, 2);
            addExtra(i, use(op, 3));
            i.r = def(op);
            return;
        }
        if (name == camd::kWriteValue) {
            Instr &i = emit(Opcode::CamWriteValue);
            i.a = use(op, 0);
            i.b = use(op, 1);
            i.imm = op->intAttrOr("row_offset", 0);
            return;
        }
        if (name == camd::kSearch) {
            ExecutionPlan::SearchSpec spec;
            std::string kind_str = op->strAttr("kind");
            arch::SearchKind kind = kind_str == camd::kKindExact
                                        ? arch::SearchKind::Exact
                                    : kind_str == camd::kKindBest
                                        ? arch::SearchKind::Best
                                        : arch::SearchKind::Range;
            spec.kind = static_cast<int>(kind);
            spec.euclidean = op->strAttr("metric") == camd::kMetricEucl;
            if (const Attribute *thr = op->findAttr("threshold"))
                spec.threshold = thr->asFloat();
            spec.rowBegin =
                static_cast<int>(op->intAttrOr("row_begin", -1));
            spec.rowEnd = static_cast<int>(op->intAttrOr("row_end", -1));
            if (op->numOperands() >= 4) {
                spec.rowBeginSlot = use(op, 2);
                spec.rowEndSlot = use(op, 3);
            }
            spec.selective = op->boolAttrOr("selective", false);
            plan_.searches_.push_back(spec);
            Instr &i = emit(Opcode::CamSearch);
            i.aux =
                static_cast<std::int32_t>(plan_.searches_.size() - 1);
            i.a = use(op, 0);
            i.b = use(op, 1);
            return;
        }
        if (name == camd::kRead) {
            Instr &i = emit(Opcode::CamRead);
            i.a = use(op, 0);
            i.r = def(op, 0);
            i.r2 = def(op, 1);
            return;
        }
        if (name == camd::kMergePartialSubarray) {
            // (sub, acc, partial): acc += partial in place. The result
            // aliases acc; an unread one is not stored, so the slot
            // does not pin the accumulator view (replay re-points that
            // view per tile only while its slot is the sole owner).
            Instr &i = emit(Opcode::CamMergePartialSub);
            i.a = use(op, 1);
            i.b = use(op, 2);
            i.r = op->result(0)->hasUses() ? def(op) : -1;
            return;
        }
        throwUnknownOp("plan compiler", op);
    }

    ExecutionPlan &plan_;
    ValueNumbering vn_;
    Operation *func_;
    std::vector<Instr> *prog_ = nullptr;
};

std::shared_ptr<const ExecutionPlan>
ExecutionPlan::compile(const ir::Module &module, const std::string &entry)
{
    Operation *func = module.lookupFunction(entry);
    C4CAM_CHECK(func, "no function named '" << entry << "' in module");
    auto plan = std::make_shared<ExecutionPlan>();
    plan->entry_ = entry;
    PlanBuilder builder(*plan, func);
    builder.build();
    return plan;
}

PlanFrame
ExecutionPlan::makeFrame() const
{
    PlanFrame frame;
    frame.slots.resize(static_cast<std::size_t>(numSlots_));
    return frame;
}

PlanFrame
ExecutionPlan::forkFrame(const PlanFrame &frame) const
{
    PlanFrame fork;
    fork.slots = frame.slots;
    fork.nextCimHandle = frame.nextCimHandle;
    // Every slot the query phase writes is rewritten before it is read,
    // so the fork starts those empty: replay reuses buffers in place
    // only from such slots, and two frames must never share one.
    for (const Instr &inst : query_)
        for (std::int32_t slot : {inst.r, inst.r2})
            if (slot >= 0 &&
                static_cast<std::size_t>(slot) < fork.slots.size())
                fork.slots[static_cast<std::size_t>(slot)] = RtValue();
    return fork;
}

//
// Replay engine
//

namespace {

/**
 * A buffer in @p dst may be rewritten in place only when @p dst is its
 * sole owner: nothing returned, copied to another slot or held by
 * another frame (ExecutionPlan::forkFrame) can see the write.
 */
bool
soleOwned(const RtValue &dst)
{
    if (!dst.isBuffer() || dst.asBuffer().use_count() != 1)
        return false;
    // The use count may have dropped on another thread (a caller
    // releasing a result); order that release before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
    return true;
}

/**
 * The element storage of the rank-1, @p n-element read-out buffer in
 * @p dst (T = float: F32, T = std::int64_t: I64): the one already there
 * when it is solely owned and fits, else a fresh buffer stored into
 * dst.
 */
template <typename T>
T *
readOutInto(RtValue &dst, std::int64_t n)
{
    if (soleOwned(dst))
        if (T *data = dst.asBuffer()->soleDenseStorage<T>(n))
            return data;
    constexpr DType dtype =
        std::is_same_v<T, float> ? DType::F32 : DType::I64;
    dst = RtValue(Buffer::alloc(dtype, {n}));
    return dst.asBuffer()->soleDenseStorage<T>(n);
}

} // namespace

std::vector<RtValue>
ExecutionPlan::run(PlanFrame &frame, sim::CamDevice *device,
                   const std::vector<RtValue> &args, ExecPhase phase,
                   std::uint64_t *executed_ops) const
{
    C4CAM_CHECK(args.size() == numArgs_,
                "function '" << entry_ << "' takes " << numArgs_
                << " arguments, got " << args.size());
    if (frame.slots.size() < static_cast<std::size_t>(numSlots_))
        frame.slots.resize(static_cast<std::size_t>(numSlots_));
    for (std::size_t i = 0; i < args.size(); ++i)
        frame.slots[static_cast<std::size_t>(argSlots_[i])] = args[i];

    // When the frame carries a tracing context (stamped per query by
    // the serving layer), the whole replay is one span under that
    // layer's execute span. RAII so every exit path -- Return, the
    // end of the setup program, a throwing query -- closes the span;
    // with tracing off this is two inlined null checks.
    struct ReplaySpan
    {
        support::SpanContext ctx;
        double startUs = 0.0;
        explicit ReplaySpan(const support::SpanContext &c) : ctx(c)
        {
            if (ctx.enabled())
                startUs = ctx.collector->nowUs();
        }
        ~ReplaySpan()
        {
            if (!ctx.enabled())
                return;
            support::TraceEvent ev;
            ev.name = "plan-replay";
            ev.traceId = ctx.traceId;
            ev.queryId = ctx.queryId;
            ev.spanId = ctx.collector->newSpanId();
            ev.parentSpanId = ctx.parentSpanId;
            ev.startUs = startUs;
            ev.durUs = ctx.collector->nowUs() - startUs;
            ctx.collector->record(ev);
        }
    } replaySpan(frame.trace);

    const std::vector<Instr> &prog = program(phase);
    std::vector<RtValue> &s = frame.slots;
    const std::int32_t *pool = operands_.data();

    auto slotInt = [&s](std::int32_t slot) {
        return s[static_cast<std::size_t>(slot)].asInt();
    };
    auto slotFloat = [&s](std::int32_t slot) {
        return s[static_cast<std::size_t>(slot)].asFloat();
    };
    auto slotBuf = [&s](std::int32_t slot) -> const BufferPtr & {
        return s[static_cast<std::size_t>(slot)].asBuffer();
    };
    auto put = [&s](std::int32_t slot, RtValue v) {
        s[static_cast<std::size_t>(slot)] = std::move(v);
    };
    // Scalar results overwrite their slot in place (RtValue::setInt /
    // setFloat): same alternative, same value as put(slot, RtValue(v)).
    auto putInt = [&s](std::int32_t slot, std::int64_t v) {
        s[static_cast<std::size_t>(slot)].setInt(v);
    };
    auto putFloat = [&s](std::int32_t slot, double v) {
        s[static_cast<std::size_t>(slot)].setFloat(v);
    };
    auto requireDevice = [device]() {
        C4CAM_CHECK(device, "cam ops require an attached CAM simulator");
        return device;
    };
    // The variadic slots of an instruction.
    auto extra = [pool](const Instr &inst) {
        return std::span<const std::int32_t>(
            pool + inst.extraBegin,
            static_cast<std::size_t>(inst.extraCount));
    };
    // Load/store element index of an instruction, in frame scratch.
    auto resolveIndex = [&](const Instr &inst)
        -> const std::vector<std::int64_t> & {
        frame.index.clear();
        for (std::int32_t slot : extra(inst))
            frame.index.push_back(slotInt(slot));
        return frame.index;
    };
    // Resolve a slice spec's offset/size list against the frame.
    auto resolveSlice = [&s](const std::vector<SliceDim> &dims,
                             std::vector<std::int64_t> &out) {
        out.clear();
        for (const SliceDim &dim : dims)
            out.push_back(dim.slot >= 0
                              ? s[static_cast<std::size_t>(dim.slot)]
                                    .asInt()
                              : dim.imm);
    };
    auto evalCmpI = [](std::int64_t a, std::int64_t b,
                       std::int64_t pred) -> bool {
        switch (static_cast<CmpIPred>(pred)) {
          case CmpIPred::Eq:
            return a == b;
          case CmpIPred::Ne:
            return a != b;
          case CmpIPred::Slt:
            return a < b;
          case CmpIPred::Sle:
            return a <= b;
          case CmpIPred::Sgt:
            return a > b;
          case CmpIPred::Sge:
            return a >= b;
        }
        return false;
    };
    std::size_t pc = 0;
    const std::size_t end = prog.size();
    std::uint64_t executed = 0;
    while (pc < end) {
        const Instr &inst = prog[pc];
        ++executed;
        switch (inst.op) {
          case Opcode::Jump:
            pc = static_cast<std::size_t>(inst.target);
            continue;
          case Opcode::BranchIfFalse:
            if (slotInt(inst.a) == 0) {
                pc = static_cast<std::size_t>(inst.target);
                continue;
            }
            break;
          case Opcode::BranchIfGe:
            if (slotInt(inst.a) >= slotInt(inst.b)) {
                pc = static_cast<std::size_t>(inst.target);
                continue;
            }
            break;
          case Opcode::Copy:
            put(inst.r, s[static_cast<std::size_t>(inst.a)]);
            break;
          case Opcode::CheckPosStep:
            C4CAM_CHECK(slotInt(inst.a) > 0,
                        (inst.imm == 0 ? "scf.for" : "scf.parallel")
                        << " requires a positive step");
            break;
          case Opcode::BeginSeqScope:
            if (device)
                device->timing().beginScope(/*parallel=*/false);
            break;
          case Opcode::BeginParScope:
            if (device)
                device->timing().beginScope(/*parallel=*/true);
            break;
          case Opcode::EndScope:
            if (device)
                device->timing().endScope();
            break;
          case Opcode::Return: {
            std::vector<RtValue> results;
            results.reserve(static_cast<std::size_t>(inst.extraCount));
            for (std::int32_t slot : extra(inst))
                results.push_back(s[static_cast<std::size_t>(slot)]);
            if (executed_ops)
                *executed_ops += executed;
            return results;
          }
          case Opcode::ConstInt:
            putInt(inst.r, inst.imm);
            break;
          case Opcode::ConstFloat:
            putFloat(inst.r, inst.fimm);
            break;

          case Opcode::CastToInt:
            putInt(inst.r, static_cast<std::int64_t>(slotFloat(inst.a)));
            break;
          case Opcode::CastToFloat:
            putFloat(inst.r, slotFloat(inst.a));
            break;
          case Opcode::Sqrt:
            putFloat(inst.r, std::sqrt(slotFloat(inst.a)));
            break;
          case Opcode::Select:
            put(inst.r, s[static_cast<std::size_t>(
                            slotInt(inst.a) != 0 ? inst.b : inst.c)]);
            break;
          case Opcode::CmpI:
            putInt(inst.r, evalCmpI(slotInt(inst.a), slotInt(inst.b),
                                    inst.imm));
            break;
          case Opcode::CmpF: {
            double a = slotFloat(inst.a);
            double b = slotFloat(inst.b);
            bool r = false;
            switch (static_cast<CmpFPred>(inst.imm)) {
              case CmpFPred::Olt:
                r = a < b;
                break;
              case CmpFPred::Ole:
                r = a <= b;
                break;
              case CmpFPred::Ogt:
                r = a > b;
                break;
              case CmpFPred::Oge:
                r = a >= b;
                break;
              case CmpFPred::Oeq:
                r = a == b;
                break;
            }
            putInt(inst.r, r);
            break;
          }
          case Opcode::AddI:
            putInt(inst.r, slotInt(inst.a) + slotInt(inst.b));
            break;
          case Opcode::SubI:
            putInt(inst.r, slotInt(inst.a) - slotInt(inst.b));
            break;
          case Opcode::MulI:
            putInt(inst.r, slotInt(inst.a) * slotInt(inst.b));
            break;
          case Opcode::DivI: {
            std::int64_t b = slotInt(inst.b);
            C4CAM_CHECK(b != 0, "division by zero in arith.divsi");
            putInt(inst.r, slotInt(inst.a) / b);
            break;
          }
          case Opcode::RemI: {
            std::int64_t b = slotInt(inst.b);
            C4CAM_CHECK(b != 0, "division by zero in arith.remsi");
            putInt(inst.r, slotInt(inst.a) % b);
            break;
          }
          case Opcode::MinI:
            putInt(inst.r, std::min(slotInt(inst.a), slotInt(inst.b)));
            break;
          case Opcode::MaxI:
            putInt(inst.r, std::max(slotInt(inst.a), slotInt(inst.b)));
            break;
          case Opcode::AddF:
            putFloat(inst.r, slotFloat(inst.a) + slotFloat(inst.b));
            break;
          case Opcode::SubF:
            putFloat(inst.r, slotFloat(inst.a) - slotFloat(inst.b));
            break;
          case Opcode::MulF:
            putFloat(inst.r, slotFloat(inst.a) * slotFloat(inst.b));
            break;
          case Opcode::DivF:
            putFloat(inst.r, slotFloat(inst.a) / slotFloat(inst.b));
            break;
          case Opcode::MinF:
            putFloat(inst.r,
                     std::min(slotFloat(inst.a), slotFloat(inst.b)));
            break;
          case Opcode::MaxF:
            putFloat(inst.r,
                     std::max(slotFloat(inst.a), slotFloat(inst.b)));
            break;

          case Opcode::AllocBuf: {
            const ShapeSpec &spec =
                shapes_[static_cast<std::size_t>(inst.aux)];
            put(inst.r, RtValue(Buffer::alloc(spec.dtype, spec.shape)));
            break;
          }
          case Opcode::CopyBuf:
            host::copyInto(slotBuf(inst.a), slotBuf(inst.b));
            break;
          case Opcode::Subview: {
            // Re-point the view already in the slot when it is solely
            // owned instead of allocating a new one.
            const SliceSpec &spec =
                slices_[static_cast<std::size_t>(inst.aux)];
            resolveSlice(spec.offsets, frame.offsets);
            resolveSlice(spec.sizes, frame.sizes);
            const Buffer &base = *slotBuf(inst.a);
            RtValue &dst = s[static_cast<std::size_t>(inst.r)];
            if (soleOwned(dst))
                dst.asBuffer()->assignSubview(base, frame.offsets,
                                              frame.sizes);
            else
                dst = RtValue(base.subview(frame.offsets, frame.sizes));
            break;
          }
          case Opcode::LoadF:
            putFloat(inst.r, slotBuf(inst.a)->at(resolveIndex(inst)));
            break;
          case Opcode::LoadI:
            putInt(inst.r, slotBuf(inst.a)->atInt(resolveIndex(inst)));
            break;
          case Opcode::Store:
            host::storeElement(*slotBuf(inst.b), resolveIndex(inst),
                               s[static_cast<std::size_t>(inst.a)]);
            break;

          case Opcode::Transpose2d:
            put(inst.r, RtValue(host::transpose2d(slotBuf(inst.a))));
            break;
          case Opcode::MatmulOp:
            put(inst.r, RtValue(host::matmul(slotBuf(inst.a),
                                             slotBuf(inst.b))));
            break;
          case Opcode::SubBroadcastOp:
            put(inst.r, RtValue(host::subBroadcast(slotBuf(inst.a),
                                                   slotBuf(inst.b))));
            break;
          case Opcode::DivElem:
            put(inst.r, RtValue(host::elementwiseDiv(slotBuf(inst.a),
                                                     slotBuf(inst.b))));
            break;
          case Opcode::DivCosine:
            put(inst.r, RtValue(host::cosineDiv(slotBuf(inst.a),
                                                slotBuf(inst.b),
                                                slotBuf(inst.c))));
            break;
          case Opcode::NormOp:
            put(inst.r,
                RtValue(host::normLastDim(slotBuf(inst.a),
                                          static_cast<int>(inst.imm))));
            break;
          case Opcode::TopkOp: {
            const TopkSpec &spec =
                topks_[static_cast<std::size_t>(inst.aux)];
            const BufferPtr &in = slotBuf(inst.a);
            std::int64_t k =
                spec.kSlot >= 0 ? slotInt(spec.kSlot) : spec.k;
            auto [values, indices] = host::topk(in, k, spec.largest);
            put(inst.r, RtValue(values));
            put(inst.r2, RtValue(indices));
            if (spec.postMergeCost && device) {
                std::int64_t inner = in->shape().back();
                device->postMerge(static_cast<int>(inner));
            }
            break;
          }
          case Opcode::SimilarityOp: {
            const SimilaritySpec &spec =
                sims_[static_cast<std::size_t>(inst.aux)];
            const BufferPtr &stored = slotBuf(inst.a);
            const BufferPtr &query = slotBuf(inst.b);
            BufferPtr scores;
            bool largest = false;
            switch (spec.metric) {
              case SimMetric::Dot:
                scores = host::matmul(query, host::transpose2d(stored));
                largest = true;
                break;
              case SimMetric::Eucl:
                scores = host::normLastDim(
                    host::subBroadcast(query, stored), 2);
                largest = false;
                break;
              case SimMetric::Cos: {
                BufferPtr dots =
                    host::matmul(query, host::transpose2d(stored));
                BufferPtr qn = host::normLastDim(query, 2);
                BufferPtr sn = host::normLastDim(stored, 2);
                scores = host::cosineDiv(dots, qn, sn);
                largest = true;
                break;
              }
            }
            if (spec.partial) {
                auto indices = Buffer::alloc(DType::I64, scores->shape());
                for (std::int64_t q = 0; q < scores->shape()[0]; ++q)
                    for (std::int64_t n = 0; n < scores->shape()[1];
                         ++n)
                        indices->setInt({q, n}, n);
                put(inst.r, RtValue(scores));
                put(inst.r2, RtValue(indices));
                break;
            }
            std::int64_t k =
                spec.kSlot >= 0 ? slotInt(spec.kSlot) : spec.k;
            auto [values, indices] = host::topk(scores, k, largest);
            put(inst.r, RtValue(values));
            put(inst.r2, RtValue(indices));
            break;
          }
          case Opcode::MergePartial:
            put(inst.r, RtValue(host::elementwiseAdd(slotBuf(inst.a),
                                                     slotBuf(inst.b))));
            break;
          case Opcode::CimAcquire:
            putInt(inst.r, frame.nextCimHandle++);
            break;

          case Opcode::CamAllocBank:
            putInt(inst.r, requireDevice()->allocBank(
                               static_cast<int>(slotInt(inst.a)),
                               static_cast<int>(slotInt(inst.b))));
            break;
          case Opcode::CamAllocMat:
            putInt(inst.r, requireDevice()->allocMat(slotInt(inst.a)));
            break;
          case Opcode::CamAllocArray:
            putInt(inst.r, requireDevice()->allocArray(slotInt(inst.a)));
            break;
          case Opcode::CamAllocSubarray:
            putInt(inst.r, requireDevice()->allocSubarray(slotInt(inst.a)));
            break;
          case Opcode::CamGetSubarray:
            putInt(inst.r, requireDevice()->subarrayAt(
                               slotInt(inst.a), slotInt(inst.b),
                               slotInt(inst.c), slotInt(extra(inst)[0])));
            break;
          case Opcode::CamWriteValue:
            requireDevice()->writeValue(
                slotInt(inst.a), slotBuf(inst.b)->toMatrix(),
                static_cast<int>(inst.imm));
            break;
          case Opcode::CamSearch: {
            const SearchSpec &spec =
                searches_[static_cast<std::size_t>(inst.aux)];
            sim::Handle sub = slotInt(inst.a);
            const BufferPtr &query = slotBuf(inst.b);
            int row_begin = spec.rowBeginSlot >= 0
                                ? static_cast<int>(
                                      slotInt(spec.rowBeginSlot))
                                : spec.rowBegin;
            int row_end = spec.rowEndSlot >= 0
                              ? static_cast<int>(slotInt(spec.rowEndSlot))
                              : spec.rowEnd;
            // A contiguous query view is searched in place; a strided
            // one is gathered into the frame's float scratch.
            requireDevice()->search(
                sub, query->elements<float>(frame.queryScratch),
                static_cast<arch::SearchKind>(spec.kind), spec.euclidean,
                row_begin, row_end, spec.threshold, spec.selective);
            break;
          }
          case Opcode::CamRead: {
            const sim::SearchResult &result =
                requireDevice()->read(slotInt(inst.a));
            const auto n = static_cast<std::int64_t>(result.values.size());
            std::copy(result.values.begin(), result.values.end(),
                      readOutInto<float>(
                          s[static_cast<std::size_t>(inst.r)], n));
            std::copy(result.indices.begin(), result.indices.end(),
                      readOutInto<std::int64_t>(
                          s[static_cast<std::size_t>(inst.r2)], n));
            break;
          }
          case Opcode::CamMergePartialSub: {
            const BufferPtr &acc = slotBuf(inst.a);
            const BufferPtr &partial = slotBuf(inst.b);
            host::addInto(acc, partial);
            requireDevice()->postMerge(
                static_cast<int>(acc->numElements()));
            if (inst.r >= 0)
                put(inst.r, s[static_cast<std::size_t>(inst.a)]);
            break;
          }
        }
        ++pc;
    }
    if (executed_ops)
        *executed_ops += executed;
    return {};
}

//
// Disassembler
//

namespace {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Jump: return "Jump";
      case Opcode::BranchIfFalse: return "BranchIfFalse";
      case Opcode::BranchIfGe: return "BranchIfGe";
      case Opcode::Copy: return "Copy";
      case Opcode::CheckPosStep: return "CheckPosStep";
      case Opcode::BeginSeqScope: return "BeginSeqScope";
      case Opcode::BeginParScope: return "BeginParScope";
      case Opcode::EndScope: return "EndScope";
      case Opcode::Return: return "Return";
      case Opcode::ConstInt: return "ConstInt";
      case Opcode::ConstFloat: return "ConstFloat";
      case Opcode::CastToInt: return "CastToInt";
      case Opcode::CastToFloat: return "CastToFloat";
      case Opcode::Sqrt: return "Sqrt";
      case Opcode::Select: return "Select";
      case Opcode::CmpI: return "CmpI";
      case Opcode::CmpF: return "CmpF";
      case Opcode::AddI: return "AddI";
      case Opcode::SubI: return "SubI";
      case Opcode::MulI: return "MulI";
      case Opcode::DivI: return "DivI";
      case Opcode::RemI: return "RemI";
      case Opcode::MinI: return "MinI";
      case Opcode::MaxI: return "MaxI";
      case Opcode::AddF: return "AddF";
      case Opcode::SubF: return "SubF";
      case Opcode::MulF: return "MulF";
      case Opcode::DivF: return "DivF";
      case Opcode::MinF: return "MinF";
      case Opcode::MaxF: return "MaxF";
      case Opcode::AllocBuf: return "AllocBuf";
      case Opcode::CopyBuf: return "CopyBuf";
      case Opcode::Subview: return "Subview";
      case Opcode::LoadF: return "LoadF";
      case Opcode::LoadI: return "LoadI";
      case Opcode::Store: return "Store";
      case Opcode::Transpose2d: return "Transpose2d";
      case Opcode::MatmulOp: return "MatmulOp";
      case Opcode::SubBroadcastOp: return "SubBroadcastOp";
      case Opcode::DivElem: return "DivElem";
      case Opcode::DivCosine: return "DivCosine";
      case Opcode::NormOp: return "NormOp";
      case Opcode::TopkOp: return "TopkOp";
      case Opcode::SimilarityOp: return "SimilarityOp";
      case Opcode::MergePartial: return "MergePartial";
      case Opcode::CimAcquire: return "CimAcquire";
      case Opcode::CamAllocBank: return "CamAllocBank";
      case Opcode::CamAllocMat: return "CamAllocMat";
      case Opcode::CamAllocArray: return "CamAllocArray";
      case Opcode::CamAllocSubarray: return "CamAllocSubarray";
      case Opcode::CamGetSubarray: return "CamGetSubarray";
      case Opcode::CamWriteValue: return "CamWriteValue";
      case Opcode::CamSearch: return "CamSearch";
      case Opcode::CamRead: return "CamRead";
      case Opcode::CamMergePartialSub: return "CamMergePartialSub";
    }
    return "?";
}

bool
usesImm(Opcode op)
{
    switch (op) {
      case Opcode::ConstInt:
      case Opcode::CmpI:
      case Opcode::CmpF:
      case Opcode::CheckPosStep:
      case Opcode::NormOp:
      case Opcode::CamWriteValue:
        return true;
      default:
        return false;
    }
}

void
printInstr(std::ostream &os, const Instr &in, std::size_t idx,
           const std::vector<std::int32_t> &pool)
{
    os << "  " << std::setw(4) << idx << "  " << std::left
       << std::setw(19) << opcodeName(in.op) << std::right;
    if (in.r >= 0)
        os << " r=s" << in.r;
    if (in.r2 >= 0)
        os << " r2=s" << in.r2;
    if (in.a >= 0)
        os << " a=s" << in.a;
    if (in.b >= 0)
        os << " b=s" << in.b;
    if (in.c >= 0)
        os << " c=s" << in.c;
    if (in.extraCount > 0) {
        os << " extra=[";
        for (std::int32_t k = 0; k < in.extraCount; ++k)
            os << (k ? "," : "") << "s"
               << pool[static_cast<std::size_t>(in.extraBegin + k)];
        os << "]";
    }
    if (in.target >= 0)
        os << " -> @" << in.target;
    if (in.aux >= 0)
        os << " aux=#" << in.aux;
    if (usesImm(in.op) || in.imm != 0)
        os << " imm=" << in.imm;
    if (in.op == Opcode::ConstFloat)
        os << " fimm=" << in.fimm;
    os << "\n";
}

/** A slot-or-immediate operand: "sN" for a slot, else the value. */
void
printSlotOr(std::ostream &os, std::int32_t slot, std::int64_t imm)
{
    if (slot >= 0)
        os << "s" << slot;
    else
        os << imm;
}

} // namespace

std::string
ExecutionPlan::disassemble() const
{
    std::ostringstream os;
    os << "plan '" << entry_ << "': " << numArgs_ << " args, "
       << numSlots_ << " slots" << (phased_ ? ", phased" : "") << "\n";
    os << "arg slots: [";
    for (std::size_t i = 0; i < argSlots_.size(); ++i)
        os << (i ? "," : "") << "s" << argSlots_[i];
    os << "]\n";
    auto printSliceDims = [&os](const std::vector<SliceDim> &dims) {
        os << "[";
        for (std::size_t k = 0; k < dims.size(); ++k) {
            os << (k ? "," : "");
            printSlotOr(os, dims[k].slot, dims[k].imm);
        }
        os << "]";
    };
    const std::pair<const char *, const std::vector<Instr> *> phases[] = {
        {"setup", &setup_}, {"query", &query_}};
    for (const auto &[name, prog] : phases) {
        os << "phase " << name << " (" << prog->size() << " instrs):\n";
        for (std::size_t i = 0; i < prog->size(); ++i)
            printInstr(os, (*prog)[i], i, operands_);
    }
    if (!slices_.empty()) {
        os << "slices (" << slices_.size() << "):\n";
        for (std::size_t i = 0; i < slices_.size(); ++i) {
            os << "  #" << i << " offsets=";
            printSliceDims(slices_[i].offsets);
            os << " sizes=";
            printSliceDims(slices_[i].sizes);
            os << "\n";
        }
    }
    if (!topks_.empty()) {
        os << "topks (" << topks_.size() << "):\n";
        for (std::size_t i = 0; i < topks_.size(); ++i) {
            const TopkSpec &spec = topks_[i];
            os << "  #" << i << " k=";
            printSlotOr(os, spec.kSlot, spec.k);
            os << " largest=" << (spec.largest ? 1 : 0)
               << " postMergeCost=" << (spec.postMergeCost ? 1 : 0)
               << "\n";
        }
    }
    if (!searches_.empty()) {
        os << "searches (" << searches_.size() << "):\n";
        for (std::size_t i = 0; i < searches_.size(); ++i) {
            const SearchSpec &spec = searches_[i];
            os << "  #" << i << " kind=" << spec.kind
               << " euclidean=" << (spec.euclidean ? 1 : 0)
               << " selective=" << (spec.selective ? 1 : 0)
               << " threshold=" << spec.threshold << " rows=[";
            printSlotOr(os, spec.rowBeginSlot, spec.rowBegin);
            os << ",";
            printSlotOr(os, spec.rowEndSlot, spec.rowEnd);
            os << ")\n";
        }
    }
    return os.str();
}

} // namespace c4cam::rt
