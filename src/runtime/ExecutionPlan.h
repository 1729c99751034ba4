#ifndef C4CAM_RUNTIME_EXECUTIONPLAN_H
#define C4CAM_RUNTIME_EXECUTIONPLAN_H

/**
 * @file
 * Compile-once execution plans: slot-based bytecode for the lowered IR.
 *
 * The tree-walking Interpreter re-resolves everything on every query:
 * each op name runs through a string-compare dispatch chain, every SSA
 * value lives in a std::map keyed by pointer, and attributes (loop
 * bounds, cmp predicates, slice specs, search kinds) are re-parsed
 * from the attribute maps each time they are reached. None of that
 * work depends on the query -- so an ExecutionPlan does it once, at
 * session/engine build time:
 *
 *  - every op name is resolved to an Opcode enum;
 *  - every SSA value is numbered into a dense slot index
 *    (ir::ValueNumbering); the runtime frame is a flat
 *    std::vector<RtValue> instead of a map;
 *  - constants, predicates, slice/search/topk specs are pre-decoded
 *    into immediate fields and aux tables;
 *  - structured control flow (scf.for / scf.parallel / scf.if,
 *    cim.execute regions) is flattened into a branch-based
 *    instruction stream.
 *
 * Per-query execution is then a tight switch-on-opcode replay loop
 * over exactly the bytecode compile() emitted. Scalar results are
 * stored in place (RtValue::setInt/setFloat), so a loop's index slots
 * are overwritten, never rebuilt. The plan compiles two instruction
 * streams, a setup program and a query program (mirroring the
 * phase-attribute filtering of Interpreter::runTopLevel), over one
 * shared slot numbering, so a PlanFrame carries setup-phase results
 * into the query replays exactly like the interpreter's SSA
 * environment. Every execution is setup followed by queries: a
 * single-shot run is setup plus one query. A function without phase
 * markers (every host-only kernel) has an empty setup program, and
 * its query program is the whole function.
 *
 * Replay reuses the buffers it made for the previous tile or query:
 * a subview re-points the view object already in its result slot, and
 * cam.read writes into the read-out buffers already in its slots, but
 * only while the slot is the object's sole owner. A buffer that was
 * returned, copied into another slot or is held by another frame is
 * never written; the steady-state query phase of a lowered kernel
 * then allocates nothing per tile. cam.search hands the device a span
 * straight over its (dense) query view; a strided view is gathered
 * into the frame's float scratch. The reuse state is the frame's own
 * slots and scratch vectors, never the shared const plan.
 *
 * Replay is semantically identical to the tree walk by construction:
 * both back ends share the host tensor kernels (runtime/HostKernels.h)
 * and drive the CamDevice through the same call sequence, so outputs
 * and simulated PerfReports are bit-identical (locked by
 * tests/runtime/ExecutionPlanTest.cpp and the plan-vs-treewalk leg
 * of bench_serving_throughput).
 *
 * A compiled plan holds no pointers into the IR: after compile() the
 * module is not needed for replay. disassemble() lists the bytecode
 * (c4cam-run --dump-plan).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/Buffer.h"
#include "support/Trace.h"

namespace c4cam::ir {
class Module;
}
namespace c4cam::sim {
class CamDevice;
}

namespace c4cam::rt {

/** Opcode of one plan instruction. */
enum class Opcode : std::uint8_t {
    // Control flow
    Jump,          ///< pc = target
    BranchIfFalse, ///< if slot a == 0: pc = target
    BranchIfGe,    ///< if slot a >= slot b (ints): pc = target
    Copy,          ///< frame[r] = frame[a]
    CheckPosStep,  ///< throw unless frame[a] > 0 (imm: 0=for, 1=parallel)
    BeginSeqScope, ///< device timing: open sequential scope
    BeginParScope, ///< device timing: open parallel scope
    EndScope,      ///< device timing: close scope
    Return,        ///< stop; results are the variadic slots

    // Constants
    ConstInt,   ///< frame[r] = imm
    ConstFloat, ///< frame[r] = fimm

    // Arith / math
    CastToInt,   ///< frame[r] = int64(asFloat(a))
    CastToFloat, ///< frame[r] = asFloat(a)
    Sqrt,
    Select, ///< frame[r] = frame[a != 0 ? b : c]
    CmpI,   ///< imm = predicate (CmpIPred)
    CmpF,   ///< imm = predicate (CmpFPred)
    AddI, SubI, MulI, DivI, RemI, MinI, MaxI,
    AddF, SubF, MulF, DivF, MinF, MaxF,

    // Buffers (memref / tensor / bufferization)
    AllocBuf, ///< aux = shape spec
    CopyBuf,  ///< element-count-preserving copy a -> b
    Subview,  ///< aux = slice spec
    LoadF, LoadI, ///< variadic = index slots
    Store,        ///< a = value, b = buffer, variadic = index slots

    // Host tensor kernels (torch / cim)
    Transpose2d,
    MatmulOp,
    SubBroadcastOp,
    DivElem,
    DivCosine, ///< a = QxN, b = query norms, c = stored norms
    NormOp,    ///< imm = p
    TopkOp,    ///< aux = topk spec
    SimilarityOp, ///< aux = similarity spec
    MergePartial, ///< frame[r] = a + b (fresh buffer)
    CimAcquire,   ///< frame[r] = frame.nextCimHandle++

    // Device (cam)
    CamAllocBank,
    CamAllocMat,
    CamAllocArray,
    CamAllocSubarray,
    CamGetSubarray, ///< operands a, b, c and one variadic slot
    CamWriteValue,  ///< imm = row_offset
    CamSearch,      ///< aux = search spec
    CamRead,
    CamMergePartialSub, ///< in-place acc += partial, postMerge
};

/** Integer compare predicates (pre-decoded from the "predicate" attr). */
enum class CmpIPred : std::uint8_t { Eq, Ne, Slt, Sle, Sgt, Sge };
/** Float compare predicates. */
enum class CmpFPred : std::uint8_t { Olt, Ole, Ogt, Oge, Oeq };

/**
 * One replay instruction. Slot fields index the PlanFrame. Variadic
 * operands (index slots, returned slots) live in the plan's operand
 * pool, so an instruction owns no heap memory.
 */
struct Instr
{
    Opcode op;
    std::int32_t a = -1;  ///< first operand slot
    std::int32_t b = -1;  ///< second operand slot
    std::int32_t c = -1;  ///< third operand slot
    std::int32_t r = -1;  ///< first result slot
    std::int32_t r2 = -1; ///< second result slot
    std::int32_t target = -1; ///< branch target (instruction index)
    std::int32_t aux = -1;    ///< index into the opcode's aux table
    std::int32_t extraBegin = 0; ///< first variadic slot in the pool
    std::int32_t extraCount = 0; ///< number of variadic slots
    std::int64_t imm = 0;     ///< integer immediate / predicate
    double fimm = 0.0;        ///< float immediate
};
static_assert(sizeof(Instr) <= 56, "keep plan instructions packed");

/**
 * All mutable state of one plan-based execution: the dense slot frame
 * (the counterpart of ExecutionState's SSA environment), the
 * cim-handle counter and replay's scratch vectors. The slots also
 * hold the buffers replay reuses, so a device replica forks a
 * post-setup frame with ExecutionPlan::forkFrame(), never by plain
 * copy.
 */
struct PlanFrame
{
    std::vector<RtValue> slots;
    std::int64_t nextCimHandle = 1;

    /** Tracing handle for the *next* run() call: when enabled, replay
     *  records a "plan-replay" span under trace.parentSpanId (the
     *  serving layer's execute span). Default-disabled; copying a
     *  frame for a replica copies a disabled context or the caller
     *  re-stamps it per query. */
    support::SpanContext trace;

    /// @name Replay scratch (capacity reused across run() calls)
    /// @{
    std::vector<std::int64_t> index;   ///< load/store element index
    std::vector<std::int64_t> offsets; ///< resolved subview offsets
    std::vector<std::int64_t> sizes;   ///< resolved subview sizes
    /** A strided cam.search query view gathered into floats. */
    std::vector<float> queryScratch;
    /// @}
};

/**
 * A compiled, immutable execution plan for one kernel function.
 * Thread-safe for concurrent run() calls provided each thread passes
 * its own PlanFrame (and its own CamDevice replica, if any).
 */
class ExecutionPlan
{
  public:
    /** Which of the two programs to replay. */
    enum class ExecPhase {
        SetupOnly, ///< program the device (empty without phase markers)
        QueryOnly, ///< serve one query on the programmed device
    };

    /**
     * Compile function @p entry of @p module into a plan. Throws
     * CompilerError (with the nearest-mnemonic diagnostic) when the
     * function contains an op outside the executable vocabulary.
     */
    static std::shared_ptr<const ExecutionPlan>
    compile(const ir::Module &module, const std::string &entry);

    /** A fresh frame sized for this plan's slot count. */
    PlanFrame makeFrame() const;

    /**
     * A device replica's frame forked from post-setup @p frame: the
     * setup-phase results are shared (immutable once programmed), and
     * every slot the query phase writes starts empty, so the two
     * frames hold no buffer that replay may reuse in place.
     */
    PlanFrame forkFrame(const PlanFrame &frame) const;

    /**
     * Replay phase @p phase with @p args (one RtValue per function
     * parameter) on @p frame. @p device backs cam ops and timing
     * scopes; may be nullptr for host-only IR. @return the operands of
     * func.return (empty for SetupOnly). The frame persists across
     * calls, which is what makes Setup-then-repeated-Query replay
     * work. @p executed_ops, when non-null, is incremented by the
     * number of instructions the replay actually executed (loop
     * iterations included); the benchmark reports it as
     * runtime.ops_per_query.
     */
    std::vector<RtValue> run(PlanFrame &frame, sim::CamDevice *device,
                             const std::vector<RtValue> &args,
                             ExecPhase phase,
                             std::uint64_t *executed_ops = nullptr) const;

    /** Whether the function carried cam-map phase annotations. */
    bool hasPhaseMarkers() const { return phased_; }

    /** Frame size (number of dense value slots, incl. loop temps). */
    std::int32_t numSlots() const { return numSlots_; }

    /** Instruction count of one phase's program (introspection). */
    std::size_t numInstructions(ExecPhase phase) const
    {
        return program(phase).size();
    }

    /** Name of the compiled function. */
    const std::string &entry() const { return entry_; }

    /** Human-readable listing of both phase programs, the frame
     *  layout and the decoded aux tables (c4cam-run --dump-plan). */
    std::string disassemble() const;

  private:
    friend class PlanBuilder;

    /// @name Aux tables (indexed by Instr::aux)
    /// @{
    struct ShapeSpec
    {
        DType dtype;
        std::vector<std::int64_t> shape;
    };

    /** One offset/size entry: dynamic when slot >= 0, else imm. */
    struct SliceDim
    {
        std::int64_t imm = 0;
        std::int32_t slot = -1;
    };
    struct SliceSpec
    {
        std::vector<SliceDim> offsets;
        std::vector<SliceDim> sizes;
    };

    struct TopkSpec
    {
        std::int64_t k = 1;        ///< used when kSlot < 0
        std::int32_t kSlot = -1;   ///< dynamic k operand
        bool largest = false;
        bool postMergeCost = false; ///< cim.topk posts merge cost
    };

    enum class SimMetric : std::uint8_t { Dot, Eucl, Cos };
    struct SimilaritySpec
    {
        SimMetric metric = SimMetric::Dot;
        bool partial = false;
        std::int64_t k = 1;
        std::int32_t kSlot = -1;
    };

    struct SearchSpec
    {
        int kind = 0; ///< arch::SearchKind as int
        bool euclidean = false;
        bool selective = false;
        double threshold = 0.0;
        int rowBegin = -1;
        int rowEnd = -1;
        std::int32_t rowBeginSlot = -1;
        std::int32_t rowEndSlot = -1;
    };
    /// @}

    const std::vector<Instr> &program(ExecPhase phase) const
    {
        return phase == ExecPhase::SetupOnly ? setup_ : query_;
    }

    std::string entry_;
    bool phased_ = false;
    std::int32_t numSlots_ = 0;
    std::size_t numArgs_ = 0;
    /** Slots of the function's entry-block arguments. */
    std::vector<std::int32_t> argSlots_;

    std::vector<Instr> setup_;
    std::vector<Instr> query_;
    /** Variadic operand slots of both programs (Instr::extraBegin). */
    std::vector<std::int32_t> operands_;

    std::vector<ShapeSpec> shapes_;
    std::vector<SliceSpec> slices_;
    std::vector<TopkSpec> topks_;
    std::vector<SimilaritySpec> sims_;
    std::vector<SearchSpec> searches_;
};

} // namespace c4cam::rt

#endif // C4CAM_RUNTIME_EXECUTIONPLAN_H
