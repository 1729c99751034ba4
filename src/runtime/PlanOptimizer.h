#ifndef C4CAM_RUNTIME_PLANOPTIMIZER_H
#define C4CAM_RUNTIME_PLANOPTIMIZER_H

/**
 * @file
 * Peephole / dataflow pass pipeline over ExecutionPlan bytecode.
 *
 * A raw plan is a 1:1 transcription of the lowered IR: every loop
 * iteration still replays the full index-arithmetic chain, constant
 * guards, staged yield copies and per-op dispatch that the IR spelled
 * out. The optimizer rewrites the instruction streams once, at compile
 * time, without changing observable behavior -- outputs AND simulated
 * PerfReports stay bit-identical to the unoptimized plan and the
 * tree-walk interpreter (device ops, timing scopes and cost-posting
 * ops are never touched, reordered or eliminated).
 *
 * Passes, in pipeline order (each individually toggleable):
 *
 *  1. Constant folding -- slots written only by identical ConstInt
 *     instructions (across all three phase programs) are compile-time
 *     constants; integer arithmetic/compare chains over them fold to
 *     pre-decoded immediates, constant guards become unconditional
 *     jumps or fall-throughs, and provably-positive CheckPosStep
 *     disappears.
 *  2. Loop-invariant subview hoisting -- a Subview in the straight-line
 *     head of a guaranteed-at-least-once loop whose operand slots are
 *     not written inside the loop body moves above the loop head, so
 *     the spec is resolved once per entry instead of once per
 *     iteration.
 *  3. Superop fusion -- adjacent hot pairs collapse into one dispatch:
 *     compare+branch (every loop guard), add+jump (every back-edge),
 *     slice+search (the device inner loop), int/float arithmetic
 *     pairs (index chains) and staged copy pairs (loop yields). A
 *     second chain-collapse step then forwards op1's result to op2 in
 *     a register and, when no other instruction in the whole plan
 *     reads it, drops the intermediate slot write (r = -1) -- single-
 *     use index temporaries stop touching the frame at all.
 *  4. Dead-slot elimination + frame compaction -- pure instructions
 *     whose results are never read are removed (fixpoint), then the
 *     surviving slots are renumbered densely, shrinking the per-replay
 *     std::vector<RtValue> frame.
 *
 * The pipeline returns a NEW plan; the input is never mutated, so an
 * unoptimized plan stays available for differential testing
 * (DifferentialFuzzTest runs optimized vs unoptimized vs tree-walk).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace c4cam::rt {

class ExecutionPlan;

/** Per-pass toggles (all on by default). */
struct PlanOptOptions
{
    bool constantFolding = true;
    bool subviewHoisting = true;
    bool superopFusion = true;
    bool deadSlotElimination = true;

    /** Record a disassembly snapshot after every pass into
     *  PlanOptReport::passDumps (c4cam-run --plan-opt-debug). */
    bool collectDumps = false;
};

/** What the pipeline did, for tests and --dump-plan. */
struct PlanOptReport
{
    int foldedInstructions = 0;  ///< rewritten to Const/Jump/fall-through
    int hoistedSubviews = 0;     ///< subviews moved out of loops
    int fusedSuperops = 0;       ///< instruction pairs collapsed
    int collapsedWrites = 0;     ///< chain-internal result writes dropped
    int removedInstructions = 0; ///< dead instructions eliminated
    std::int32_t slotsBefore = 0;
    std::int32_t slotsAfter = 0;

    /** (pass name, full disassembly after that pass); first entry is
     *  ("input", <unoptimized>). Only filled with collectDumps. */
    std::vector<std::pair<std::string, std::string>> passDumps;
};

class PlanOptimizer
{
  public:
    /** Run the enabled passes over a copy of @p plan. */
    static std::shared_ptr<const ExecutionPlan>
    optimize(const ExecutionPlan &plan, const PlanOptOptions &options = {},
             PlanOptReport *report = nullptr);

    /** Human-readable listing of all three phase programs, the frame
     *  layout and the decoded aux tables (c4cam-run --dump-plan). */
    static std::string disassemble(const ExecutionPlan &plan);

  private:
    /// @name Passes. Each mutates @p plan in place and returns how
    /// many rewrites it performed (see PlanOptReport).
    /// @{
    static int runConstantFolding(ExecutionPlan &plan);
    static int runSubviewHoisting(ExecutionPlan &plan);
    static int runSuperopFusion(ExecutionPlan &plan,
                                int *collapsed_writes);
    static int runDeadSlotElimination(ExecutionPlan &plan);
    /// @}

    /** Renumber every referenced slot densely; shrinks numSlots(). */
    static void compactFrame(ExecutionPlan &plan);
};

} // namespace c4cam::rt

#endif // C4CAM_RUNTIME_PLANOPTIMIZER_H
