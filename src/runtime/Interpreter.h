#ifndef C4CAM_RUNTIME_INTERPRETER_H
#define C4CAM_RUNTIME_INTERPRETER_H

/**
 * @file
 * Reference executor for C4CAM IR at every abstraction level.
 *
 * - torch/cim tensor ops run on the host (functional reference, used for
 *   validation -- this doubles as the paper's "lower to loops" path);
 * - scf/arith/memref ops implement the lowered control structure;
 * - cam ops dispatch into the CamDevice simulator, which accounts
 *   latency/energy through scope-based timing driven by the loop
 *   structure (scf.parallel opens a parallel scope, scf.for a
 *   sequential one).
 *
 * Threading model: the Interpreter itself is an immutable view over
 * one lowered module. All per-execution mutable state (the SSA
 * environment, cim handle counter, attached device) lives in an
 * explicit ExecutionState, so one Interpreter can serve many threads
 * concurrently as long as each thread brings its own ExecutionState
 * (and its own CamDevice replica -- devices are single-threaded).
 */

#include <map>
#include <string>
#include <vector>

#include "ir/IR.h"
#include "runtime/Buffer.h"
#include "sim/CamDevice.h"

namespace c4cam::rt {

/**
 * All mutable state of one kernel execution: the SSA environment, the
 * cim-handle counter and the device the cam ops dispatch into.
 *
 * Separating this from the Interpreter is what makes concurrent
 * serving possible: the module (and the Interpreter over it) is shared
 * read-only across threads while every in-flight execution owns one
 * ExecutionState. A persistent session keeps one state alive across
 * queries (the query body re-reads the device handles the setup
 * prologue evaluated); a serving engine forks one state per device
 * replica after setup.
 */
class ExecutionState
{
  public:
    explicit ExecutionState(sim::CamDevice *device = nullptr)
        : device_(device)
    {}

    /** Device backing cam.* ops; may be nullptr for host-only IR. */
    sim::CamDevice *device() const { return device_; }

    /**
     * Replicate this (post-setup) state for another device replica.
     * The SSA environment is copied shallowly: setup-phase results are
     * immutable once programmed (the query body only allocates fresh
     * buffers), so replicas may safely share them. Device handles are
     * plain integers and stay valid on @p device when it is a
     * CamDevice::cloneProgrammed() copy of this state's device (clones
     * preserve handle numbering).
     */
    ExecutionState forkForReplica(sim::CamDevice *device) const;

    /// @name Environment access (used by the interpreter)
    /// @{
    bool has(ir::Value *value) const
    {
        return env_.find(value) != env_.end();
    }

    RtValue get(ir::Value *value) const;
    void set(ir::Value *value, RtValue rt_value);

    /** Allocate the next cim.acquire handle. */
    std::int64_t takeCimHandle() { return nextCimHandle_++; }
    /// @}

  private:
    sim::CamDevice *device_ = nullptr;
    std::map<ir::Value *, RtValue> env_;
    std::int64_t nextCimHandle_ = 1;
};

/**
 * Interprets one module. The instance is stateless apart from its
 * built-in default ExecutionState (used by the legacy single-threaded
 * entry points); the explicit-state callFunction overload is const and
 * safe to call from many threads concurrently.
 */
class Interpreter
{
  public:
    /**
     * Which portion of a phase-annotated function to execute. The
     * cam-map pass tags top-level ops with a "phase" attribute
     * (see dialects::cam::kPhaseAttr); untagged ops belong to both
     * phases. The ExecutionState persists across calls, which is what
     * makes Setup-then-repeated-Query execution work: the query body
     * re-reads the device handles and memrefs the setup prologue
     * evaluated. A function without phase markers has no setup phase:
     * SetupOnly runs nothing and QueryOnly runs the whole function
     * (the same rule as rt::ExecutionPlan).
     */
    enum class ExecPhase {
        Full,      ///< setup and query in one walk (the test reference
                   ///< for single-shot runs, which go setup-then-query)
        SetupOnly, ///< run the setup prologue, skip the query body
        QueryOnly, ///< re-enter the query body, skip the setup prologue
    };

    /**
     * @param module  the IR to execute (any pipeline stage)
     * @param device  CAM simulator backing cam.* ops of the *default*
     *                state; may be nullptr when the module contains no
     *                cam ops.
     */
    explicit Interpreter(ir::Module &module,
                         sim::CamDevice *device = nullptr);

    /**
     * Execute function @p name with @p args (one RtValue per entry-block
     * argument) on the built-in default state. @return the values of
     * func.return (empty for ExecPhase::SetupOnly, which stops before
     * the query body).
     */
    std::vector<RtValue> callFunction(const std::string &name,
                                      const std::vector<RtValue> &args,
                                      ExecPhase phase = ExecPhase::Full);

    /**
     * Execute function @p name with @p args on an explicit @p state.
     * Const and re-entrant: concurrent calls are safe provided each
     * thread passes a distinct ExecutionState (attached to a distinct
     * CamDevice, if any). The module is only read.
     */
    std::vector<RtValue> callFunction(ExecutionState &state,
                                      const std::string &name,
                                      const std::vector<RtValue> &args,
                                      ExecPhase phase = ExecPhase::Full)
        const;

    sim::CamDevice *device() const { return state_.device(); }

    /** The built-in default state (the legacy single-threaded path). */
    ExecutionState &state() { return state_; }
    const ExecutionState &state() const { return state_; }

  private:
    ir::Module &module_;
    ExecutionState state_;
};

} // namespace c4cam::rt

#endif // C4CAM_RUNTIME_INTERPRETER_H
