#ifndef C4CAM_IR_VALUENUMBERING_H
#define C4CAM_IR_VALUENUMBERING_H

/**
 * @file
 * Dense, stable numbering of every SSA value inside one function.
 *
 * The execution-plan compiler replaces the interpreter's
 * std::map<Value*, RtValue> environment with a flat slot frame
 * (std::vector indexed by slot). That requires a total, deterministic
 * mapping from SSA values to small dense integers. The numbering
 * walks the function in preorder -- entry-block arguments first, then
 * per operation its results followed by the values of its nested
 * regions (block arguments before the block's own ops) -- so the slot
 * of a value never depends on which execution phase or path touches
 * it, and separately compiled instruction streams over the same
 * function (setup / query) can share one persistent frame.
 */

#include <cstdint>
#include <unordered_map>

#include "ir/IR.h"

namespace c4cam::ir {

class ValueNumbering
{
  public:
    /**
     * Number every value reachable inside @p func: its entry-block
     * arguments, every nested block's arguments and every op result,
     * in preorder. @p func must be a function-like op with one region.
     */
    static ValueNumbering forFunction(Operation *func);

    /** Dense slot of @p value; asserts the value was numbered. */
    std::int32_t slot(Value *value) const;

    /** Slot of @p value, or -1 when it was not numbered. */
    std::int32_t slotOrInvalid(Value *value) const;

    /** Total number of slots (frame size). */
    std::int32_t numSlots() const
    {
        return static_cast<std::int32_t>(slots_.size());
    }

  private:
    void numberBlock(Block &block);

    std::unordered_map<Value *, std::int32_t> slots_;
};

} // namespace c4cam::ir

#endif // C4CAM_IR_VALUENUMBERING_H
