#ifndef C4CAM_TESTS_TREEWALKREFERENCE_H
#define C4CAM_TESTS_TREEWALKREFERENCE_H

/**
 * @file
 * The independent reference for single-shot runs.
 *
 * Every production single-shot path (CompiledKernel::run,
 * core::runKernelOnce, DseExplorer::explore) is a fresh session: the
 * setup program, a fresh query window, then the query program. The
 * reference instead walks the whole function in one pass
 * (rt::Interpreter::ExecPhase::Full) on a fresh CamDevice, so a
 * differential against it checks that splitting a run into setup and
 * query changes no output bit and no PerfReport field.
 */

#include <string>
#include <vector>

#include "core/Compiler.h"
#include "runtime/Interpreter.h"
#include "sim/CamDevice.h"

namespace c4cam {

/**
 * Compile @p source with @p options and walk the lowered function once
 * with @p args: on a fresh CamDevice (report with queriesServed = 1)
 * for device kernels, on the host alone (all-zero report) when
 * @p options.hostOnly.
 */
inline core::ExecutionResult
treeWalkSingleShot(const std::string &source, core::CompilerOptions options,
                   const std::vector<rt::BufferPtr> &args)
{
    // A tree-walk kernel holds no plan, so its mutable module() touches
    // no PlanCache entry.
    options.treeWalkExecution = true;
    core::CompiledKernel kernel =
        core::Compiler(options).compileTorchScript(source);
    sim::CamDevice device(options.spec);
    sim::CamDevice *attached = options.hostOnly ? nullptr : &device;
    rt::Interpreter interpreter(kernel.module(), attached);

    core::ExecutionResult result;
    result.outputs =
        interpreter.callFunction(kernel.entryPoint(), rt::toRtValues(args));
    if (attached) {
        result.perf = device.report();
        result.perf.queriesServed = 1;
    }
    return result;
}

} // namespace c4cam

#endif // C4CAM_TESTS_TREEWALKREFERENCE_H
