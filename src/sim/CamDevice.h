#ifndef C4CAM_SIM_CAMDEVICE_H
#define C4CAM_SIM_CAMDEVICE_H

/**
 * @file
 * Hierarchical CAM accelerator: banks -> mats -> arrays -> subarrays.
 *
 * This is the simulation backend the lowered cam dialect calls into
 * (paper §III-D2 "the cam operations are mapped to function calls of a
 * CAM simulator"). It combines the functional CamSubarray model with the
 * TechModel cost model and the scope-based TimingEngine.
 *
 * The query path allocates nothing once warm: search() reads its
 * query through a span (no copy), subarrays sit in a vector indexed
 * by handle, and each owns one reusable SearchResult stamped with the
 * number of the query window that filled it, so search() and read()
 * do no keyed lookup and starting a window clears no container.
 *
 * Accounting is one query window at a time: report() describes the
 * current window on top of the device-lifetime setup cost. A fused
 * pass (beginFusedPass) only changes what each window's searches cost
 * under FusionModel::TrueFused; the device never sums windows --
 * callers fold the per-query reports with PerfReport::addQueryWindow.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "arch/ArchSpec.h"
#include "arch/TechModel.h"
#include "sim/CamSubarray.h"
#include "sim/Timing.h"

namespace c4cam::sim {

class FaultInjector;

/** Opaque handle to an allocated hierarchy unit. */
using Handle = std::int64_t;

/**
 * The CAM accelerator instance for one ArchSpec.
 *
 * Threading model: a CamDevice is single-threaded -- it serves one
 * query at a time and keeps per-query accounting in one query window.
 * Concurrent serving uses one device *replica* per worker, created
 * with cloneProgrammed() so the one-time programming cost is paid
 * (and accounted) only once.
 */
class CamDevice
{
  public:
    explicit CamDevice(const arch::ArchSpec &spec);

    CamDevice(CamDevice &&) = default;
    CamDevice &operator=(CamDevice &&) = default;

    /**
     * Replicate this already-programmed device: the clone shares no
     * state with the original (cell contents are deep-copied) but
     * reports the identical setup cost, allocation counters and handle
     * numbering, and starts with a fresh query window. Cloning is pure
     * host work -- no simulated latency/energy is charged -- which is
     * what makes N-replica serving setups cheap: program once, clone
     * N-1 times, serve N queries concurrently.
     */
    std::unique_ptr<CamDevice> cloneProgrammed() const;

    const arch::ArchSpec &spec() const { return spec_; }
    const arch::TechModel &tech() const { return tech_; }

    /// @name Allocation (mirrors cam.alloc_*)
    /// @{
    /** Allocate a bank of subarrays with @p rows x @p cols geometry. */
    Handle allocBank(int rows, int cols);
    Handle allocMat(Handle bank);
    Handle allocArray(Handle mat);
    Handle allocSubarray(Handle array);
    /// @}

    /// @name Data path (mirrors cam.write_value / search / read)
    /// @{
    /**
     * Program @p data into @p subarray starting at @p row_offset.
     * Accounted as setup cost.
     */
    void writeValue(Handle subarray,
                    const std::vector<std::vector<float>> &data,
                    int row_offset = 0);

    /**
     * Program analog acceptance ranges (ACAM) into @p subarray.
     * Accounted as setup cost (two program pulses per cell: lo and
     * hi levels).
     */
    void writeRanges(Handle subarray,
                     const std::vector<std::vector<CamCell>> &cells,
                     int row_offset = 0);

    /**
     * Search @p query on @p subarray. Only rows in
     * [row_begin, row_end) are sensed/read out; negative bounds mean
     * the full subarray. With @p selective set (selective search [27])
     * the sense-amplifier energy is confined to the window; without it
     * the whole subarray senses. Accounted as query cost. The query is
     * read in place: both back ends pass a span straight over the
     * contiguous query view of cam.search (a std::vector<float>
     * converts implicitly).
     */
    void search(Handle subarray, std::span<const float> query,
                arch::SearchKind kind, bool euclidean, int row_begin = -1,
                int row_end = -1, double threshold = 0.0,
                bool selective = false);

    /**
     * Read back the results of the last search on @p subarray in the
     * current query window (diagnosed when there was none). The
     * reference stays valid until the next search on that subarray.
     */
    const SearchResult &read(Handle subarray) const;
    /// @}

    /// @name Timing scopes (driven by the loop structure)
    /// @{
    TimingEngine &timing() { return timing_; }

    /** Post the cost of merging partial results across @p fanout units. */
    void postMerge(int fanout);

    /** Post host<->device query transfer cost for @p elements values. */
    void postQueryTransfer(std::int64_t elements);
    /// @}

    /**
     * Start a fresh query accounting window: the per-window object
     * (query-phase latency/energy totals, query-energy breakdown and
     * search counter) is replaced wholesale and the window number
     * advances, so no earlier search result is readable, while all
     * setup costs, programmed data and allocation state stay. An
     * execution session calls this before each query so that report()
     * describes exactly one query on top of the shared setup.
     */
    void beginQueryWindow();

    /// @name Fault injection (chaos testing)
    /// @{
    /**
     * Attach a shared fault injector: this device registers itself for
     * a creation-ordered id, and every later cloneProgrammed() replica
     * registers its own id on the same injector. From then on each
     * search consults the injector (which may throw TransientFault /
     * PermanentFault or scale the search's simulated latency), and
     * writes/reads fail once the device is scripted dead. Pass nullptr
     * to detach.
     */
    void attachFaultInjector(std::shared_ptr<FaultInjector> injector);

    const std::shared_ptr<FaultInjector> &faultInjector() const
    {
        return faults_;
    }

    /** This device's id on the attached injector; -1 when detached. */
    int faultDevice() const { return faultDevice_; }

    /**
     * Fault-recovery cleanup: unconditionally return the device to a
     * servable between-queries state after an exception unwound
     * mid-execution. Discards open timing scopes, closes any open
     * fused pass, and drops the partial query window (its search
     * results stop being readable); keeps all programmed data and
     * setup accounting. The serving tier calls this on every failure
     * path before releasing a replica back to the pool, so a retried
     * query starts from the exact state a fault-free query would see.
     */
    void abortQueryWindow();
    /// @}

    /// @name Fused multi-query passes
    /// @{
    /**
     * Select how fused passes charge the device (default
     * FusionModel::ExactSerial; see sim::FusionModel). Must be set
     * between queries, never while a fused pass is open; clones
     * inherit the model. Under TrueFused the first search a fused pass
     * performs on each subarray posts the full cost and later searches
     * on the same subarray skip the drive latency and the cell/driver
     * energy -- the hardware's one-precharge-serves-K behaviour (paper
     * §IV). Outside fused passes the model is irrelevant: serial
     * queries always post full cost.
     */
    void setFusionModel(FusionModel model);
    FusionModel fusionModel() const { return fusionModel_; }

    /**
     * Open a fused pass: the caller drives several query vectors
     * through the programmed device back to back, each in its own
     * query window, and each window's report is that query's cost
     * under the FusionModel. The device keeps only which subarrays
     * the pass already drove. Passes do not nest, and the device
     * cannot be cloned while one is open.
     */
    void beginFusedPass();

    /** Close the open pass; its driven subarrays are forgotten. */
    void endFusedPass();
    /// @}

    /** Snapshot of all counters and accumulated costs. */
    PerfReport report() const;

    /// @name Introspection
    /// @{
    std::int64_t numBanks() const
    {
        return static_cast<std::int64_t>(banks_.size());
    }
    std::int64_t numAllocatedSubarrays() const { return subarrayCount_; }

    /** The cells of @p handle; the reference outlives later
     *  allocations. */
    CamSubarray &subarray(Handle handle);

    /**
     * Handle of the subarray at hierarchy coordinates
     * (bank, mat, array, subarray); it must have been allocated.
     */
    Handle subarrayAt(std::int64_t bank, std::int64_t mat,
                      std::int64_t array, std::int64_t sub) const;
    /// @}

  private:
    struct ArrayUnit
    {
        std::vector<Handle> subarrays;
    };
    struct Mat
    {
        std::vector<ArrayUnit> arrays;
    };
    struct Bank
    {
        int rows;
        int cols;
        std::vector<Mat> mats;
    };

    enum class HandleKind { Bank, Mat, Array, Subarray };

    struct HandleInfo
    {
        HandleKind kind;
        std::size_t bank;
        std::size_t mat = 0;
        std::size_t array = 0;
        std::size_t sub = 0;
    };

    /**
     * Per-query-window device accounting: the query-energy breakdown
     * and the search counter. Replaced as one object by
     * beginQueryWindow() (the timing engine restarts its query totals
     * in lockstep), so "reset" bugs where one counter is forgotten
     * cannot happen.
     */
    struct WindowState
    {
        std::int64_t searches = 0;
        double cellEnergy = 0.0;
        double senseEnergy = 0.0;
        double driveEnergy = 0.0;
        double mergeEnergy = 0.0;
    };

    /** One allocated subarray: its cells and its last search. */
    struct SubarrayUnit
    {
        CamSubarray cells;
        /** Reused by every search on this subarray. */
        SearchResult lastResult;
        /** Query window that filled lastResult; 0 = none. */
        std::uint64_t resultWindow = 0;
    };

    /** Deep copy for cloneProgrammed(). */
    CamDevice(const CamDevice &other);

    static const char *kindName(HandleKind kind);
    Handle newHandle(HandleInfo info);
    const HandleInfo &info(Handle handle, HandleKind expected) const;
    const SubarrayUnit &unit(Handle handle) const;
    SubarrayUnit &unit(Handle handle);

    arch::ArchSpec spec_;
    arch::TechModel tech_;
    TimingEngine timing_;

    std::vector<Bank> banks_;
    std::vector<HandleInfo> handles_;
    /** Indexed by handle; null for bank/mat/array handles. Units are
     *  heap-held so references to them survive later allocations. */
    std::vector<std::unique_ptr<SubarrayUnit>> subarrays_;
    /** Quantized-query scratch of search(). */
    std::vector<float> quantized_;
    /** Number of the current query window (starts at 1). */
    std::uint64_t queryWindow_ = 1;

    std::int64_t subarrayCount_ = 0;
    std::int64_t writtenSubarrays_ = 0;
    std::int64_t writes_ = 0;

    WindowState window_;

    /// @name Fault injection state
    /// @{
    std::shared_ptr<FaultInjector> faults_;
    int faultDevice_ = -1;
    /// @}

    /// @name Fused multi-query pass state
    /// @{
    bool fusedActive_ = false;
    FusionModel fusionModel_ = FusionModel::ExactSerial;
    /** Subarrays already driven in the open fused pass (TrueFused:
     *  their precharge/drive is paid; later searches sense only). */
    std::unordered_set<Handle> fusedDriven_;
    /// @}
};

} // namespace c4cam::sim

#endif // C4CAM_SIM_CAMDEVICE_H
