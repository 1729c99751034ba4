#include "sim/CamDevice.h"

#include <utility>

#include "sim/FaultInjector.h"
#include "support/Error.h"

namespace c4cam::sim {

CamDevice::CamDevice(const arch::ArchSpec &spec)
    : spec_(spec), tech_(arch::TechModel::forSpec(spec))
{
    spec_.validate();
}

CamDevice::CamDevice(const CamDevice &other)
    : spec_(other.spec_), tech_(other.tech_), timing_(other.timing_),
      banks_(other.banks_), handles_(other.handles_),
      subarrayCount_(other.subarrayCount_),
      writtenSubarrays_(other.writtenSubarrays_), writes_(other.writes_),
      fusionModel_(other.fusionModel_)
{
    // Deep-copy the programmed cell contents; the clone must never
    // alias the original's subarrays. Search results are not copied:
    // the replica has none to read until it searches.
    subarrays_.resize(other.subarrays_.size());
    for (std::size_t h = 0; h < other.subarrays_.size(); ++h)
        if (other.subarrays_[h])
            subarrays_[h] = std::make_unique<SubarrayUnit>(
                SubarrayUnit{other.subarrays_[h]->cells, {}, 0});
    // window_ stays default-constructed: the replica starts with a
    // fresh query window on top of the copied setup accounting.
    timing_.beginQueryWindow();
    // Replicas share the original's injector but fault independently:
    // each registers its own creation-ordered device id, so a scripted
    // "kill device 2" hits exactly one replica of the fleet.
    if (other.faults_) {
        faults_ = other.faults_;
        faultDevice_ = faults_->registerDevice();
    }
}

std::unique_ptr<CamDevice>
CamDevice::cloneProgrammed() const
{
    C4CAM_CHECK(timing_.depth() == 0,
                "cloneProgrammed while " << timing_.depth()
                << " timing scopes are open (clone between queries, "
                "not mid-execution)");
    C4CAM_CHECK(!fusedActive_,
                "cloneProgrammed while a fused multi-query pass is "
                "open (finish the fused batch first)");
    return std::unique_ptr<CamDevice>(new CamDevice(*this));
}

const char *
CamDevice::kindName(HandleKind kind)
{
    switch (kind) {
      case HandleKind::Bank:
        return "bank";
      case HandleKind::Mat:
        return "mat";
      case HandleKind::Array:
        return "array";
      case HandleKind::Subarray:
        return "subarray";
    }
    return "unknown";
}

Handle
CamDevice::newHandle(HandleInfo info)
{
    handles_.push_back(info);
    return static_cast<Handle>(handles_.size() - 1);
}

const CamDevice::HandleInfo &
CamDevice::info(Handle handle, HandleKind expected) const
{
    // Handles arrive from interpreted cam IR, so a malformed or stale
    // value is the *program's* fault: diagnose it instead of indexing
    // handles_ out of bounds (negative and too-large are both UB).
    C4CAM_CHECK(handle >= 0 &&
                    handle < static_cast<Handle>(handles_.size()),
                "invalid CAM " << kindName(expected) << " handle "
                << handle << " (only " << handles_.size()
                << " handles allocated on this device)");
    const HandleInfo &hi = handles_[static_cast<std::size_t>(handle)];
    C4CAM_CHECK(hi.kind == expected, "CAM handle " << handle
                << " refers to a " << kindName(hi.kind) << ", expected a "
                << kindName(expected));
    return hi;
}

Handle
CamDevice::allocBank(int rows, int cols)
{
    C4CAM_CHECK(rows == spec_.rows && cols == spec_.cols,
                "alloc_bank geometry " << rows << "x" << cols
                << " does not match the architecture spec " << spec_.rows
                << "x" << spec_.cols);
    if (spec_.numBanks > 0) {
        C4CAM_CHECK(static_cast<int>(banks_.size()) < spec_.numBanks,
                    "bank allocation exceeds the configured "
                    << spec_.numBanks << " banks");
    }
    Bank bank;
    bank.rows = rows;
    bank.cols = cols;
    banks_.push_back(std::move(bank));
    HandleInfo hi;
    hi.kind = HandleKind::Bank;
    hi.bank = banks_.size() - 1;
    return newHandle(hi);
}

Handle
CamDevice::allocMat(Handle bank_handle)
{
    const HandleInfo bh = info(bank_handle, HandleKind::Bank); // by value: newHandle() reallocates handles_
    Bank &bank = banks_[bh.bank];
    C4CAM_CHECK(static_cast<int>(bank.mats.size()) < spec_.matsPerBank,
                "mat allocation exceeds " << spec_.matsPerBank
                << " mats per bank");
    bank.mats.emplace_back();
    HandleInfo hi;
    hi.kind = HandleKind::Mat;
    hi.bank = bh.bank;
    hi.mat = bank.mats.size() - 1;
    return newHandle(hi);
}

Handle
CamDevice::allocArray(Handle mat_handle)
{
    const HandleInfo mh = info(mat_handle, HandleKind::Mat);
    Mat &mat = banks_[mh.bank].mats[mh.mat];
    C4CAM_CHECK(static_cast<int>(mat.arrays.size()) < spec_.arraysPerMat,
                "array allocation exceeds " << spec_.arraysPerMat
                << " arrays per mat");
    mat.arrays.emplace_back();
    HandleInfo hi;
    hi.kind = HandleKind::Array;
    hi.bank = mh.bank;
    hi.mat = mh.mat;
    hi.array = mat.arrays.size() - 1;
    return newHandle(hi);
}

Handle
CamDevice::allocSubarray(Handle array_handle)
{
    const HandleInfo ah = info(array_handle, HandleKind::Array);
    ArrayUnit &array = banks_[ah.bank].mats[ah.mat].arrays[ah.array];
    C4CAM_CHECK(static_cast<int>(array.subarrays.size()) <
                    spec_.subarraysPerArray,
                "subarray allocation exceeds " << spec_.subarraysPerArray
                << " subarrays per array");
    HandleInfo hi;
    hi.kind = HandleKind::Subarray;
    hi.bank = ah.bank;
    hi.mat = ah.mat;
    hi.array = ah.array;
    hi.sub = array.subarrays.size();
    Handle handle = newHandle(hi);
    array.subarrays.push_back(handle);
    subarrays_.resize(handles_.size());
    subarrays_.back() = std::make_unique<SubarrayUnit>(SubarrayUnit{
        CamSubarray(banks_[ah.bank].rows, banks_[ah.bank].cols,
                    spec_.camType, spec_.bitsPerCell),
        {}, 0});
    ++subarrayCount_;
    return handle;
}

Handle
CamDevice::subarrayAt(std::int64_t bank, std::int64_t mat,
                      std::int64_t array, std::int64_t sub) const
{
    C4CAM_CHECK(bank >= 0 && bank < static_cast<std::int64_t>(banks_.size()),
                "subarrayAt: bank " << bank << " not allocated");
    const Bank &b = banks_[static_cast<std::size_t>(bank)];
    C4CAM_CHECK(mat >= 0 && mat < static_cast<std::int64_t>(b.mats.size()),
                "subarrayAt: mat " << mat << " not allocated in bank "
                << bank);
    const Mat &m = b.mats[static_cast<std::size_t>(mat)];
    C4CAM_CHECK(array >= 0 &&
                    array < static_cast<std::int64_t>(m.arrays.size()),
                "subarrayAt: array " << array << " not allocated");
    const ArrayUnit &a = m.arrays[static_cast<std::size_t>(array)];
    C4CAM_CHECK(sub >= 0 &&
                    sub < static_cast<std::int64_t>(a.subarrays.size()),
                "subarrayAt: subarray " << sub << " not allocated");
    return a.subarrays[static_cast<std::size_t>(sub)];
}

const CamDevice::SubarrayUnit &
CamDevice::unit(Handle handle) const
{
    info(handle, HandleKind::Subarray);
    const std::unique_ptr<SubarrayUnit> &u =
        subarrays_[static_cast<std::size_t>(handle)];
    C4CAM_ASSERT(u, "subarray handle " << handle << " has no storage");
    return *u;
}

CamDevice::SubarrayUnit &
CamDevice::unit(Handle handle)
{
    return const_cast<SubarrayUnit &>(std::as_const(*this).unit(handle));
}

CamSubarray &
CamDevice::subarray(Handle handle)
{
    return unit(handle).cells;
}

void
CamDevice::writeValue(Handle subarray_handle,
                      const std::vector<std::vector<float>> &data,
                      int row_offset)
{
    if (faults_)
        faults_->checkAlive(faultDevice_);
    CamSubarray &sub = subarray(subarray_handle);
    bool first_write = sub.writtenRows() == 0;
    sub.write(data, row_offset);
    if (first_write && sub.writtenRows() > 0)
        ++writtenSubarrays_;
    ++writes_;

    // Rows are programmed sequentially; energy scales with cells written.
    double rows = static_cast<double>(data.size());
    double cells = 0.0;
    for (const auto &row : data)
        cells += static_cast<double>(row.size());
    TimingEngine::Phase saved = timing_.phase();
    timing_.setPhase(TimingEngine::Phase::Setup);
    timing_.post(rows * tech_.writeLatencyNsPerRow() * spec_.bitsPerCell,
                 cells * tech_.writeEnergyPjPerCell() * spec_.bitsPerCell);
    timing_.setPhase(saved);
}

void
CamDevice::writeRanges(Handle subarray_handle,
                       const std::vector<std::vector<CamCell>> &cells,
                       int row_offset)
{
    if (faults_)
        faults_->checkAlive(faultDevice_);
    CamSubarray &sub = subarray(subarray_handle);
    bool first_write = sub.writtenRows() == 0;
    sub.writeRanges(cells, row_offset);
    if (first_write && sub.writtenRows() > 0)
        ++writtenSubarrays_;
    ++writes_;

    double rows = static_cast<double>(cells.size());
    double cell_count = 0.0;
    for (const auto &row : cells)
        cell_count += static_cast<double>(row.size());
    TimingEngine::Phase saved = timing_.phase();
    timing_.setPhase(TimingEngine::Phase::Setup);
    // Analog ranges need two program pulses per cell (lo and hi).
    timing_.post(rows * tech_.writeLatencyNsPerRow() * 2.0,
                 cell_count * tech_.writeEnergyPjPerCell() * 2.0);
    timing_.setPhase(saved);
}

void
CamDevice::search(Handle subarray_handle, std::span<const float> query,
                  arch::SearchKind kind, bool euclidean, int row_begin,
                  int row_end, double threshold, bool selective)
{
    // The fault hook fires before ANY window state mutates (result
    // latch, search counter, posted cost), so a query aborted by a
    // TransientFault leaves the device exactly as it was -- the
    // property that makes a retried query bit-identical to a
    // fault-free run.
    double fault_latency_factor = 1.0;
    if (faults_)
        fault_latency_factor = faults_->onSearch(faultDevice_);
    SubarrayUnit &u = unit(subarray_handle);
    const CamSubarray &sub = u.cells;
    if (row_begin < 0)
        row_begin = 0;
    if (row_end < 0)
        row_end = sub.rows();

    sub.search(query, kind, euclidean, row_begin, row_end, threshold,
               u.lastResult, quantized_);
    u.resultWindow = queryWindow_;
    ++window_.searches;

    // Every ML precharges each cycle; selective search confines the
    // sensing stage (and read-out) to the row window. Under the
    // TrueFused model the precharge + data-line drive of a subarray
    // is paid by the first query of the fused pass only: queries 2..K
    // against the same programmed subarray re-use the driven lines and
    // post the sense/match share alone (1x drive, Kx sense; paper
    // §IV). The breakdown accumulators mirror exactly what is posted
    // so the window totals always equal their sum.
    int sensed_rows = selective ? row_end - row_begin : sub.rows();
    bool pay_drive = true;
    if (fusedActive_ && fusionModel_ == FusionModel::TrueFused)
        pay_drive = fusedDriven_.insert(subarray_handle).second;
    arch::SearchEnergyBreakdown split = tech_.searchEnergyBreakdown(
        sub.rows(), sensed_rows, sub.cols(), kind);
    double latency = (tech_.searchLatencyNs(sub.cols()) +
                      tech_.senseLatencyNs(kind)) *
                     fault_latency_factor;
    double energy = split.sensePj;
    if (pay_drive) {
        latency += tech_.queryDriveLatencyNs() * fault_latency_factor;
        energy = split.total();
        window_.cellEnergy += split.cellPj;
        window_.driveEnergy += split.driverPj;
    }
    window_.senseEnergy += split.sensePj;
    timing_.setPhase(TimingEngine::Phase::Query);
    timing_.post(latency, energy);
}

const SearchResult &
CamDevice::read(Handle subarray_handle) const
{
    // unit() validates handle range/kind first so a bank/mat handle
    // (or a bogus value) gets a handle diagnostic, not a misleading
    // "no search yet" message.
    const SubarrayUnit &u = unit(subarray_handle);
    C4CAM_CHECK(u.resultWindow == queryWindow_,
                "cam.read on subarray " << subarray_handle
                << " before any cam.search was issued on it");
    return u.lastResult;
}

void
CamDevice::postMerge(int fanout)
{
    timing_.setPhase(TimingEngine::Phase::Query);
    window_.mergeEnergy += tech_.mergeEnergyPj(fanout);
    timing_.post(tech_.mergeLatencyNs(fanout), tech_.mergeEnergyPj(fanout));
}

void
CamDevice::postQueryTransfer(std::int64_t elements)
{
    // Host-side query staging: word-width limited transfer at ~1 GHz.
    double words = static_cast<double>(elements) * 32.0 / spec_.wordWidth;
    timing_.setPhase(TimingEngine::Phase::Query);
    timing_.post(0.001 * words, 0.0005 * words);
}

void
CamDevice::beginQueryWindow()
{
    timing_.beginQueryWindow();
    // Replace the whole per-window object, and advance the window
    // number so last-search results go stale: a read-before-search in
    // the new window must be diagnosed exactly like on a fresh device,
    // not silently served stale data from the previous query.
    window_ = WindowState{};
    ++queryWindow_;
}

void
CamDevice::beginFusedPass()
{
    C4CAM_CHECK(!fusedActive_,
                "beginFusedPass while another fused pass is open "
                "(fused passes do not nest)");
    C4CAM_CHECK(timing_.depth() == 0,
                "beginFusedPass while " << timing_.depth()
                << " timing scopes are open");
    fusedActive_ = true;
}

void
CamDevice::endFusedPass()
{
    C4CAM_CHECK(fusedActive_, "endFusedPass without an open fused pass");
    fusedActive_ = false;
    fusedDriven_.clear();
}

void
CamDevice::setFusionModel(FusionModel model)
{
    C4CAM_CHECK(!fusedActive_,
                "setFusionModel while a fused multi-query pass is "
                "open (the model must not change mid-batch)");
    fusionModel_ = model;
}

void
CamDevice::attachFaultInjector(std::shared_ptr<FaultInjector> injector)
{
    faults_ = std::move(injector);
    faultDevice_ = faults_ ? faults_->registerDevice() : -1;
}

void
CamDevice::abortQueryWindow()
{
    timing_.abortOpenScopes();
    // A failed query ends its fused pass: a retried batch pays the
    // per-pass drive again, as if the aborted pass never happened.
    fusedActive_ = false;
    fusedDriven_.clear();
    // Fresh window on top of the preserved setup accounting; the
    // timing engine's window was already reset by abortOpenScopes().
    window_ = WindowState{};
    ++queryWindow_;
}

PerfReport
CamDevice::report() const
{
    PerfReport report;
    report.setupLatencyNs = timing_.setupCost().latencyNs;
    report.setupEnergyPj = timing_.setupCost().energyPj;
    report.queryLatencyNs = timing_.queryCost().latencyNs;
    report.queryEnergyPj = timing_.queryCost().energyPj;
    report.cellEnergyPj = window_.cellEnergy;
    report.senseEnergyPj = window_.senseEnergy;
    report.driveEnergyPj = window_.driveEnergy;
    report.mergeEnergyPj = window_.mergeEnergy;
    report.searches = window_.searches;
    report.writes = writes_;
    report.subarraysUsed = writtenSubarrays_;
    report.subarraysAllocated = subarrayCount_;
    report.banksUsed = static_cast<std::int64_t>(banks_.size());
    return report;
}

} // namespace c4cam::sim
