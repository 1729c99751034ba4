#ifndef C4CAM_DIALECTS_CAM_CAMDIALECT_H
#define C4CAM_DIALECTS_CAM_CAMDIALECT_H

/**
 * @file
 * The cam dialect: C4CAM's novel device-level abstraction (paper
 * §III-D2).
 *
 * Programs at this level allocate slices of the CAM hierarchy
 * (bank -> mat -> array -> subarray), program subarrays with stored
 * patterns, issue searches, and read back match values/indices. The
 * mapping pass arranges these calls inside scf loops that mirror the
 * architecture hierarchy (Fig. 6 of the paper).
 */

#include "ir/Builder.h"
#include "ir/Context.h"
#include "ir/IR.h"

namespace c4cam::dialects {

/** Registers cam.* ops and the !cam.*_id handle types. */
class CamDialect : public ir::Dialect
{
  public:
    std::string name() const override { return "cam"; }
    void initialize(ir::Context &ctx) override;
};

namespace cam {

inline constexpr const char *kAllocBank = "cam.alloc_bank";
inline constexpr const char *kAllocMat = "cam.alloc_mat";
inline constexpr const char *kAllocArray = "cam.alloc_array";
inline constexpr const char *kAllocSubarray = "cam.alloc_subarray";
inline constexpr const char *kGetSubarray = "cam.get_subarray";
inline constexpr const char *kWriteValue = "cam.write_value";
inline constexpr const char *kSearch = "cam.search";
inline constexpr const char *kRead = "cam.read";
inline constexpr const char *kMergePartialSubarray =
    "cam.merge_partial_subarray";

/** Search kinds (attr "kind"): exact (EX), best (BE), range/threshold (TH). */
inline constexpr const char *kKindExact = "exact";
inline constexpr const char *kKindBest = "best";
inline constexpr const char *kKindRange = "range";

/** Distance metrics (attr "metric"). */
inline constexpr const char *kMetricHamming = "hamming";
inline constexpr const char *kMetricEucl = "eucl";

/**
 * Execution-phase marker (attr "phase") placed by cam-map on top-level
 * ops of the mapped function. Ops tagged "setup" program the device
 * (allocation + cam.write_value) and run once per execution session;
 * ops tagged "query" form the reentrant per-query search body. Untagged
 * ops run in both phases (cheap host-side constants and buffers).
 */
inline constexpr const char *kPhaseAttr = "phase";
inline constexpr const char *kPhaseSetup = "setup";
inline constexpr const char *kPhaseQuery = "query";

/**
 * Whether function @p func carries the phase markers, i.e. at least
 * one top-level op is tagged phase="query". A function without them
 * (every host-only kernel) has no setup phase: both back ends run
 * nothing for its setup and the whole function as its query.
 */
bool hasPhaseMarkers(ir::Operation *func);

/** Handle types. */
ir::Type bankIdType(ir::Context &ctx);
ir::Type matIdType(ir::Context &ctx);
ir::Type arrayIdType(ir::Context &ctx);
ir::Type subarrayIdType(ir::Context &ctx);

} // namespace cam

} // namespace c4cam::dialects

#endif // C4CAM_DIALECTS_CAM_CAMDIALECT_H
