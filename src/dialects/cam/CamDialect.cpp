#include "dialects/cam/CamDialect.h"

#include "support/Error.h"

namespace c4cam::dialects {

using namespace ir;

namespace cam {

Type
bankIdType(Context &ctx)
{
    return ctx.opaqueType("cam", "bank_id");
}

Type
matIdType(Context &ctx)
{
    return ctx.opaqueType("cam", "mat_id");
}

Type
arrayIdType(Context &ctx)
{
    return ctx.opaqueType("cam", "array_id");
}

Type
subarrayIdType(Context &ctx)
{
    return ctx.opaqueType("cam", "subarray_id");
}

bool
hasPhaseMarkers(Operation *func)
{
    if (!func || func->numRegions() == 0)
        return false;
    for (Operation *op : func->region(0).front().opVector())
        if (op->strAttrOr(kPhaseAttr, "") == kPhaseQuery)
            return true;
    return false;
}

namespace {

void
requireHandle(Operation *op, std::size_t idx, const char *name)
{
    Type t = op->operand(idx)->type();
    C4CAM_CHECK(t.isOpaque() && t.opaqueDialect() == "cam" &&
                    t.opaqueName() == name,
                "'" << op->name() << "' operand #" << idx << " must be !cam."
                << name << ", got " << t.str());
}

} // namespace

} // namespace cam

void
CamDialect::initialize(Context &ctx)
{
    {
        // cam.alloc_bank %rows, %cols -> !cam.bank_id
        OpInfo info;
        info.name = cam::kAllocBank;
        info.minOperands = 2;
        info.maxOperands = 2;
        info.numResults = 1;
        info.verify = [](Operation *op) {
            C4CAM_CHECK(op->operand(0)->type().isIndex() &&
                            op->operand(1)->type().isIndex(),
                        "cam.alloc_bank takes (rows, cols) index operands");
        };
        ctx.registerOp(std::move(info));
    }
    {
        OpInfo info;
        info.name = cam::kAllocMat;
        info.minOperands = 1;
        info.maxOperands = 1;
        info.numResults = 1;
        info.verify = [](Operation *op) {
            cam::requireHandle(op, 0, "bank_id");
        };
        ctx.registerOp(std::move(info));
    }
    {
        OpInfo info;
        info.name = cam::kAllocArray;
        info.minOperands = 1;
        info.maxOperands = 1;
        info.numResults = 1;
        info.verify = [](Operation *op) {
            cam::requireHandle(op, 0, "mat_id");
        };
        ctx.registerOp(std::move(info));
    }
    {
        OpInfo info;
        info.name = cam::kAllocSubarray;
        info.minOperands = 1;
        info.maxOperands = 1;
        info.numResults = 1;
        info.verify = [](Operation *op) {
            cam::requireHandle(op, 0, "array_id");
        };
        ctx.registerOp(std::move(info));
    }
    {
        // cam.get_subarray %bank, %mat, %array, %sub -> !cam.subarray_id
        // References an already-allocated subarray by its hierarchy
        // coordinates (used by the query loop after the setup loop has
        // programmed the device).
        OpInfo info;
        info.name = cam::kGetSubarray;
        info.minOperands = 4;
        info.maxOperands = 4;
        info.numResults = 1;
        info.verify = [](Operation *op) {
            for (std::size_t i = 0; i < 4; ++i)
                C4CAM_CHECK(op->operand(i)->type().isIndex(),
                            "cam.get_subarray takes index coordinates");
        };
        ctx.registerOp(std::move(info));
    }
    {
        // cam.write_value %subarray, %data {row_batch = N}
        OpInfo info;
        info.name = cam::kWriteValue;
        info.minOperands = 2;
        info.maxOperands = 2;
        info.numResults = 0;
        info.verify = [](Operation *op) {
            cam::requireHandle(op, 0, "subarray_id");
            C4CAM_CHECK(op->operand(1)->type().isMemRef(),
                        "cam.write_value data must be a memref");
        };
        ctx.registerOp(std::move(info));
    }
    {
        // cam.search %subarray, %query [, %row_begin, %row_end]
        //            {kind, metric, threshold}
        // The optional index operands give the selective-search row
        // window [27]; without them the full subarray is active.
        OpInfo info;
        info.name = cam::kSearch;
        info.minOperands = 2;
        info.maxOperands = 4;
        info.numResults = 0;
        info.verify = [](Operation *op) {
            cam::requireHandle(op, 0, "subarray_id");
            C4CAM_CHECK(op->operand(1)->type().isMemRef(),
                        "cam.search query must be a memref");
            std::string kind = op->strAttrOr("kind", "");
            C4CAM_CHECK(kind == cam::kKindExact || kind == cam::kKindBest ||
                            kind == cam::kKindRange,
                        "cam.search kind must be exact/best/range, got '"
                        << kind << "'");
            std::string metric = op->strAttrOr("metric", "");
            C4CAM_CHECK(metric == cam::kMetricHamming ||
                            metric == cam::kMetricEucl,
                        "cam.search metric must be hamming/eucl, got '"
                        << metric << "'");
        };
        ctx.registerOp(std::move(info));
    }
    {
        // cam.read %subarray {kind} -> (values, indices)
        OpInfo info;
        info.name = cam::kRead;
        info.minOperands = 1;
        info.maxOperands = 1;
        info.numResults = 2;
        info.verify = [](Operation *op) {
            cam::requireHandle(op, 0, "subarray_id");
            C4CAM_CHECK(op->result(0)->type().isMemRef() &&
                            op->result(1)->type().isMemRef(),
                        "cam.read returns (values, indices) memrefs");
        };
        ctx.registerOp(std::move(info));
    }
    {
        // cam.merge_partial_subarray %sub, %acc, %partial {direction}
        OpInfo info;
        info.name = cam::kMergePartialSubarray;
        info.minOperands = 3;
        info.maxOperands = 3;
        info.numResults = 1;
        info.verify = [](Operation *op) {
            cam::requireHandle(op, 0, "subarray_id");
        };
        ctx.registerOp(std::move(info));
    }
}

} // namespace c4cam::dialects
