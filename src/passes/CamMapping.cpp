#include "passes/CamMapping.h"

#include "dialects/cam/CamDialect.h"
#include "dialects/cim/CimDialect.h"
#include "dialects/std/StdDialects.h"
#include "ir/Builder.h"
#include "support/Error.h"

namespace c4cam::passes {

using namespace ir;
namespace camd = c4cam::dialects::cam;
namespace cimd = c4cam::dialects::cim;
namespace scfd = c4cam::dialects::scf;

namespace {

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Fused similarity kernel to be mapped. */
struct Kernel
{
    Operation *acquire;
    Operation *execute;
    Operation *release;
    Operation *similarity;
};

std::vector<Kernel>
collectKernels(Module &module)
{
    std::vector<Kernel> kernels;
    for (Operation *func : module.functions()) {
        for (Operation *op : func->region(0).front().opVector()) {
            if (op->name() != cimd::kExecute)
                continue;
            std::vector<Operation *> body;
            for (Operation *inner : cimd::executeBody(op)->opVector())
                if (inner->name() != cimd::kYield)
                    body.push_back(inner);
            if (body.size() != 1 || body[0]->name() != cimd::kSimilarity)
                continue;
            Operation *acquire = op->operand(0)->definingOp();
            Operation *release = nullptr;
            for (OpOperand *use : op->operand(0)->uses())
                if (use->owner()->name() == cimd::kRelease)
                    release = use->owner();
            C4CAM_CHECK(acquire && release,
                        "similarity execute without acquire/release");
            kernels.push_back({acquire, op, release, body[0]});
        }
    }
    return kernels;
}

/**
 * Emits the mapped program for one kernel.
 */
class KernelMapper
{
  public:
    KernelMapper(Context &ctx, const arch::ArchSpec &spec, Kernel kernel)
        : ctx_(ctx), spec_(spec), kernel_(kernel), builder_(ctx)
    {}

    MappingPlan
    map()
    {
        analyze();
        builder_.setInsertionPoint(kernel_.acquire);
        emitBufferization();
        emitSetup();
        emitQueryLoop();
        rewireAndErase();
        return plan_;
    }

  private:
    void
    analyze()
    {
        Operation *similarity = kernel_.similarity;
        metric_ = similarity->strAttr("metric");
        C4CAM_CHECK(metric_ != cimd::kMetricCos,
                    "cam-map: cosine similarity requires host execution "
                    "(normalization is not additive across subarrays)");
        stored_ = similarity->operand(0);
        query_ = similarity->operand(1);
        Type stored_t = stored_->type();
        Type query_t = query_->type();
        C4CAM_CHECK(stored_t.rank() == 2 && query_t.rank() == 2,
                    "cam-map expects rank-2 stored/query tensors");
        n_ = stored_t.shape()[0];
        d_ = stored_t.shape()[1];
        q_ = query_t.shape()[0];
        C4CAM_CHECK(query_t.shape()[1] == d_,
                    "stored/query feature dims disagree");
        k_ = similarity->intAttrOr("k", 1);

        plan_ = MappingPlan::compute(spec_, q_, n_, d_);
    }

    Value *
    cIdx(std::int64_t v)
    {
        auto it = constants_.find(v);
        if (it != constants_.end())
            return it->second;
        // Constants are pinned before the first emitted op so they
        // dominate every later use regardless of emission order.
        Value *c = constBuilder_.constantIndex(v);
        constants_[v] = c;
        return c;
    }

    void
    emitBufferization()
    {
        Type stored_mr =
            ctx_.memrefType({n_, d_}, ctx_.f32());
        Type query_mr = ctx_.memrefType({q_, d_}, ctx_.f32());
        storedMem_ = builder_
                         .create("bufferization.to_memref", {stored_},
                                 {stored_mr})
                         ->result(0);
        // The stored tensor is consumed by the setup phase only; tagging
        // it lets a session skip it on per-query re-entry.
        storedMem_->definingOp()->setAttr(camd::kPhaseAttr,
                                          Attribute(camd::kPhaseSetup));
        constBuilder_ = OpBuilder(ctx_);
        constBuilder_.setInsertionPoint(storedMem_->definingOp());
        queryMem_ = builder_
                        .create("bufferization.to_memref", {query_},
                                {query_mr})
                        ->result(0);
        distMem_ = builder_
                       .create("memref.alloc", {},
                               {ctx_.memrefType({q_, n_}, ctx_.f32())})
                       ->result(0);
        outValues_ = builder_
                         .create("memref.alloc", {},
                                 {ctx_.memrefType({q_, k_}, ctx_.f32())})
                         ->result(0);
        outIndices_ = builder_
                          .create("memref.alloc", {},
                                  {ctx_.memrefType({q_, k_}, ctx_.i64())})
                          ->result(0);
    }

    /** Open an scf.for in builder @p b; returns (loop, iv). */
    std::pair<Operation *, Value *>
    beginFor(OpBuilder &b, std::int64_t ub, const std::string &level)
    {
        Operation *loop =
            scfd::createFor(b, cIdx(0), cIdx(ub), cIdx(1));
        if (!level.empty())
            loop->setAttr("level", Attribute(level));
        b.setInsertionPointToEnd(scfd::loopBody(loop));
        return {loop, scfd::inductionVar(loop)};
    }

    /** Open an scf.parallel (or scf.for when @p parallel is false). */
    std::pair<Operation *, Value *>
    beginLoop(OpBuilder &b, std::int64_t ub, const std::string &level,
              bool parallel)
    {
        if (!parallel)
            return beginFor(b, ub, level);
        Operation *loop =
            scfd::createParallel(b, cIdx(0), cIdx(ub), cIdx(1), level);
        b.setInsertionPointToEnd(scfd::loopBody(loop));
        return {loop, scfd::inductionVar(loop)};
    }

    /** Emit `scf.if (lhs < rhs)` and move @p b inside. */
    Operation *
    beginIfLess(OpBuilder &b, Value *lhs, Value *rhs)
    {
        Value *cond =
            b.create("arith.cmpi", {lhs, rhs}, {ctx_.i1()},
                     {{"predicate", Attribute("slt")}})
                ->result(0);
        Operation *if_op = b.create("scf.if", {cond}, {}, {}, 1);
        if_op->region(0).addBlock();
        b.setInsertionPointToEnd(&if_op->region(0).front());
        return if_op;
    }

    Value *
    mul(OpBuilder &b, Value *a, Value *c)
    {
        return b.create("arith.muli", {a, c}, {ctx_.indexType()})
            ->result(0);
    }

    Value *
    add(OpBuilder &b, Value *a, Value *c)
    {
        return b.create("arith.addi", {a, c}, {ctx_.indexType()})
            ->result(0);
    }

    Value *
    minOf(OpBuilder &b, Value *a, Value *c)
    {
        return b.create("arith.minsi", {a, c}, {ctx_.indexType()})
            ->result(0);
    }

    Value *
    sub(OpBuilder &b, Value *a, Value *c)
    {
        return b.create("arith.subi", {a, c}, {ctx_.indexType()})
            ->result(0);
    }

    /** Linear physical subarray id of coordinates (b, m, a, s). */
    Value *
    physicalSubId(OpBuilder &b, Value *bank, Value *mat, Value *array,
                  Value *sub)
    {
        Value *acc = mul(b, bank, cIdx(spec_.matsPerBank));
        acc = add(b, acc, mat);
        acc = mul(b, acc, cIdx(spec_.arraysPerMat));
        acc = add(b, acc, array);
        acc = mul(b, acc, cIdx(spec_.subarraysPerArray));
        acc = add(b, acc, sub);
        return acc;
    }

    /**
     * Tile geometry for logical tile id (dynamic): returns
     * (rowOff, rowsHere, colOff, colsHere) as SSA values.
     */
    struct TileGeom
    {
        Value *rowOff;
        Value *rowsHere;
        Value *colOff;
        Value *colsHere;
    };

    TileGeom
    tileGeometry(OpBuilder &b, Value *tile)
    {
        Value *row_tile =
            b.create("arith.divsi", {tile, cIdx(plan_.colTiles)},
                     {ctx_.indexType()})
                ->result(0);
        Value *col_tile =
            b.create("arith.remsi", {tile, cIdx(plan_.colTiles)},
                     {ctx_.indexType()})
                ->result(0);
        TileGeom geom;
        geom.rowOff = mul(b, row_tile, cIdx(plan_.batchRows));
        geom.rowsHere =
            minOf(b, cIdx(plan_.batchRows), sub(b, cIdx(n_), geom.rowOff));
        geom.colOff = mul(b, col_tile, cIdx(spec_.cols));
        geom.colsHere =
            minOf(b, cIdx(spec_.cols), sub(b, cIdx(d_), geom.colOff));
        return geom;
    }

    /** memref.subview with dynamic offsets/sizes (rank 2). */
    Value *
    subview2d(OpBuilder &b, Value *src, Value *off0, Value *off1,
              Value *size0, Value *size1, Type elem)
    {
        Type result = ctx_.memrefType({0, 0}, elem);
        return b
            .create("memref.subview", {src, off0, off1, size0, size1},
                    {result},
                    {{"static_offsets",
                      Attribute(std::vector<Attribute>{
                          Attribute(std::int64_t(-1)),
                          Attribute(std::int64_t(-1))})},
                     {"static_sizes",
                      Attribute(std::vector<Attribute>{
                          Attribute(std::int64_t(-1)),
                          Attribute(std::int64_t(-1))})}})
            ->result(0);
    }

    //
    // Phase 1: setup -- allocate the hierarchy and program the tiles.
    //
    void
    emitSetup()
    {
        OpBuilder b = builder_;
        auto [bank_loop, bank_iv] = beginFor(b, plan_.banks, "bank");
        Value *bank = b.create(camd::kAllocBank,
                               {cIdx(spec_.rows), cIdx(spec_.cols)},
                               {camd::bankIdType(ctx_)})
                          ->result(0);

        auto [mat_loop, mat_iv] = beginFor(b, spec_.matsPerBank, "mat");
        // Allocate a mat only when its first subarray is in range.
        Value *mat_first = physicalSubId(b, bank_iv, mat_iv, cIdx(0),
                                         cIdx(0));
        beginIfLess(b, mat_first, cIdx(plan_.physicalSubarrays));
        Value *mat = b.create(camd::kAllocMat, {bank},
                              {camd::matIdType(ctx_)})
                         ->result(0);

        auto [array_loop, array_iv] =
            beginFor(b, spec_.arraysPerMat, "array");
        Value *array_first =
            physicalSubId(b, bank_iv, mat_iv, array_iv, cIdx(0));
        beginIfLess(b, array_first, cIdx(plan_.physicalSubarrays));
        Value *array = b.create(camd::kAllocArray, {mat},
                                {camd::arrayIdType(ctx_)})
                           ->result(0);

        auto [sub_loop, sub_iv] =
            beginFor(b, spec_.subarraysPerArray, "subarray");
        Value *phys = physicalSubId(b, bank_iv, mat_iv, array_iv, sub_iv);
        beginIfLess(b, phys, cIdx(plan_.physicalSubarrays));
        Value *sub_handle = b.create(camd::kAllocSubarray, {array},
                                     {camd::subarrayIdType(ctx_)})
                                ->result(0);

        // Statically unrolled batches (selective-search packing).
        for (std::int64_t batch = 0; batch < plan_.batchesPerSubarray;
             ++batch) {
            Value *tile = add(
                b, mul(b, phys, cIdx(plan_.batchesPerSubarray)),
                cIdx(batch));
            Operation *guard =
                beginIfLess(b, tile, cIdx(plan_.logicalTiles));
            TileGeom geom = tileGeometry(b, tile);
            Value *slice =
                subview2d(b, storedMem_, geom.rowOff, geom.colOff,
                          geom.rowsHere, geom.colsHere, ctx_.f32());
            b.create(camd::kWriteValue, {sub_handle, slice}, {},
                     {{"row_offset",
                       Attribute(batch * plan_.batchRows)}});
            b.setInsertionPointAfter(guard);
        }

        (void)mat_loop;
        (void)array_loop;
        (void)sub_loop;
        // Mark the whole setup nest: it programs the device once per
        // session and is skipped when a query re-enters the kernel.
        bank_loop->setAttr(camd::kPhaseAttr, Attribute(camd::kPhaseSetup));
        builder_.setInsertionPointAfter(bank_loop);
    }

    //
    // Phase 2: per-query search across the hierarchy.
    //
    void
    emitQueryLoop()
    {
        OpBuilder b = builder_;
        auto [q_loop, q_iv] = beginFor(b, q_, "query");
        q_loop->setAttr(camd::kPhaseAttr, Attribute(camd::kPhaseQuery));

        bool bank_par = spec_.bankMode == arch::AccessMode::Parallel;
        bool mat_par = spec_.matMode == arch::AccessMode::Parallel;
        bool array_par = spec_.arrayMode == arch::AccessMode::Parallel;

        auto [bank_loop, bank_iv] =
            beginLoop(b, plan_.banks, "bank", bank_par);
        auto [mat_loop, mat_iv] =
            beginLoop(b, spec_.matsPerBank, "mat", mat_par);
        auto [array_loop, array_iv] =
            beginLoop(b, spec_.arraysPerMat, "array", array_par);

        // Subarray level: base -> parallel; power -> sequential or
        // chunked (maxActiveSubarrays active at a time).
        int max_active = spec_.maxActiveSubarrays;
        bool sub_par = spec_.subarrayMode == arch::AccessMode::Parallel &&
                       (max_active == 0 ||
                        max_active >= spec_.subarraysPerArray);
        Value *sub_iv = nullptr;
        Operation *outer_sub_loop = nullptr;
        if (sub_par || max_active <= 1) {
            auto [loop, iv] = beginLoop(b, spec_.subarraysPerArray,
                                        "subarray", sub_par);
            outer_sub_loop = loop;
            sub_iv = iv;
        } else {
            // Chunked: sequential over ceil(S/k) chunks, parallel inside.
            std::int64_t chunks =
                ceilDiv(spec_.subarraysPerArray, max_active);
            auto [chunk_loop, chunk_iv] =
                beginFor(b, chunks, "subarray_chunk");
            outer_sub_loop = chunk_loop;
            auto [inner_loop, inner_iv] =
                beginLoop(b, max_active, "subarray", true);
            (void)inner_loop;
            sub_iv = add(b, mul(b, chunk_iv, cIdx(max_active)), inner_iv);
            Operation *bound_guard =
                beginIfLess(b, sub_iv, cIdx(spec_.subarraysPerArray));
            (void)bound_guard;
        }

        Value *phys = physicalSubId(b, bank_iv, mat_iv, array_iv, sub_iv);
        beginIfLess(b, phys, cIdx(plan_.physicalSubarrays));
        Value *sub_handle =
            b.create(camd::kGetSubarray,
                     {bank_iv, mat_iv, array_iv, sub_iv},
                     {camd::subarrayIdType(ctx_)})
                ->result(0);

        // Batches are searched in sequential cycles (selective search).
        for (std::int64_t batch = 0; batch < plan_.batchesPerSubarray;
             ++batch) {
            Value *tile =
                add(b, mul(b, phys, cIdx(plan_.batchesPerSubarray)),
                    cIdx(batch));
            Operation *guard =
                beginIfLess(b, tile, cIdx(plan_.logicalTiles));
            TileGeom geom = tileGeometry(b, tile);

            Value *qslice = subview2d(b, queryMem_, q_iv, geom.colOff,
                                      cIdx(1), geom.colsHere, ctx_.f32());
            Value *row_begin = cIdx(batch * plan_.batchRows);
            Value *row_end = add(b, row_begin, geom.rowsHere);
            Operation::AttrMap search_attrs = {
                {"kind", Attribute(camd::kKindBest)},
                {"metric", Attribute(metric_ == cimd::kMetricEucl
                                         ? camd::kMetricEucl
                                         : camd::kMetricHamming)}};
            if (spec_.selectiveSearch)
                search_attrs["selective"] = Attribute();
            b.create(camd::kSearch,
                     {sub_handle, qslice, row_begin, row_end}, {},
                     std::move(search_attrs));
            Operation *read =
                b.create(camd::kRead, {sub_handle},
                         {ctx_.memrefType({0}, ctx_.f32()),
                          ctx_.memrefType({0}, ctx_.i64())},
                         {{"kind", Attribute(camd::kKindBest)}});

            Value *acc = subview2d(b, distMem_, q_iv, geom.rowOff,
                                   cIdx(1), geom.rowsHere, ctx_.f32());
            b.create(camd::kMergePartialSubarray,
                     {sub_handle, acc, read->result(0)},
                     {ctx_.memrefType({0, 0}, ctx_.f32())},
                     {{"what", Attribute("values")},
                      {"direction", Attribute("horizontal")}});
            b.setInsertionPointAfter(guard);
        }

        (void)mat_loop;
        (void)array_loop;
        (void)outer_sub_loop;

        // After the hierarchy nest (still per query): final top-k.
        b.setInsertionPointAfter(bank_loop);
        Value *dist_row = subview2d(b, distMem_, q_iv, cIdx(0), cIdx(1),
                                    cIdx(n_), ctx_.f32());
        // Accumulated CAM values are distances (hamming for dot-encoded
        // binary data, squared euclidean otherwise): smaller is better.
        Operation *topk = b.create(
            cimd::kTopk, {dist_row},
            {ctx_.memrefType({1, k_}, ctx_.f32()),
             ctx_.memrefType({1, k_}, ctx_.i64())},
            {{"k", Attribute(k_)}, {"largest", Attribute(false)}});
        Value *out_v = subview2d(b, outValues_, q_iv, cIdx(0), cIdx(1),
                                 cIdx(k_), ctx_.f32());
        Value *out_i = subview2d(b, outIndices_, q_iv, cIdx(0), cIdx(1),
                                 cIdx(k_), ctx_.i64());
        b.create("memref.copy", {topk->result(0), out_v}, {});
        b.create("memref.copy", {topk->result(1), out_i}, {});

        builder_.setInsertionPointAfter(q_loop);
    }

    void
    rewireAndErase()
    {
        OpBuilder &b = builder_;
        Type values_t = ctx_.tensorType({q_, k_}, ctx_.f32());
        Type indices_t = ctx_.tensorType({q_, k_}, ctx_.f32());
        Value *values_tensor =
            b.create("bufferization.to_tensor", {outValues_}, {values_t})
                ->result(0);
        Value *indices_tensor =
            b.create("bufferization.to_tensor", {outIndices_},
                     {indices_t})
                ->result(0);

        Operation *old_yield = cimd::executeBody(kernel_.execute)->back();
        for (std::size_t i = 0; i < kernel_.execute->numResults(); ++i) {
            Value *yielded = old_yield->operand(i);
            C4CAM_ASSERT(yielded->definingOp() == kernel_.similarity,
                         "mapped execute must yield similarity results");
            Value *replacement = yielded->index() == 0 ? values_tensor
                                                       : indices_tensor;
            kernel_.execute->result(i)->replaceAllUsesWith(replacement);
        }
        kernel_.release->dropAllReferences();
        kernel_.release->erase();
        kernel_.execute->dropAllReferences();
        kernel_.execute->erase();
        kernel_.acquire->dropAllReferences();
        kernel_.acquire->erase();
    }

    Context &ctx_;
    const arch::ArchSpec &spec_;
    Kernel kernel_;
    OpBuilder builder_;
    OpBuilder constBuilder_{ctx_};
    MappingPlan plan_;

    std::string metric_;
    Value *stored_ = nullptr;
    Value *query_ = nullptr;
    std::int64_t n_ = 0;
    std::int64_t d_ = 0;
    std::int64_t q_ = 0;
    std::int64_t k_ = 1;

    Value *storedMem_ = nullptr;
    Value *queryMem_ = nullptr;
    Value *distMem_ = nullptr;
    Value *outValues_ = nullptr;
    Value *outIndices_ = nullptr;

    std::map<std::int64_t, Value *> constants_;
};

} // namespace

MappingPlan
MappingPlan::compute(const arch::ArchSpec &spec, std::int64_t queries,
                     std::int64_t n, std::int64_t d)
{
    MappingPlan plan;
    plan.queries = queries;
    plan.storedRows = n;
    plan.featureDim = d;
    plan.batchRows = std::min<std::int64_t>(n, spec.rows);
    plan.rowTiles = ceilDiv(n, spec.rows);
    plan.colTiles = ceilDiv(d, spec.cols);
    plan.logicalTiles = plan.rowTiles * plan.colTiles;
    plan.batchesPerSubarray = 1;
    if (spec.selectiveSearch && plan.batchRows < spec.rows)
        plan.batchesPerSubarray =
            std::max<std::int64_t>(1, spec.rows / plan.batchRows);
    plan.physicalSubarrays =
        ceilDiv(plan.logicalTiles, plan.batchesPerSubarray);
    std::int64_t per_bank = spec.subarraysPerBank();
    plan.banks = spec.numBanks > 0
                     ? spec.numBanks
                     : ceilDiv(plan.physicalSubarrays, per_bank);
    return plan;
}

void
CamMappingPass::run(Module &module)
{
    std::vector<Kernel> kernels = collectKernels(module);
    C4CAM_CHECK(!kernels.empty(),
                "cam-map: no fused cim.similarity kernel found (run "
                "torch-to-cim, cim-fuse-ops and cim-similarity-match "
                "first)");
    for (Kernel &kernel : kernels) {
        KernelMapper mapper(module.context(), spec_, kernel);
        plan_ = mapper.map();
    }
}

} // namespace c4cam::passes
