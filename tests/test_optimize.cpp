/**
 * @file
 * IR optimizer and translation-validator tests (analysis/optimize.h,
 * analysis/equiv.h) plus the pipeline/campaign OptMode invariants:
 *
 *  - pass-level unit tests over hand-built programs (branch folding,
 *    copy propagation, dead code, preserved fault behavior);
 *  - a randomized oracle: original and optimized programs run under
 *    the concrete IR interpreter from hundreds of random initial
 *    states per sampled instruction and must agree byte for byte;
 *  - validator positive/negative tests, including a hand-miscompiled
 *    program that must yield a concrete counterexample;
 *  - Report::sort() canonical-order regression (byte-stable output);
 *  - OptMode::On produces the same tests and difference clusters as
 *    Off (the stage-2 test-identity invariant), and the sharded
 *    campaign report stays byte-identical with the optimizer enabled.
 */
#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostic.h"
#include "analysis/equiv.h"
#include "analysis/optimize.h"
#include "arch/decoder.h"
#include "arch/insn_table.h"
#include "explore/state_spec.h"
#include "harness/filter.h"
#include "hifi/semantics.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "pokeemu/shard.h"
#include "testgen/testgen.h"

namespace pokeemu {
namespace {

namespace E = ir::E;
namespace layout = arch::layout;
using analysis::optimize_program;
using analysis::OptResult;
using ir::IrBuilder;

int
index_of(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    EXPECT_EQ(arch::decode(buf.data(), buf.size(), insn),
              arch::DecodeStatus::Ok);
    return insn.table_index;
}

/** Decode a table entry's canonical encoding. */
arch::DecodedInsn
decode_index(int index)
{
    const std::vector<u8> bytes = arch::canonical_encoding(index);
    arch::DecodedInsn insn;
    EXPECT_EQ(arch::decode(bytes.data(), bytes.size(), insn),
              arch::DecodeStatus::Ok);
    return insn;
}

std::size_t
count_kind(const ir::Program &program, ir::StmtKind kind)
{
    std::size_t n = 0;
    for (const ir::Stmt &s : program.stmts)
        if (s.kind == kind)
            ++n;
    return n;
}

/**
 * Deterministic random-state memory for the oracle test: every byte's
 * initial value is a hash of (seed, address), writes go to an overlay
 * map. Two instances with the same seed present identical initial
 * state, so comparing the overlays compares the programs' outputs.
 * ECX is pinned to a small count so rep-prefixed programs terminate
 * within the step budget on both sides.
 */
class HashedMemory final : public ir::ConcreteMemory
{
  public:
    explicit HashedMemory(u64 seed) : seed_(seed) {}

    u64 load(u32 addr, unsigned size) override
    {
        u64 v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<u64>(byte(addr + i)) << (8 * i);
        return v;
    }

    void store(u32 addr, unsigned size, u64 value) override
    {
        for (unsigned i = 0; i < size; ++i)
            written_[addr + i] =
                static_cast<u8>(value >> (8 * i));
    }

    const std::map<u32, u8> &written() const { return written_; }

  private:
    u8 byte(u32 addr) const
    {
        const auto it = written_.find(addr);
        if (it != written_.end())
            return it->second;
        const u32 ecx = layout::gpr_addr(1);
        if (addr == ecx)
            return mix(addr) & 3; // rep count <= 3
        if (addr > ecx && addr < ecx + 4)
            return 0;
        return mix(addr);
    }

    u8 mix(u32 addr) const
    {
        u64 x = seed_ ^ (static_cast<u64>(addr) * 0x9e3779b97f4a7c15ULL);
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return static_cast<u8>(x);
    }

    u64 seed_;
    std::map<u32, u8> written_;
};

/** Per-byte fresh-variable environment for hand-program validation. */
symexec::InitialByteFn
free_initial(symexec::VarPool &pool)
{
    return [&pool](u32 addr) {
        return pool.get("mem_" + std::to_string(addr), 8);
    };
}

// ---------------------------------------------------------------------
// Optimizer pass units.
// ---------------------------------------------------------------------

TEST(Optimize, ConstantBranchFoldsAndUnreachableSideIsRemoved)
{
    IrBuilder b("fold");
    const ir::Label t = b.label();
    const ir::Label f = b.label();
    b.cjmp(E::eq(IrBuilder::imm32(1), IrBuilder::imm32(1)), t, f);
    b.bind(f);
    b.store(IrBuilder::imm32(0x1000), 4, IrBuilder::imm32(0xdead));
    b.halt(2);
    b.bind(t);
    b.store(IrBuilder::imm32(0x1000), 4, IrBuilder::imm32(0xbeef));
    b.halt(1);

    const OptResult r = optimize_program(b.finish());
    EXPECT_LT(r.stats.exec_after, r.stats.exec_before);
    EXPECT_EQ(count_kind(r.program, ir::StmtKind::CJmp), 0u);

    HashedMemory m(1);
    const ir::RunResult run = ir::run_concrete(r.program, m);
    EXPECT_EQ(run.status, ir::RunStatus::Halted);
    EXPECT_EQ(run.halt_code, 1u);
    EXPECT_EQ(m.load(0x1000, 4), 0xbeefu);
}

TEST(Optimize, SingleUseAssignIsForwardSubstituted)
{
    // The builder folds constant assigns itself, so a Load supplies
    // the non-constant value that forces a real temp chain.
    IrBuilder b("copyprop");
    const ir::ExprRef v = b.load(IrBuilder::imm32(0x100), 4);
    const ir::ExprRef c = b.assign(E::add(v, IrBuilder::imm32(1)));
    b.store(IrBuilder::imm32(0x2000), 4, c);
    b.halt(0);

    const OptResult r = optimize_program(b.finish());
    // The single-use assign inlines into the store and dies:
    // load + store + halt survive.
    EXPECT_EQ(r.stats.exec_after, 3u);
    EXPECT_GE(r.stats.copies_propagated, 1u);
    EXPECT_GE(r.stats.dead_assigns, 1u);

    HashedMemory m(2);
    const u64 input = m.load(0x100, 4);
    const ir::RunResult run = ir::run_concrete(r.program, m);
    EXPECT_EQ(run.status, ir::RunStatus::Halted);
    EXPECT_EQ(m.load(0x2000, 4), (input + 1) & 0xffffffffu);
}

TEST(Optimize, DeadAssignAndConstantAddressLoadAreRemoved)
{
    IrBuilder b("deadassign");
    const ir::ExprRef v = b.load(IrBuilder::imm32(0x100), 4);
    (void)b.assign(E::add(v, IrBuilder::imm32(7)), "never used");
    b.halt(0);

    const OptResult r = optimize_program(b.finish());
    EXPECT_EQ(r.stats.exec_after, 1u); // just the halt
    EXPECT_GE(r.stats.dead_assigns, 1u);
    EXPECT_GE(r.stats.dead_loads, 1u);
}

TEST(Optimize, OverwrittenConstantStoreIsRemoved)
{
    IrBuilder b("deadstore");
    b.store(IrBuilder::imm32(0x3000), 4, IrBuilder::imm32(0x11));
    b.store(IrBuilder::imm32(0x3000), 4, IrBuilder::imm32(0x22));
    b.halt(0);

    const OptResult r = optimize_program(b.finish());
    EXPECT_EQ(r.stats.exec_after, 2u);
    EXPECT_GE(r.stats.dead_stores, 1u);

    HashedMemory m(3);
    (void)ir::run_concrete(r.program, m);
    EXPECT_EQ(m.load(0x3000, 4), 0x22u);
}

TEST(Optimize, FalseAssumeIsKeptTrueAssumeIsDropped)
{
    IrBuilder fail("assume-false");
    fail.assume(E::constant(1, 0), "always infeasible");
    fail.store(IrBuilder::imm32(0x4000), 4, IrBuilder::imm32(1));
    fail.halt(0);
    const ir::Program original = fail.finish();

    const OptResult r = optimize_program(original);
    EXPECT_EQ(r.stats.assumes_dropped, 0u);
    // The fault behavior is the program's observable output here.
    HashedMemory ma(4);
    HashedMemory mb(4);
    EXPECT_EQ(ir::run_concrete(original, ma).status,
              ir::RunStatus::AssumeFailed);
    EXPECT_EQ(ir::run_concrete(r.program, mb).status,
              ir::RunStatus::AssumeFailed);

    IrBuilder ok("assume-true");
    ok.assume(E::constant(1, 1), "vacuous");
    ok.halt(0);
    const OptResult r2 = optimize_program(ok.finish());
    EXPECT_GE(r2.stats.assumes_dropped, 1u);
    EXPECT_EQ(count_kind(r2.program, ir::StmtKind::Assume), 0u);
}

TEST(Optimize, IdempotentOnRealSemantics)
{
    const arch::DecodedInsn insn = decode_index(index_of({0x50}));
    const ir::Program original = hifi::build_semantics(insn);
    const OptResult once = optimize_program(original);
    const OptResult twice = optimize_program(once.program);
    EXPECT_EQ(twice.stats.exec_before, twice.stats.exec_after)
        << "second optimization round found more work";
}

TEST(Optimize, OptimizedSemanticsStayVerifierClean)
{
    const int n = static_cast<int>(arch::insn_table().size());
    for (int i = 0; i < n; i += 31) {
        const OptResult r = optimize_program(
            hifi::build_semantics(decode_index(i)));
        // finish()/validate() level invariants must hold again.
        EXPECT_NO_THROW(r.program.validate()) << "insn " << i;
        // Some tiny semantics have nothing left to remove; the
        // aggregate reduction floor lives in the oracle test.
        EXPECT_LE(r.stats.exec_after, r.stats.exec_before)
            << "insn " << i;
    }
}

// ---------------------------------------------------------------------
// Satellite 1: randomized concrete oracle, original vs optimized.
// ---------------------------------------------------------------------

TEST(OptimizeOracle, RandomInitialStatesAgreeByteForByte)
{
    const int n = static_cast<int>(arch::insn_table().size());
    u64 exec_before = 0;
    u64 exec_after = 0;
    for (int i = 0; i < n; i += 29) {
        const ir::Program original =
            hifi::build_semantics(decode_index(i));
        const OptResult opt = optimize_program(original);
        exec_before += opt.stats.exec_before;
        exec_after += opt.stats.exec_after;
        for (u64 seed = 0; seed < 300; ++seed) {
            HashedMemory ma(seed);
            HashedMemory mb(seed);
            const ir::RunResult ra = ir::run_concrete(original, ma);
            const ir::RunResult rb =
                ir::run_concrete(opt.program, mb);
            ASSERT_EQ(ra.status, rb.status)
                << "insn " << i << " seed " << seed;
            if (ra.status == ir::RunStatus::Halted) {
                ASSERT_EQ(ra.halt_code, rb.halt_code)
                    << "insn " << i << " seed " << seed;
            }
            ASSERT_EQ(ma.written(), mb.written())
                << "insn " << i << " seed " << seed
                << ": final memory diverged";
        }
    }
    EXPECT_LT(exec_after, exec_before);
}

// ---------------------------------------------------------------------
// Translation validator.
// ---------------------------------------------------------------------

TEST(Equiv, ProvesRealOptimizationEquivalent)
{
    const int index = index_of({0x50}); // push eax
    const arch::DecodedInsn insn = decode_index(index);
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    hifi::SemanticsOptions sem_options;
    sem_options.descriptor_summary = &summary;
    const ir::Program original =
        hifi::build_semantics(insn, sem_options);
    const OptResult opt = optimize_program(original);

    symexec::VarPool pool;
    analysis::EquivOptions eq;
    eq.preconditions = spec.preconditions(pool);
    eq.eflags_addr = layout::kEflagsAddr;
    eq.eflags_ignore_mask =
        harness::undefined_flags_mask(arch::insn_table()[index].op);
    const analysis::EquivResult res = analysis::validate_translation(
        original, opt.program, pool, spec.initial_fn(pool), eq);

    EXPECT_TRUE(res.equivalent);
    EXPECT_TRUE(res.proven);
    EXPECT_FALSE(res.counterexample.has_value());
    EXPECT_GT(res.original_paths, 0u);
    EXPECT_GT(res.pairs_checked, 0u);
    EXPECT_GT(res.bytes_compared + res.bytes_structural, 0u);
}

TEST(Equiv, MiscompiledStoreYieldsCounterexample)
{
    IrBuilder good("good");
    {
        const ir::ExprRef v =
            good.load(IrBuilder::imm32(0x100), 1,
                      ir::ConcretizePolicy::SingleRandom, "input");
        good.store(IrBuilder::imm32(0x200), 1, v);
        good.halt(0);
    }
    IrBuilder bad("bad");
    {
        const ir::ExprRef v =
            bad.load(IrBuilder::imm32(0x100), 1,
                     ir::ConcretizePolicy::SingleRandom, "input");
        bad.store(IrBuilder::imm32(0x200), 1,
                  E::add(v, IrBuilder::imm8(1)));
        bad.halt(0);
    }

    symexec::VarPool pool;
    const analysis::EquivResult res = analysis::validate_translation(
        good.finish(), bad.finish(), pool, free_initial(pool), {});
    EXPECT_FALSE(res.equivalent);
    ASSERT_TRUE(res.counterexample.has_value());
    EXPECT_FALSE(res.counterexample->halt_mismatch);
    EXPECT_EQ(res.counterexample->addr, 0x200u);
    // The model must be renderable (verbatim dump requirement).
    EXPECT_FALSE(res.counterexample->to_string(pool).empty());
}

TEST(Equiv, HaltCodeMismatchIsACounterexample)
{
    IrBuilder good("good");
    good.halt(1);
    IrBuilder bad("bad");
    bad.halt(2);

    symexec::VarPool pool;
    const analysis::EquivResult res = analysis::validate_translation(
        good.finish(), bad.finish(), pool, free_initial(pool), {});
    EXPECT_FALSE(res.equivalent);
    ASSERT_TRUE(res.counterexample.has_value());
    EXPECT_TRUE(res.counterexample->halt_mismatch);
    EXPECT_EQ(res.counterexample->original_halt, 1u);
    EXPECT_EQ(res.counterexample->optimized_halt, 2u);
}

TEST(Equiv, EflagsIgnoreMaskPermitsUndefinedBitsOnly)
{
    const u32 eflags = layout::kEflagsAddr;
    const auto build = [&](u64 value) {
        IrBuilder b("flags");
        b.store(IrBuilder::imm32(eflags), 1, IrBuilder::imm8(value));
        b.halt(0);
        return b.finish();
    };
    const ir::Program original = build(0x00);
    const ir::Program masked = build(0x10); // differs in AF only

    symexec::VarPool pool_a;
    analysis::EquivOptions eq;
    eq.eflags_addr = eflags;
    eq.eflags_ignore_mask = 0x10;
    EXPECT_TRUE(analysis::validate_translation(
                    original, masked, pool_a, free_initial(pool_a), eq)
                    .equivalent);

    symexec::VarPool pool_b;
    eq.eflags_ignore_mask = 0;
    EXPECT_FALSE(analysis::validate_translation(
                     original, masked, pool_b, free_initial(pool_b),
                     eq)
                     .equivalent);
}

// ---------------------------------------------------------------------
// Satellite 2: deterministic diagnostic ordering.
// ---------------------------------------------------------------------

TEST(ReportSort, CanonicalOrderIsInsertionIndependent)
{
    const auto fill = [](analysis::Report &r, bool reversed) {
        std::vector<std::tuple<analysis::Severity, u32, const char *,
                               const char *>>
            rows = {
                {analysis::Severity::Note, 5, "liveness", "n1"},
                {analysis::Severity::Error, analysis::kNoStmt,
                 "verifier", "program-level"},
                {analysis::Severity::Warning, 2, "cfg", "w"},
                {analysis::Severity::Error, 2, "cfg", "e"},
                {analysis::Severity::Note, 2, "dataflow", "n2"},
            };
        if (reversed)
            std::reverse(rows.begin(), rows.end());
        for (const auto &[sev, stmt, pass, msg] : rows)
            r.add(sev, stmt, pass, msg);
    };
    analysis::Report forward;
    analysis::Report backward;
    fill(forward, false);
    fill(backward, true);
    forward.sort();
    backward.sort();
    EXPECT_EQ(forward.to_string(), backward.to_string());

    const auto &d = forward.diagnostics();
    ASSERT_EQ(d.size(), 5u);
    // By statement first; program-level (kNoStmt) findings last.
    EXPECT_EQ(d[0].stmt_index, 2u);
    EXPECT_EQ(d[0].pass, "cfg");
    EXPECT_EQ(d[0].severity, analysis::Severity::Error); // errors first
    EXPECT_EQ(d[1].severity, analysis::Severity::Warning);
    EXPECT_EQ(d[2].pass, "dataflow");
    EXPECT_EQ(d[3].stmt_index, 5u);
    EXPECT_EQ(d[4].stmt_index, analysis::kNoStmt);
}

// ---------------------------------------------------------------------
// Pipeline and campaign OptMode invariants.
// ---------------------------------------------------------------------

PipelineOptions
small_pipeline()
{
    PipelineOptions options;
    options.instruction_filter = {
        index_of({0x50}),       // push eax
        index_of({0x74, 0x00}), // jz
        index_of({0xd3, 0xe0}), // shl eax, cl
    };
    options.max_paths_per_insn = 8;
    return options;
}

TEST(PipelineOpt, ValidatedModeKeepsTestsAndClustersIdentical)
{
    // Replay on optimized IR; the optimizer itself is proven by the
    // ir_equiv_all and semgen_crosscheck_all ctests.
    Pipeline off(small_pipeline());
    off.run();

    PipelineOptions on_options = small_pipeline();
    on_options.opt = analysis::OptMode::On;
    Pipeline on(on_options);
    on.run();

    // Stage-2 test identity: same tests, byte for byte.
    ASSERT_EQ(on.tests().size(), off.tests().size());
    for (std::size_t i = 0; i < off.tests().size(); ++i) {
        const GeneratedTest &a = off.tests()[i];
        const GeneratedTest &b = on.tests()[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.table_index, b.table_index);
        EXPECT_EQ(a.halt_code, b.halt_code);
        EXPECT_EQ(a.program.code, b.program.code) << "test " << i;
    }

    // Stage-4/5 outcomes identical: replaying proven-equivalent IR
    // cannot move any diff or cluster.
    const PipelineStats &so = off.stats();
    const PipelineStats &sn = on.stats();
    EXPECT_EQ(sn.total_paths, so.total_paths);
    EXPECT_EQ(sn.tests_executed, so.tests_executed);
    EXPECT_EQ(sn.lofi_raw_diffs, so.lofi_raw_diffs);
    EXPECT_EQ(sn.hifi_raw_diffs, so.hifi_raw_diffs);
    EXPECT_EQ(sn.lofi_diffs, so.lofi_diffs);
    EXPECT_EQ(sn.hifi_diffs, so.hifi_diffs);
    EXPECT_EQ(sn.lofi_clusters.to_string(),
              so.lofi_clusters.to_string());
    EXPECT_EQ(sn.hifi_clusters.to_string(),
              so.hifi_clusters.to_string());
    EXPECT_EQ(sn.quarantine.total(), 0u);
}

TEST(CampaignOpt, MergedReportByteIdenticalAcrossShardCounts)
{
    CampaignOptions options;
    options.pipeline = small_pipeline();
    options.pipeline.opt = analysis::OptMode::On;
    const std::string reference = run_campaign(options).report();

    for (u32 shards : {2u, 4u}) {
        CampaignOptions sharded = options;
        sharded.shards = shards;
        const CampaignResult result = run_campaign(sharded);
        EXPECT_TRUE(result.complete);
        EXPECT_EQ(result.report(), reference)
            << "shards=" << shards;
    }
}

} // namespace
} // namespace pokeemu
