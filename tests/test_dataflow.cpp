/**
 * @file
 * Tests for the abstract-interpretation dataflow engine (analysis/
 * domains + analysis/dataflow) and its three consumers: transfer
 * functions and the over-approximation property, fixpoint behaviour on
 * straight-line and looping programs, static pruning of explorer
 * solver probes (including a full-table soundness check of the skipped
 * probes), the derived EFLAGS write oracle, and the dataflow-backed
 * lint passes.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/domains.h"
#include "analysis/passes.h"
#include "arch/decoder.h"
#include "explore/state_explorer.h"
#include "ir/builder.h"
#include "support/rng.h"
#include "symexec/explorer.h"
#include "testgen/testgen.h"

namespace pokeemu::analysis {
namespace {

using ir::BinOpKind;
using ir::ExprRef;
using ir::IrBuilder;
using ir::Label;
using ir::UnOpKind;
using pokeemu::Rng;
namespace E = ir::E;

// ---------------------------------------------------------------------
// Fact domain: constructors, normalize, join/meet, decide.
// ---------------------------------------------------------------------

TEST(FactDomain, ConstantRoundTrip)
{
    const Fact f = Fact::constant(32, 0xdeadbeef);
    EXPECT_TRUE(f.is_constant());
    EXPECT_EQ(f.value(), 0xdeadbeefu);
    EXPECT_TRUE(f.contains(0xdeadbeef));
    EXPECT_FALSE(f.contains(0xdeadbee0));
}

TEST(FactDomain, NormalizeDerivesIntervalFromKnownBits)
{
    // Bit 7 known one, everything else unknown: lo must be >= 0x80.
    const Fact f = Fact::known(8, 0, 0x80).normalize();
    EXPECT_GE(f.lo, 0x80u);
    EXPECT_EQ(f.hi, 0xffu);
    EXPECT_FALSE(f.contains(0x7f));
    EXPECT_TRUE(f.contains(0x80));
}

TEST(FactDomain, NormalizeDerivesKnownBitsFromInterval)
{
    // [0x80, 0xff]: the shared leading bit becomes known one.
    const Fact f = Fact::range(8, 0x80, 0xff).normalize();
    EXPECT_NE(f.ones & 0x80u, 0u);
}

TEST(FactDomain, MeetContradictionIsBottom)
{
    const Fact a = Fact::constant(8, 3);
    const Fact b = Fact::constant(8, 4);
    EXPECT_TRUE(a.meet(b).bottom);
}

TEST(FactDomain, JoinContainsBothSides)
{
    const Fact j = Fact::constant(8, 3).join(Fact::constant(8, 12));
    EXPECT_TRUE(j.contains(3));
    EXPECT_TRUE(j.contains(12));
    EXPECT_FALSE(j.bottom);
}

TEST(FactDomain, DecideOneBit)
{
    EXPECT_EQ(Fact::constant(1, 1).decide(), std::optional<bool>(true));
    EXPECT_EQ(Fact::constant(1, 0).decide(), std::optional<bool>(false));
    EXPECT_EQ(Fact::top(1).decide(), std::nullopt);
}

// ---------------------------------------------------------------------
// Transfer functions.
// ---------------------------------------------------------------------

TEST(FactTransfer, ConstantsFoldThroughEveryBinop)
{
    const Fact a = Fact::constant(32, 100);
    const Fact b = Fact::constant(32, 7);
    EXPECT_EQ(Fact::binop(BinOpKind::Add, a, b).value(), 107u);
    EXPECT_EQ(Fact::binop(BinOpKind::Sub, a, b).value(), 93u);
    EXPECT_EQ(Fact::binop(BinOpKind::Mul, a, b).value(), 700u);
    EXPECT_EQ(Fact::binop(BinOpKind::And, a, b).value(), 100u & 7u);
    EXPECT_EQ(Fact::binop(BinOpKind::Or, a, b).value(), 100u | 7u);
    EXPECT_EQ(Fact::binop(BinOpKind::Xor, a, b).value(), 100u ^ 7u);
    EXPECT_EQ(Fact::binop(BinOpKind::Shl, a, b).value(), 100u << 7);
    EXPECT_EQ(Fact::binop(BinOpKind::LShr, a, b).value(), 100u >> 7);
    EXPECT_EQ(Fact::binop(BinOpKind::ULt, b, a).value(), 1u);
    EXPECT_EQ(Fact::binop(BinOpKind::Eq, a, a).value(), 1u);
}

TEST(FactTransfer, IntervalAddPropagatesBounds)
{
    const Fact a = Fact::range(32, 10, 20);
    const Fact b = Fact::range(32, 1, 2);
    const Fact s = Fact::binop(BinOpKind::Add, a, b);
    EXPECT_TRUE(s.contains(11));
    EXPECT_TRUE(s.contains(22));
    EXPECT_FALSE(s.contains(10));
    EXPECT_FALSE(s.contains(23));
}

TEST(FactTransfer, KnownZeroBitsSurviveAnd)
{
    // Low nibble known zero, AND with anything keeps it zero.
    const Fact a = Fact::known(8, 0x0f, 0);
    const Fact r = Fact::binop(BinOpKind::And, a, Fact::top(8));
    EXPECT_EQ(r.zeros & 0x0fu, 0x0fu);
}

TEST(FactTransfer, ComparisonDecidedByDisjointIntervals)
{
    const Fact lo = Fact::range(32, 0, 9);
    const Fact hi = Fact::range(32, 100, 200);
    EXPECT_EQ(Fact::binop(BinOpKind::ULt, lo, hi).decide(),
              std::optional<bool>(true));
    EXPECT_EQ(Fact::binop(BinOpKind::ULt, hi, lo).decide(),
              std::optional<bool>(false));
    EXPECT_EQ(Fact::binop(BinOpKind::Eq, lo, hi).decide(),
              std::optional<bool>(false));
}

TEST(FactTransfer, WidthCasts)
{
    EXPECT_EQ(Fact::zext_to(Fact::constant(8, 0xff), 32).value(), 0xffu);
    EXPECT_EQ(Fact::sext_to(Fact::constant(8, 0x80), 32).value(),
              0xffffff80u);
    EXPECT_EQ(Fact::sext_to(Fact::constant(8, 0x7f), 32).value(), 0x7fu);
    EXPECT_EQ(Fact::extract_from(Fact::constant(32, 0xabcd), 8, 8)
                  .value(),
              0xabu);
    // Zext keeps interval bounds.
    const Fact z = Fact::zext_to(Fact::range(8, 3, 5), 32);
    EXPECT_TRUE(z.contains(3) && z.contains(5));
    EXPECT_FALSE(z.contains(6));
}

TEST(FactTransfer, FlagBitExtraction)
{
    // Bit 7 known one: extracting it yields constant 1; bit 0 unknown.
    const Fact f = Fact::known(32, 0, 0x80);
    EXPECT_EQ(Fact::extract_from(f, 7, 1).decide(),
              std::optional<bool>(true));
    EXPECT_EQ(Fact::extract_from(f, 0, 1).decide(), std::nullopt);
}

TEST(FactTransfer, UnopsFoldConstants)
{
    EXPECT_EQ(Fact::unop(UnOpKind::Not, Fact::constant(8, 0x0f)).value(),
              0xf0u);
    EXPECT_EQ(Fact::unop(UnOpKind::Neg, Fact::constant(8, 1)).value(),
              0xffu);
}

TEST(FactTransfer, IteJoinsArmsUnderUnknownCondition)
{
    const Fact r = Fact::ite(Fact::top(1), Fact::constant(8, 3),
                             Fact::constant(8, 9));
    EXPECT_TRUE(r.contains(3) && r.contains(9));
    const Fact t = Fact::ite(Fact::constant(1, 1), Fact::constant(8, 3),
                             Fact::constant(8, 9));
    EXPECT_EQ(t.value(), 3u);
}

// ---------------------------------------------------------------------
// FactEnv: assume mining and memoized evaluation.
// ---------------------------------------------------------------------

TEST(FactEnv, AssumeMinesEqualityAndBounds)
{
    const ExprRef x = E::var(1, "x", 32);
    const ExprRef y = E::var(2, "y", 32);
    FactEnv env;
    env.assume(E::eq(x, E::constant(32, 42)));
    env.assume(E::ult(y, E::constant(32, 10)));
    EXPECT_EQ(env.eval(x).value(), 42u);
    const Fact fy = env.eval(y);
    EXPECT_TRUE(fy.contains(9));
    EXPECT_FALSE(fy.contains(10));
}

TEST(FactEnv, AssumeMinesConjunctionsAndBitShapes)
{
    const ExprRef x = E::var(1, "x", 32);
    const ExprRef y = E::var(2, "y", 32);
    FactEnv env;
    env.assume(E::land(
        E::eq(E::band(x, E::constant(32, 0xff)), E::constant(32, 0x80)),
        E::ule(y, E::constant(32, 5))));
    // Low byte of x pinned to 0x80.
    EXPECT_EQ(env.eval(E::band(x, E::constant(32, 0xff))).value(), 0x80u);
    EXPECT_FALSE(env.eval(y).contains(6));
}

TEST(FactEnv, EvalCombinesVarFactsThroughExpressions)
{
    const ExprRef x = E::var(1, "x", 32);
    FactEnv env;
    env.assume(E::ult(x, E::constant(32, 10)));
    // x < 10 implies x + 5 < 15 and (x < 20) decides true.
    const Fact sum = env.eval(E::add(x, E::constant(32, 5)));
    EXPECT_FALSE(sum.contains(15));
    EXPECT_EQ(env.eval(E::ult(x, E::constant(32, 20))).decide(),
              std::optional<bool>(true));
}

// ---------------------------------------------------------------------
// Over-approximation property: for random expressions and concrete
// valuations consistent with the environment, the evaluated fact
// contains the concrete value (the soundness contract in domains.h).
// ---------------------------------------------------------------------

ExprRef
random_expr(Rng &rng, const std::vector<ExprRef> &vars, unsigned depth)
{
    if (depth == 0 || rng.below(4) == 0) {
        if (rng.below(2) == 0)
            return vars[rng.below(vars.size())];
        return E::constant(32, rng.next() & 0xffffffffu);
    }
    const ExprRef a = random_expr(rng, vars, depth - 1);
    const ExprRef b = random_expr(rng, vars, depth - 1);
    switch (rng.below(12)) {
      case 0: return E::add(a, b);
      case 1: return E::sub(a, b);
      case 2: return E::mul(a, b);
      case 3: return E::band(a, b);
      case 4: return E::bor(a, b);
      case 5: return E::bxor(a, b);
      case 6: return E::shl(a, E::constant(32, rng.below(32)));
      case 7: return E::lshr(a, E::constant(32, rng.below(32)));
      case 8: return E::bnot(a);
      case 9: return E::zext(E::extract(a, rng.below(24), 8), 32);
      case 10: return E::sext(E::extract(a, rng.below(24), 8), 32);
      default: return E::ite(E::ult(a, b), a, b);
    }
}

TEST(FactEnv, EvalOverApproximatesConcreteEvaluation)
{
    const std::vector<ExprRef> vars = {
        E::var(1, "a", 32), E::var(2, "b", 32), E::var(3, "c", 32)};
    Rng rng(0x5eed);
    for (int round = 0; round < 300; ++round) {
        FactEnv env;
        // Var 1 interval-bounded, var 2 with known-zero low bits,
        // var 3 unconstrained.
        env.assume(E::ult(vars[0], E::constant(32, 1000)));
        env.assume(E::eq(E::band(vars[1], E::constant(32, 0xf)),
                         E::constant(32, 0)));
        const u64 va = rng.below(1000);
        const u64 vb = (rng.next() & 0xffffffffu) & ~u64{0xf};
        const u64 vc = rng.next() & 0xffffffffu;
        const ExprRef e = random_expr(rng, vars, 4);
        const Fact fact = env.eval(e);
        const std::function<u64(const ir::Expr &)> lookup =
            [&](const ir::Expr &leaf) -> u64 {
            switch (leaf.var_id()) {
              case 1: return va;
              case 2: return vb;
              default: return vc;
            }
        };
        const u64 concrete = ir::eval_expr(e, &lookup);
        ASSERT_TRUE(fact.contains(concrete))
            << "round " << round << ": fact " << fact.to_string()
            << " omits " << concrete;
    }
}

// ---------------------------------------------------------------------
// analyze_program: decisions, reachability, write summaries, loops.
// ---------------------------------------------------------------------

TEST(Dataflow, AssumeImpliedBranchIsDecided)
{
    // Single-byte load: the value is one analysis variable, so the
    // assume is minable for an interval fact (a multi-byte load is a
    // concat of byte variables, beyond the assume miner).
    IrBuilder b("decided");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(10)));
    Label t = b.label(), f = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm8(20)), t, f);
    b.bind(t);
    b.halt(1);
    b.bind(f);
    b.halt(2);
    const ir::Program p = b.finish();

    const Cfg cfg = Cfg::build(p);
    const ProgramFacts facts = analyze_program(p, cfg);
    ASSERT_TRUE(facts.analyzed);
    EXPECT_TRUE(facts.converged);
    EXPECT_EQ(facts.decided_cjmps, 1u);
    bool saw = false;
    for (u32 i = 0; i < p.stmts.size(); ++i) {
        if (p.stmts[i].kind != ir::StmtKind::CJmp)
            continue;
        EXPECT_EQ(facts.decision(i), Decision::AlwaysTrue);
        saw = true;
    }
    EXPECT_TRUE(saw);
}

TEST(Dataflow, ReachabilityRefinedThroughDecidedBranch)
{
    IrBuilder b("dead-arm");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(10)));
    Label t = b.label(), f = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm8(20)), t, f);
    b.bind(f);
    b.store(IrBuilder::imm32(0x3000), 4, IrBuilder::imm32(1));
    b.halt(2);
    b.bind(t);
    b.halt(1);
    const ir::Program p = b.finish();

    const Cfg cfg = Cfg::build(p);
    const ProgramFacts facts = analyze_program(p, cfg);
    ASSERT_TRUE(facts.analyzed);
    // The false arm's store never runs: not a may-write, statement
    // unreachable under the facts though the CFG reaches it.
    EXPECT_FALSE(facts.writes.may_write(0x3000));
    bool dead_block_found = false;
    for (BlockId blk = 0; blk < cfg.blocks().size(); ++blk) {
        if (cfg.reachable(blk) && !facts.block_reachable[blk])
            dead_block_found = true;
    }
    EXPECT_TRUE(dead_block_found);
}

TEST(Dataflow, WriteSummaryMayVersusMust)
{
    IrBuilder b("writes");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 4);
    Label t = b.label(), f = b.label(), join = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm32(10)), t, f);
    b.bind(t);
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(1));
    b.store(IrBuilder::imm32(0x3000), 4, IrBuilder::imm32(2));
    b.jmp(join);
    b.bind(f);
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(3));
    b.jmp(join);
    b.bind(join);
    b.halt(0);
    const ir::Program p = b.finish();

    const ProgramFacts facts = analyze_program(p, Cfg::build(p));
    ASSERT_TRUE(facts.analyzed);
    EXPECT_TRUE(facts.writes.must_write(0x2000));
    EXPECT_TRUE(facts.writes.may_write(0x3000));
    EXPECT_FALSE(facts.writes.must_write(0x3000));
    EXPECT_FALSE(facts.writes.may_write(0x4000));
}

/** A counting loop: i goes 0,1,..,4 through memory cell 0x2000. */
ir::Program
loop_program()
{
    IrBuilder b("loop");
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(0));
    Label head = b.label(), body = b.label(), exit_l = b.label();
    b.bind(head);
    const ExprRef i = b.load(IrBuilder::imm32(0x2000), 4);
    b.cjmp(E::ult(i, IrBuilder::imm32(5)), body, exit_l);
    b.bind(body);
    b.store(IrBuilder::imm32(0x2000), 4,
            E::add(i, IrBuilder::imm32(1)));
    b.jmp(head);
    b.bind(exit_l);
    b.halt(0);
    return b.finish();
}

TEST(Dataflow, LoopConvergesViaWidening)
{
    const ir::Program p = loop_program();
    const ProgramFacts facts = analyze_program(p, Cfg::build(p));
    ASSERT_TRUE(facts.analyzed);
    EXPECT_TRUE(facts.converged);
    // The loop-carried branch is cycle-tainted: no decision reported
    // even though individual iterations would decide it.
    for (u32 i = 0; i < p.stmts.size(); ++i)
        EXPECT_EQ(facts.decision(i), Decision::Unknown) << "stmt " << i;
    EXPECT_TRUE(facts.writes.may_write(0x2000));
}

// ---------------------------------------------------------------------
// Explorer pruning: decided probes skip solver queries without
// changing the explored path set, in any PruneMode.
// ---------------------------------------------------------------------

/**
 * One genuinely symbolic branch plus one assume-implied (decided)
 * branch per arm: pruning has queries to skip on every path while real
 * exploration still happens.
 */
ir::Program
prunable_program()
{
    IrBuilder b("prunable");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(100)));
    Label lo = b.label(), hi = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm8(50)), lo, hi);
    b.bind(lo);
    {
        Label t = b.label(), f = b.label();
        b.cjmp(E::ult(x, IrBuilder::imm8(200)), t, f); // Decided true.
        b.bind(f);
        b.halt(3);
        b.bind(t);
        b.halt(1);
    }
    b.bind(hi);
    {
        Label t = b.label(), f = b.label();
        b.cjmp(E::ult(x, IrBuilder::imm8(250)), t, f); // Decided true.
        b.bind(f);
        b.halt(4);
        b.bind(t);
        b.halt(2);
    }
    return b.finish();
}

struct PruneRun
{
    std::vector<u32> halt_codes; ///< In completion order.
    symexec::ExploreStats stats;
};

PruneRun
explore_with(const ir::Program &p, const ProgramFacts *facts,
             PruneMode mode)
{
    symexec::VarPool pool;
    symexec::InitialByteFn init = [&pool](u32 addr) -> ExprRef {
        if (addr >= 0x1000 && addr < 0x1004) {
            char name[32];
            std::snprintf(name, sizeof name, "mem_%08x", addr);
            return pool.get(name, 8);
        }
        return E::constant(8, 0);
    };
    symexec::ExplorerConfig config;
    config.seed = 7;
    config.facts = facts;
    config.prune = mode;
    symexec::PathExplorer ex(p, pool, init, config);
    PruneRun run;
    run.stats = ex.explore(
        [&](const symexec::PathInfo &info, symexec::SymbolicMemory &) {
            run.halt_codes.push_back(info.halt_code);
        });
    return run;
}

TEST(ExplorerPruning, DecidedProbesSkipQueriesWithoutChangingPaths)
{
    const ir::Program p = prunable_program();
    const ProgramFacts facts = analyze_program(p, Cfg::build(p));
    ASSERT_TRUE(facts.analyzed);
    ASSERT_EQ(facts.decided_cjmps, 2u);

    const PruneRun off = explore_with(p, &facts, PruneMode::Off);
    const PruneRun on = explore_with(p, &facts, PruneMode::On);

    // Identical path sets, in identical order, in both modes.
    EXPECT_EQ(off.halt_codes, on.halt_codes);
    EXPECT_EQ(std::set<u32>(off.halt_codes.begin(),
                            off.halt_codes.end()),
              (std::set<u32>{1, 2}));

    // Off answers every probe with the solver; On skips the decided
    // ones. The sum is the invariant the reports print.
    EXPECT_EQ(off.stats.solver_queries_avoided, 0u);
    EXPECT_GT(on.stats.solver_queries_avoided, 0u);
    EXPECT_EQ(off.stats.solver_queries,
              on.stats.solver_queries + on.stats.solver_queries_avoided);
    EXPECT_LT(on.stats.solver_queries, off.stats.solver_queries);

    // static_decisions reports the facts' property in every mode.
    EXPECT_EQ(off.stats.static_decisions, on.stats.static_decisions);
    EXPECT_GT(on.stats.static_decisions, 0u);
}

TEST(ExplorerPruning, NoFactsMeansNoSkips)
{
    const ir::Program p = prunable_program();
    const PruneRun bare = explore_with(p, nullptr, PruneMode::On);
    EXPECT_EQ(bare.stats.solver_queries_avoided, 0u);
    EXPECT_EQ(bare.stats.static_decisions, 0u);
    EXPECT_EQ(std::set<u32>(bare.halt_codes.begin(),
                            bare.halt_codes.end()),
              (std::set<u32>{1, 2}));
}

// ---------------------------------------------------------------------
// Pruning soundness over the whole instruction table: every canonical
// row explored with the pipeline's stage-2 options, prune Off and On.
// Every unit completes, so an unsound skip (a decided-infeasible probe
// that is actually satisfiable) would surface as an extra Off path.
// ---------------------------------------------------------------------

std::vector<explore::StateExploreResult>
explore_table(PruneMode mode, const explore::StateSpec &spec,
              const symexec::Summary &summary)
{
    solver::QueryMemo memo;
    explore::StateExploreOptions options;
    options.max_paths = 8192;
    options.schedule = coverage::SchedulePolicy::PathCoverFirst;
    options.memo = &memo;
    options.prune = mode;
    std::vector<explore::StateExploreResult> units;
    for (std::size_t row = 0; row < arch::insn_table().size(); ++row) {
        const std::vector<u8> bytes =
            arch::canonical_encoding(static_cast<int>(row));
        arch::DecodedInsn insn;
        EXPECT_EQ(arch::decode(bytes.data(), bytes.size(), insn),
                  arch::DecodeStatus::Ok);
        explore::StateExploreOptions per_insn = options;
        if (insn.rep || insn.repne) { // The pipeline's rep budget.
            per_insn.max_paths = 12;
            per_insn.max_steps = 3000;
        }
        memo.begin_unit();
        units.push_back(
            explore::explore_instruction(insn, spec, &summary, per_insn));
    }
    return units;
}

TEST(PruneSoundness, FullTableOffAndOnExploreIdenticalPaths)
{
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);
    const auto off = explore_table(PruneMode::Off, spec, summary);
    const auto on = explore_table(PruneMode::On, spec, summary);
    ASSERT_EQ(off.size(), on.size());

    u64 avoided = 0;
    for (std::size_t row = 0; row < off.size(); ++row) {
        const explore::StateExploreResult &a = off[row];
        const explore::StateExploreResult &b = on[row];
        const char *name = arch::insn_table()[row].mnemonic;
        EXPECT_TRUE(a.stats.complete) << name;
        EXPECT_TRUE(b.stats.complete) << name;
        EXPECT_EQ(a.stats.solver_queries,
                  b.stats.solver_queries + b.stats.solver_queries_avoided)
            << name;
        avoided += b.stats.solver_queries_avoided;
        ASSERT_EQ(a.paths.size(), b.paths.size()) << name;
        ASSERT_EQ(a.pool.all().size(), b.pool.all().size()) << name;
        for (std::size_t i = 0; i < a.paths.size(); ++i) {
            EXPECT_EQ(a.paths[i].halt_code, b.paths[i].halt_code)
                << name << " path " << i;
            // Compare the values testgen reads (get), not the maps: a
            // model may carry an explicit zero the other leaves out.
            for (std::size_t v = 0; v < a.pool.all().size(); ++v) {
                const ExprRef &var = a.pool.all()[v];
                ASSERT_EQ(var->name(), b.pool.all()[v]->name()) << name;
                EXPECT_EQ(a.paths[i].assignment.get(var->var_id()),
                          b.paths[i].assignment.get(
                              b.pool.all()[v]->var_id()))
                    << name << " path " << i << " " << var->name();
            }
        }
    }
    EXPECT_GT(avoided, 0u);
}

// ---------------------------------------------------------------------
// flag_write_summary: written / conditionally-kept / untouched bits.
// ---------------------------------------------------------------------

TEST(FlagOracle, ClassifiesWrittenKeptAndUntouched)
{
    constexpr u32 kFlags = 0x100;
    // CF (bit 0) written on every completing path; ZF (bit 6) written
    // on one arm only (kept on the other); everything else untouched.
    IrBuilder b("flags");
    const ExprRef fl = b.load(IrBuilder::imm32(kFlags), 4);
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 4);
    const ExprRef cf_set =
        E::bor(E::band(fl, IrBuilder::imm32(~u64{1} & 0xffffffff)),
               IrBuilder::imm32(1));
    Label t = b.label(), f = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm32(10)), t, f);
    b.bind(t);
    b.store(IrBuilder::imm32(kFlags), 4,
            E::bor(E::band(cf_set,
                           IrBuilder::imm32(~u64{0x40} & 0xffffffff)),
                   IrBuilder::imm32(0x40)));
    b.halt(0);
    b.bind(f);
    b.store(IrBuilder::imm32(kFlags), 4, cf_set);
    b.halt(0);
    const ir::Program p = b.finish();

    const FlagSummary s = flag_write_summary(p, kFlags);
    ASSERT_TRUE(s.analyzed);
    EXPECT_FALSE(s.capped);
    EXPECT_EQ(s.ok_exits, 2u);
    EXPECT_EQ(s.must & 0x1u, 0x1u);  // CF on every path.
    EXPECT_EQ(s.may & 0x40u, 0x40u); // ZF on some path...
    EXPECT_EQ(s.must & 0x40u, 0u);   // ...but not every path.
    EXPECT_EQ(s.may & 0x4u, 0u);     // PF untouched.
}

TEST(FlagOracle, ConditionalKeepViaIteIsMayNotMust)
{
    constexpr u32 kFlags = 0x100;
    // The shift-instruction shape: ite(count == 0, old CF, computed).
    IrBuilder b("ite-keep");
    const ExprRef fl = b.load(IrBuilder::imm32(kFlags), 4);
    const ExprRef count = b.load(IrBuilder::imm32(0x1000), 4);
    const ExprRef old_cf = E::extract(fl, 0, 1);
    const ExprRef kept = E::ite(E::eq(count, IrBuilder::imm32(0)),
                                old_cf, E::extract(count, 3, 1));
    b.store(IrBuilder::imm32(kFlags), 4,
            E::bor(E::band(fl, IrBuilder::imm32(~u64{1} & 0xffffffff)),
                   E::zext(kept, 32)));
    b.halt(0);
    const ir::Program p = b.finish();

    const FlagSummary s = flag_write_summary(p, kFlags);
    ASSERT_TRUE(s.analyzed);
    EXPECT_EQ(s.may & 0x1u, 0x1u);
    EXPECT_EQ(s.must & 0x1u, 0u);
}

TEST(FlagOracle, NoCompletingExitCaps)
{
    IrBuilder b("never-ok");
    b.halt(5);
    const FlagSummary s = flag_write_summary(b.finish(), 0x100);
    EXPECT_TRUE(s.analyzed);
    EXPECT_TRUE(s.capped);
    EXPECT_EQ(s.ok_exits, 0u);
}

// ---------------------------------------------------------------------
// Dataflow-backed lint passes and suppression markers.
// ---------------------------------------------------------------------

TEST(DataflowLint, ConstBranchWarns)
{
    IrBuilder b("const-branch");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(10)));
    Label t = b.label(), f = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm8(20)), t, f);
    b.bind(t);
    b.halt(1);
    b.bind(f);
    b.halt(2);
    const Report report = run_pipeline(b.finish());
    bool found = false;
    for (const Diagnostic &d : report.diagnostics())
        if (d.pass == "const-branch" &&
            d.severity == Severity::Warning &&
            d.message.find("always true") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << report.to_string();
}

TEST(DataflowLint, ConstBranchSuppressedByMarkerNote)
{
    IrBuilder b("const-branch-allowed");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(10)));
    Label t = b.label(), f = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm8(20)), t, f,
           "known; lint: allow-const-branch");
    b.bind(t);
    b.halt(1);
    b.bind(f);
    b.halt(2);
    const Report report = run_pipeline(b.finish());
    for (const Diagnostic &d : report.diagnostics())
        EXPECT_NE(d.pass, "const-branch") << d.to_string();
}

TEST(DataflowLint, RedundantAssumeNotesAndUnsatisfiableWarns)
{
    IrBuilder b("assumes");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(10)));
    b.assume(E::ult(x, IrBuilder::imm8(20))); // Implied: note.
    b.assume(E::eq(x, IrBuilder::imm8(15)));  // Contradicts: warning.
    b.halt(0);
    const Report report = run_pipeline(b.finish());
    bool note = false, warning = false;
    for (const Diagnostic &d : report.diagnostics()) {
        if (d.pass != "redundant-assume")
            continue;
        note = note || d.severity == Severity::Note;
        warning = warning || d.severity == Severity::Warning;
    }
    EXPECT_TRUE(note) << report.to_string();
    EXPECT_TRUE(warning) << report.to_string();
}

TEST(DataflowLint, DataflowUnreachableWarnsAtRegionEntryOnly)
{
    IrBuilder b("df-unreachable");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(10)));
    Label t = b.label(), f = b.label(), deeper = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm8(20)), t, f);
    b.bind(f); // Dead region entry...
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(1));
    b.jmp(deeper);
    b.bind(deeper); // ...and its interior: no second warning.
    b.halt(2);
    b.bind(t);
    b.halt(1);
    const Report report = run_pipeline(b.finish());
    std::size_t warnings = 0;
    for (const Diagnostic &d : report.diagnostics())
        if (d.pass == "dataflow-unreachable")
            ++warnings;
    EXPECT_EQ(warnings, 1u) << report.to_string();
}

TEST(DataflowLint, SuppressionMarkerInCommentAboveApplies)
{
    IrBuilder b("comment-marker");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 1);
    b.assume(E::ult(x, IrBuilder::imm8(10)));
    Label t = b.label(), f = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm8(20)), t, f);
    b.bind(f);
    b.comment("dead by construction; lint: allow-dataflow-unreachable");
    b.halt(2);
    b.bind(t);
    b.halt(1);
    const Report report = run_pipeline(b.finish());
    for (const Diagnostic &d : report.diagnostics())
        EXPECT_NE(d.pass, "dataflow-unreachable") << d.to_string();
}

TEST(DataflowLint, CrossBlockDeadStoreWarns)
{
    // The first store is overwritten on *both* arms before any read:
    // dead across blocks, which the within-block scan cannot see.
    IrBuilder b("dead-store");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 4);
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(1));
    Label t = b.label(), f = b.label(), join = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm32(10)), t, f);
    b.bind(t);
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(2));
    b.jmp(join);
    b.bind(f);
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(3));
    b.jmp(join);
    b.bind(join);
    b.halt(0);
    const Report report = run_pipeline(b.finish());
    bool found = false;
    for (const Diagnostic &d : report.diagnostics())
        if (d.severity == Severity::Warning &&
            d.message.find("dead store") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << report.to_string();
}

TEST(DataflowLint, LoadOnOneArmKeepsStoreAlive)
{
    IrBuilder b("live-store");
    const ExprRef x = b.load(IrBuilder::imm32(0x1000), 4);
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(1));
    Label t = b.label(), f = b.label(), join = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm32(10)), t, f);
    b.bind(t);
    // This arm reads the stored value before overwriting it.
    const ExprRef v = b.load(IrBuilder::imm32(0x2000), 4);
    b.store(IrBuilder::imm32(0x3000), 4, v);
    b.jmp(join);
    b.bind(f);
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(3));
    b.jmp(join);
    b.bind(join);
    b.halt(0);
    const Report report = run_pipeline(b.finish());
    for (const Diagnostic &d : report.diagnostics())
        EXPECT_EQ(d.message.find("dead store"), std::string::npos)
            << d.to_string();
}

TEST(DataflowLint, LintAllowedChecksOwnNoteAndCommentRun)
{
    IrBuilder b("allowed");
    b.comment("first; lint: allow-alpha");
    b.comment("second");
    b.store(IrBuilder::imm32(0x2000), 4, IrBuilder::imm32(1),
            "lint: allow-beta");
    b.halt(0);
    const ir::Program p = b.finish();
    // Find the store statement.
    u32 store_idx = 0;
    for (u32 i = 0; i < p.stmts.size(); ++i)
        if (p.stmts[i].kind == ir::StmtKind::Store)
            store_idx = i;
    EXPECT_TRUE(lint_allowed(p, store_idx, "beta"));  // Own note.
    EXPECT_TRUE(lint_allowed(p, store_idx, "alpha")); // Comment run.
    EXPECT_FALSE(lint_allowed(p, store_idx, "gamma"));
}

} // namespace
} // namespace pokeemu::analysis
