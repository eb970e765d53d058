/** @file Unit and property tests for the IR layer. */
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "ir/builder.h"
#include "ir/eval.h"
#include "ir/printer.h"
#include "reference_walkers.h"
#include "support/rng.h"

namespace pokeemu::ir {
namespace {

TEST(Expr, ConstantFolding)
{
    auto a = E::constant(32, 20);
    auto b = E::constant(32, 22);
    auto sum = E::add(a, b);
    ASSERT_TRUE(sum->is_const());
    EXPECT_EQ(sum->value(), 42u);
}

TEST(Expr, ConstantTruncation)
{
    auto x = E::constant(8, 0x1ff);
    EXPECT_EQ(x->value(), 0xffu);
    auto sum = E::add(E::constant(8, 0xff), E::constant(8, 1));
    EXPECT_EQ(sum->value(), 0u);
}

TEST(Expr, IdentityRules)
{
    auto x = E::var(1, "x", 32);
    EXPECT_EQ(E::add(x, E::constant(32, 0)).get(), x.get());
    EXPECT_EQ(E::mul(x, E::constant(32, 1)).get(), x.get());
    EXPECT_TRUE(E::mul(x, E::constant(32, 0))->is_const(0));
    EXPECT_TRUE(E::band(x, E::constant(32, 0))->is_const(0));
    EXPECT_EQ(E::band(x, E::constant(32, 0xffffffff)).get(), x.get());
    EXPECT_EQ(E::bor(x, E::constant(32, 0)).get(), x.get());
    EXPECT_EQ(E::bxor(x, E::constant(32, 0)).get(), x.get());
}

TEST(Expr, SameOperandRules)
{
    auto x = E::var(1, "x", 32);
    EXPECT_TRUE(E::sub(x, x)->is_const(0));
    EXPECT_TRUE(E::bxor(x, x)->is_const(0));
    EXPECT_TRUE(E::eq(x, x)->is_const(1));
    EXPECT_TRUE(E::ne(x, x)->is_const(0));
    EXPECT_TRUE(E::ult(x, x)->is_const(0));
}

TEST(Expr, AddChainFolding)
{
    auto x = E::var(1, "x", 32);
    auto e = E::add(E::add(x, E::constant(32, 5)), E::constant(32, 7));
    ASSERT_EQ(e->kind(), ExprKind::BinOp);
    EXPECT_EQ(e->binop(), BinOpKind::Add);
    EXPECT_EQ(e->a().get(), x.get());
    EXPECT_TRUE(e->b()->is_const(12));

    auto f = E::sub(e, E::constant(32, 12));
    EXPECT_EQ(f.get(), x.get());
}

TEST(Expr, DoubleNegation)
{
    auto x = E::var(1, "x", 32);
    EXPECT_EQ(E::bnot(E::bnot(x)).get(), x.get());
    EXPECT_EQ(E::neg(E::neg(x)).get(), x.get());
}

TEST(Expr, ExtractComposition)
{
    auto x = E::var(1, "x", 32);
    auto mid = E::extract(x, 8, 16);
    auto low = E::extract(mid, 0, 8);
    ASSERT_EQ(low->kind(), ExprKind::Cast);
    EXPECT_EQ(low->extract_lo(), 8u);
    EXPECT_EQ(low->a().get(), x.get());
}

TEST(Expr, ConcatOfAdjacentExtractsFuses)
{
    auto x = E::var(1, "x", 32);
    auto hi = E::extract(x, 8, 8);
    auto lo = E::extract(x, 0, 8);
    auto joined = E::concat(hi, lo);
    ASSERT_EQ(joined->kind(), ExprKind::Cast);
    EXPECT_EQ(joined->cast(), CastKind::Extract);
    EXPECT_EQ(joined->extract_lo(), 0u);
    EXPECT_EQ(joined->width(), 16u);
}

TEST(Expr, ConcatOfFullWidthExtractsIsIdentity)
{
    auto x = E::var(1, "x", 32);
    auto joined = E::concat(E::extract(x, 16, 16), E::extract(x, 0, 16));
    EXPECT_EQ(joined.get(), x.get());
}

TEST(Expr, ExtractOfConcatResolves)
{
    auto hi = E::var(1, "hi", 8);
    auto lo = E::var(2, "lo", 8);
    auto joined = E::concat(hi, lo);
    EXPECT_EQ(E::extract(joined, 0, 8).get(), lo.get());
    EXPECT_EQ(E::extract(joined, 8, 8).get(), hi.get());
}

TEST(Expr, IteSimplification)
{
    auto c = E::var(1, "c", 1);
    auto t = E::constant(32, 5);
    EXPECT_EQ(E::ite(E::bool_const(true), t, E::constant(32, 9)).get(),
              t.get());
    EXPECT_EQ(E::ite(c, t, t).get(), t.get());
    EXPECT_EQ(E::ite(c, E::bool_const(true), E::bool_const(false)).get(),
              c.get());
}

TEST(Expr, StructuralEquality)
{
    auto x = E::var(1, "x", 32);
    auto a = E::add(x, E::constant(32, 3));
    auto b = E::add(x, E::constant(32, 3));
    EXPECT_TRUE(Expr::equal(a, b));
    auto c = E::add(x, E::constant(32, 4));
    EXPECT_FALSE(Expr::equal(a, c));
}

TEST(Expr, CollectVars)
{
    auto x = E::var(1, "x", 32);
    auto y = E::var(2, "y", 32);
    auto e = E::add(E::mul(x, y), x);
    std::vector<ExprRef> vars;
    Expr::collect_vars(e, vars);
    EXPECT_EQ(vars.size(), 2u);
}

TEST(Expr, EvalMatchesFoldRandomized)
{
    Rng rng(99);
    auto x = E::var(1, "x", 32);
    auto y = E::var(2, "y", 32);
    const BinOpKind ops[] = {
        BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul, BinOpKind::UDiv,
        BinOpKind::URem, BinOpKind::SDiv, BinOpKind::SRem,
        BinOpKind::And, BinOpKind::Or, BinOpKind::Xor, BinOpKind::Shl,
        BinOpKind::LShr, BinOpKind::AShr, BinOpKind::Eq, BinOpKind::Ne,
        BinOpKind::ULt, BinOpKind::ULe, BinOpKind::SLt, BinOpKind::SLe,
    };
    for (BinOpKind op : ops) {
        for (int trial = 0; trial < 50; ++trial) {
            const u32 va = static_cast<u32>(rng.next());
            const u32 vb = static_cast<u32>(
                trial % 4 == 0 ? rng.below(40) : rng.next());
            auto symbolic = E::binop(op, x, y);
            std::function<u64(const Expr &)> lookup =
                [&](const Expr &leaf) {
                    return leaf.var_id() == 1 ? va : vb;
                };
            const u64 sym_val = eval_expr(symbolic, &lookup);
            auto folded = E::binop(op, E::constant(32, va),
                                   E::constant(32, vb));
            ASSERT_TRUE(folded->is_const());
            EXPECT_EQ(sym_val, folded->value())
                << binop_name(op) << " a=" << va << " b=" << vb;
        }
    }
}

TEST(Expr, SubstituteReplacesVars)
{
    auto x = E::var(1, "x", 32);
    auto e = E::add(x, E::constant(32, 1));
    auto replaced = substitute(e, [&](const Expr &leaf) -> ExprRef {
        if (leaf.kind() == ExprKind::Var && leaf.var_id() == 1)
            return E::constant(32, 41);
        return nullptr;
    });
    ASSERT_TRUE(replaced->is_const());
    EXPECT_EQ(replaced->value(), 42u);
}

// --- Walkers against the verbatim per-call-map references ---

/** One leaf-reader or substitution-map call: leaf kind and id. */
using LeafCall = std::pair<ExprKind, u32>;

/**
 * A random hash-consed DAG over Var and Temp leaves of widths 1, 8, 16
 * and 32. Operands are drawn mostly from the few latest nodes of a
 * width, so the DAG is deep, and otherwise from all of them, so nodes
 * are shared many times over.
 */
struct RandomDag
{
    std::map<unsigned, std::vector<ExprRef>> nodes; ///< by width
    std::map<unsigned, ExprRef> var_of;             ///< one Var per width
    std::vector<ExprRef> roots;
};

RandomDag
random_dag(Rng &rng, unsigned steps)
{
    static const unsigned kWidths[] = {1, 8, 16, 32};
    RandomDag d;
    u32 next_var = 1, next_temp = 0;
    for (unsigned w : kWidths) {
        for (int i = 0; i < 3; ++i) {
            const u32 id = next_var++;
            auto v = E::var(id, "v" + std::to_string(id), w);
            d.var_of.emplace(w, v);
            d.nodes[w].push_back(v);
            d.nodes[w].push_back(E::temp(next_temp++, w));
        }
        d.nodes[w].push_back(E::constant(w, rng.next()));
    }
    const auto pick = [&](unsigned w) -> const ExprRef & {
        const std::vector<ExprRef> &pool = d.nodes[w];
        const u64 span = rng.below(4) == 0
            ? pool.size()
            : std::min<u64>(pool.size(), 6);
        return pool[pool.size() - 1 - rng.below(span)];
    };
    static const BinOpKind kOps[] = {
        BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul, BinOpKind::UDiv,
        BinOpKind::URem, BinOpKind::SDiv, BinOpKind::SRem,
        BinOpKind::And, BinOpKind::Or, BinOpKind::Xor, BinOpKind::Shl,
        BinOpKind::LShr, BinOpKind::AShr,
    };
    static const BinOpKind kCmps[] = {
        BinOpKind::Eq, BinOpKind::Ne, BinOpKind::ULt, BinOpKind::ULe,
        BinOpKind::SLt, BinOpKind::SLe,
    };
    for (unsigned i = 0; i < steps; ++i) {
        const unsigned w = kWidths[rng.below(4)];
        ExprRef e;
        switch (rng.below(8)) {
          case 0:
          case 1:
            e = E::binop(kOps[rng.below(std::size(kOps))], pick(w),
                         pick(w));
            break;
          case 2:
            e = E::binop(kCmps[rng.below(std::size(kCmps))], pick(w),
                         pick(w));
            break;
          case 3:
            e = E::unop(rng.flip() ? UnOpKind::Not : UnOpKind::Neg,
                        pick(w));
            break;
          case 4:
            e = E::ite(pick(1), pick(w), pick(w));
            break;
          case 5: // widen
            if (w == 32)
                e = rng.flip() ? E::zext(pick(16), 32)
                               : E::sext(pick(8), 32);
            else if (w == 16)
                e = E::concat(pick(8), pick(8));
            else
                e = E::zext(pick(w), 2 * w > 8 ? 2 * w : 8);
            break;
          default: // narrow
            if (w == 1)
                e = E::extract(pick(8), static_cast<unsigned>(
                                            rng.below(8)), 1);
            else if (w == 8)
                e = E::extract(pick(32), static_cast<unsigned>(
                                             rng.below(25)), 8);
            else
                e = E::extract(pick(32), static_cast<unsigned>(
                                             rng.below(17)), 16);
            break;
        }
        d.nodes[e->width()].push_back(e);
    }
    for (unsigned w : kWidths) {
        const std::vector<ExprRef> &pool = d.nodes[w];
        for (std::size_t i = pool.size() > 8 ? pool.size() - 8 : 0;
             i < pool.size(); ++i) {
            d.roots.push_back(pool[i]);
        }
    }
    return d;
}

TEST(Walkers, EvalMatchesReferenceOnRandomSharedDags)
{
    Rng rng(2024);
    for (int dag = 0; dag < 40; ++dag) {
        RandomDag d = random_dag(rng, 300);
        std::map<LeafCall, u64> values;
        std::vector<LeafCall> calls;
        const std::function<u64(const Expr &)> lookup =
            [&](const Expr &leaf) -> u64 {
            const LeafCall key{leaf.kind(), leaf.var_id()};
            calls.push_back(key);
            auto [it, fresh] = values.emplace(key, 0);
            if (fresh)
                it->second = rng.next();
            return it->second;
        };
        for (const ExprRef &root : d.roots) {
            calls.clear();
            const u64 ref = reference::eval_expr(root, &lookup);
            const std::vector<LeafCall> ref_calls = calls;
            calls.clear();
            ASSERT_EQ(eval_expr(root, &lookup), ref)
                << "dag " << dag << ": " << to_string(root);
            ASSERT_EQ(calls, ref_calls) << "dag " << dag;
        }
    }
}

TEST(Walkers, SubstituteMatchesReferenceOnRandomSharedDags)
{
    Rng rng(77);
    for (int dag = 0; dag < 40; ++dag) {
        RandomDag d = random_dag(rng, 300);
        // Temps become expressions over Vars; every third Var becomes a
        // constant, which makes the factories fold on the way up.
        std::vector<LeafCall> calls;
        const std::function<ExprRef(const Expr &)> map =
            [&](const Expr &leaf) -> ExprRef {
            calls.emplace_back(leaf.kind(), leaf.var_id());
            const unsigned w = leaf.width();
            if (leaf.kind() == ExprKind::Temp) {
                return E::bxor(d.var_of.at(w),
                               E::constant(w, leaf.temp_id() * 0x9b));
            }
            if (leaf.var_id() % 3 == 0)
                return E::constant(w, leaf.var_id() * 0x35);
            return nullptr;
        };
        for (const ExprRef &root : d.roots) {
            calls.clear();
            const ExprRef ref = reference::substitute(root, map);
            const std::vector<LeafCall> ref_calls = calls;
            calls.clear();
            ASSERT_EQ(substitute(root, map).get(), ref.get())
                << "dag " << dag << ": " << to_string(root);
            ASSERT_EQ(calls, ref_calls) << "dag " << dag;
        }
    }
}

TEST(Walkers, CollectVarsKeepsReferenceOrderOnRandomSharedDags)
{
    Rng rng(5);
    for (int dag = 0; dag < 40; ++dag) {
        RandomDag d = random_dag(rng, 300);
        std::vector<ExprRef> all, ref_all;
        for (const ExprRef &root : d.roots) {
            std::vector<ExprRef> vars, ref_vars;
            Expr::collect_vars(root, vars);
            reference::collect_vars(root, ref_vars);
            ASSERT_EQ(vars, ref_vars) << "dag " << dag;
            // Into a non-empty list: variables already present are
            // skipped by id.
            Expr::collect_vars(root, all);
            reference::collect_vars(root, ref_all);
            ASSERT_EQ(all, ref_all) << "dag " << dag;
        }
    }
}

TEST(Walkers, DoublingChainReadsEachLeafOnce)
{
    // x_{i+1} = x_i + x_i: 2^64 leaf occurrences as a tree, 66 distinct
    // nodes as a DAG. Only a memoized walk reads each leaf once.
    const ExprRef v = E::var(1, "v", 32);
    const ExprRef t = E::temp(0, 32);
    ExprRef x = E::add(v, t);
    std::vector<ExprRef> chain{x};
    for (int i = 0; i < 64; ++i) {
        x = E::add(x, x);
        chain.push_back(x);
    }
    // Throwing on a second read stops an unmemoized walk long before
    // its 2^64 reads.
    std::map<LeafCall, int> reads;
    const auto read_once = [&](const Expr &leaf) {
        if (++reads[{leaf.kind(), leaf.var_id()}] > 1)
            throw std::runtime_error("leaf read twice");
    };
    const std::function<u64(const Expr &)> lookup =
        [&](const Expr &leaf) -> u64 {
        read_once(leaf);
        return leaf.kind() == ExprKind::Var ? 5 : 2;
    };
    EXPECT_EQ(eval_expr(x, &lookup), 0u); // 7 << 64, truncated
    EXPECT_EQ(reads, (std::map<LeafCall, int>{{{ExprKind::Var, 1}, 1},
                                              {{ExprKind::Temp, 0}, 1}}));
    reads.clear();
    EXPECT_EQ(eval_expr(chain[5], &lookup), 7u << 5);
    EXPECT_EQ(reads.size(), 2u);

    reads.clear();
    const ExprRef s = substitute(x, [&](const Expr &leaf) -> ExprRef {
        read_once(leaf);
        return leaf.kind() == ExprKind::Temp ? v : nullptr;
    });
    EXPECT_EQ(reads.size(), 2u);
    ExprRef expected = E::add(v, v);
    for (int i = 0; i < 64; ++i)
        expected = E::add(expected, expected);
    EXPECT_EQ(s.get(), expected.get());

    std::vector<ExprRef> vars;
    Expr::collect_vars(x, vars);
    EXPECT_EQ(vars, std::vector<ExprRef>{v});
}

TEST(Walkers, ReentrantLeafReadersGetTheirOwnMemo)
{
    // The inner walks share nodes with the outer one, so an inner walk
    // that reused (or cleared) the outer memo would read or leave
    // values from the wrong level.
    const ExprRef a = E::var(1, "a", 32);
    const ExprRef b = E::var(2, "b", 32);
    const ExprRef shared =
        E::mul(E::add(a, b), E::bxor(a, E::constant(32, 0x55)));
    const ExprRef outer =
        E::add(E::add(E::temp(0, 32), shared),
               E::add(shared, E::temp(1, 32)));

    const std::function<u64(const Expr &)> inner =
        [](const Expr &leaf) -> u64 { return leaf.var_id() == 1 ? 3 : 4; };
    const auto make_reader = [&](auto eval) {
        return std::function<u64(const Expr &)>(
            [=, &inner](const Expr &leaf) -> u64 {
                if (leaf.kind() == ExprKind::Var)
                    return leaf.var_id() == 1 ? 100 : 200;
                if (leaf.temp_id() == 0)
                    return eval(shared, &inner);
                return eval(E::sub(shared, a), &inner);
            });
    };
    const auto outer_reader = make_reader(
        [](const ExprRef &x, const std::function<u64(const Expr &)> *l) {
            return eval_expr(x, l);
        });
    const auto ref_reader = make_reader(
        [](const ExprRef &x, const std::function<u64(const Expr &)> *l) {
            return reference::eval_expr(x, l);
        });
    const u64 shared_outer = (100 + 200) * (100 ^ 0x55);
    const u64 shared_inner = (3 + 4) * (3 ^ 0x55);
    const u64 expected =
        truncate(2 * shared_outer + shared_inner + (shared_inner - 3), 32);
    EXPECT_EQ(reference::eval_expr(outer, &ref_reader), expected);
    EXPECT_EQ(eval_expr(outer, &outer_reader), expected);

    // The same for a substitution map that substitutes.
    const auto inner_map = [&](const Expr &leaf) -> ExprRef {
        return leaf.var_id() == 1 ? E::constant(32, 3) : nullptr;
    };
    const auto outer_map = [&](auto subst) {
        return [=](const Expr &leaf) -> ExprRef {
            if (leaf.kind() == ExprKind::Var)
                return nullptr;
            return subst(leaf.temp_id() == 0 ? shared : E::sub(shared, b),
                         inner_map);
        };
    };
    const ExprRef want = reference::substitute(
        outer, outer_map([](const ExprRef &x, const auto &m) {
            return reference::substitute(x, m);
        }));
    const ExprRef got = substitute(
        outer, outer_map([](const ExprRef &x, const auto &m) {
            return substitute(x, m);
        }));
    EXPECT_EQ(got.get(), want.get());
    EXPECT_FALSE(want->is_const());
}

TEST(Printer, RendersNestedExpr)
{
    auto x = E::var(1, "x", 32);
    auto e = E::add(x, E::constant(32, 7));
    const std::string s = to_string(e);
    EXPECT_NE(s.find("add"), std::string::npos);
    EXPECT_NE(s.find("x"), std::string::npos);
}

/** Simple flat memory for evaluator tests. */
class MapMemory : public ConcreteMemory
{
  public:
    u64
    load(u32 addr, unsigned size) override
    {
        u64 v = 0;
        for (unsigned i = 0; i < size; ++i) {
            const auto it = bytes_.find(addr + i);
            const u64 byte = it == bytes_.end() ? 0 : it->second;
            v |= byte << (8 * i);
        }
        return v;
    }

    void
    store(u32 addr, unsigned size, u64 value) override
    {
        for (unsigned i = 0; i < size; ++i)
            bytes_[addr + i] = static_cast<u8>(value >> (8 * i));
    }

  private:
    std::map<u32, u8> bytes_;
};

TEST(Builder, StraightLineProgram)
{
    IrBuilder b("straight");
    auto x = b.load(IrBuilder::imm32(0x100), 4);
    auto y = b.assign(E::add(x, IrBuilder::imm32(5)));
    b.store(IrBuilder::imm32(0x200), 4, y);
    b.halt(7);
    Program p = b.finish();

    MapMemory mem;
    mem.store(0x100, 4, 37);
    RunResult r = run_concrete(p, mem);
    EXPECT_EQ(r.status, RunStatus::Halted);
    EXPECT_EQ(r.halt_code, 7u);
    EXPECT_EQ(mem.load(0x200, 4), 42u);
}

TEST(Builder, ConditionalBranches)
{
    // Compute max(a, b) of two memory words.
    IrBuilder b("max");
    auto a = b.load(IrBuilder::imm32(0x0), 4);
    auto c = b.load(IrBuilder::imm32(0x4), 4);
    Label use_a = b.label(), use_b = b.label();
    b.cjmp(E::ult(a, c), use_b, use_a);
    b.bind(use_a);
    b.store(IrBuilder::imm32(0x8), 4, a);
    b.halt(1);
    b.bind(use_b);
    b.store(IrBuilder::imm32(0x8), 4, c);
    b.halt(2);
    Program p = b.finish();

    {
        MapMemory mem;
        mem.store(0x0, 4, 50);
        mem.store(0x4, 4, 8);
        RunResult r = run_concrete(p, mem);
        EXPECT_EQ(r.halt_code, 1u);
        EXPECT_EQ(mem.load(0x8, 4), 50u);
    }
    {
        MapMemory mem;
        mem.store(0x0, 4, 3);
        mem.store(0x4, 4, 8);
        RunResult r = run_concrete(p, mem);
        EXPECT_EQ(r.halt_code, 2u);
        EXPECT_EQ(mem.load(0x8, 4), 8u);
    }
}

TEST(Builder, LoopWithMemoryState)
{
    // Sum the value at 0x0 down to zero into 0x4 (guest-visible loop
    // state lives in memory, as in rep-prefixed semantics).
    IrBuilder b("loop");
    Label head = b.here();
    auto n = b.load(IrBuilder::imm32(0x0), 4);
    Label done = b.label();
    b.if_goto(E::eq(n, IrBuilder::imm32(0)), done);
    auto acc = b.load(IrBuilder::imm32(0x4), 4);
    b.store(IrBuilder::imm32(0x4), 4, E::add(acc, n));
    b.store(IrBuilder::imm32(0x0), 4,
            E::sub(n, IrBuilder::imm32(1)));
    b.jmp(head);
    b.bind(done);
    b.halt(0);
    Program p = b.finish();

    MapMemory mem;
    mem.store(0x0, 4, 10);
    RunResult r = run_concrete(p, mem);
    EXPECT_EQ(r.status, RunStatus::Halted);
    EXPECT_EQ(mem.load(0x4, 4), 55u);
}

TEST(Builder, AssumeFailureStopsRun)
{
    IrBuilder b("assume");
    auto x = b.load(IrBuilder::imm32(0x0), 4);
    b.assume(E::eq(x, IrBuilder::imm32(1)));
    b.halt(0);
    Program p = b.finish();

    MapMemory mem;
    mem.store(0x0, 4, 2);
    RunResult r = run_concrete(p, mem);
    EXPECT_EQ(r.status, RunStatus::AssumeFailed);
}

TEST(Builder, StepLimitDetectsRunaway)
{
    IrBuilder b("spin");
    Label head = b.here();
    b.jmp(head);
    Program p = b.finish();
    MapMemory mem;
    RunResult r = run_concrete(p, mem, 1000);
    EXPECT_EQ(r.status, RunStatus::StepLimit);
}

TEST(Builder, ValidateCatchesWidthMismatch)
{
    IrBuilder b("bad");
    // Store an 8-bit value with size 4: validate must reject.
    b.store(IrBuilder::imm32(0), 4, E::constant(8, 1));
    EXPECT_THROW(b.finish(), std::logic_error);
}

TEST(Builder, ProgramPrinterIncludesLabels)
{
    IrBuilder b("printme");
    Label l = b.here();
    b.comment("spin");
    b.jmp(l);
    Program p = b.finish();
    const std::string s = to_string(p);
    EXPECT_NE(s.find("L0:"), std::string::npos);
    EXPECT_NE(s.find("jmp"), std::string::npos);
}

} // namespace
} // namespace pokeemu::ir
