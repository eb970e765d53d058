/**
 * @file
 * Tests for the §7 equivalence-checking extension: two implementations
 * compared for all inputs with the decision procedure (the translation
 * validator, analysis/equiv.h), including the paper's suggested
 * application to the descriptor-load computation.
 */
#include <gtest/gtest.h>

#include "analysis/equiv.h"
#include "hifi/semantics.h"
#include "ir/builder.h"

namespace pokeemu::analysis {
namespace {

using ir::ExprRef;
using ir::IrBuilder;
using ir::Label;
using symexec::InitialByteFn;
using symexec::VarPool;
namespace E = ir::E;

InitialByteFn
byte_inputs(VarPool &pool, u32 base, unsigned count)
{
    return [&pool, base, count](u32 addr) -> ExprRef {
        if (addr >= base && addr < base + count) {
            return pool.get("in_" + std::to_string(addr - base), 8);
        }
        return E::constant(8, 0);
    };
}

/** abs(x) via branch. */
ir::Program
abs_branching()
{
    IrBuilder b("abs_branching");
    auto x = b.load(IrBuilder::imm32(0x1000), 4);
    Label neg = b.label(), pos = b.label();
    b.cjmp(E::slt(x, IrBuilder::imm32(0)), neg, pos);
    b.bind(neg);
    b.store(IrBuilder::imm32(0x2000), 4, E::neg(x));
    b.halt(0);
    b.bind(pos);
    b.store(IrBuilder::imm32(0x2000), 4, x);
    b.halt(0);
    return b.finish();
}

/** abs(x) branchless via the sign-mask trick. */
ir::Program
abs_branchless()
{
    IrBuilder b("abs_branchless");
    auto x = b.load(IrBuilder::imm32(0x1000), 4);
    auto mask = b.assign(E::ashr(x, IrBuilder::imm32(31)));
    b.store(IrBuilder::imm32(0x2000), 4,
            E::sub(E::bxor(x, mask), mask));
    b.halt(0);
    return b.finish();
}

/** A subtly wrong abs: negates with ~x instead of -x. */
ir::Program
abs_buggy()
{
    IrBuilder b("abs_buggy");
    auto x = b.load(IrBuilder::imm32(0x1000), 4);
    Label neg = b.label(), pos = b.label();
    b.cjmp(E::slt(x, IrBuilder::imm32(0)), neg, pos);
    b.bind(neg);
    b.store(IrBuilder::imm32(0x2000), 4, E::bnot(x));
    b.halt(0);
    b.bind(pos);
    b.store(IrBuilder::imm32(0x2000), 4, x);
    b.halt(0);
    return b.finish();
}

TEST(Equivalence, BranchingAndBranchlessAbsAgree)
{
    VarPool pool;
    const auto result = validate_translation(
        abs_branching(), abs_branchless(), pool,
        byte_inputs(pool, 0x1000, 4));
    EXPECT_TRUE(result.equivalent);
    EXPECT_TRUE(result.proven);
    EXPECT_GE(result.pairs_checked, 2u);
}

TEST(Equivalence, BuggyAbsYieldsCounterexample)
{
    VarPool pool;
    const auto result = validate_translation(
        abs_branching(), abs_buggy(), pool,
        byte_inputs(pool, 0x1000, 4));
    ASSERT_FALSE(result.equivalent);
    ASSERT_TRUE(result.counterexample.has_value());
    // The counterexample must actually distinguish the two: ~x != -x
    // whenever x is negative (they differ by one).
    u32 x = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const auto var = pool.get("in_" + std::to_string(i), 8);
        x |= static_cast<u32>(
                 result.counterexample->assignment.get(var->var_id()) &
                 0xff)
             << (8 * i);
    }
    EXPECT_LT(static_cast<s32>(x), 0) << "x = " << x;
}

TEST(Equivalence, DifferingHaltCodesAreCaught)
{
    // Program A halts 1 for x < 10 else 2; program B uses x <= 10.
    auto make = [](bool off_by_one) {
        IrBuilder b("cmp");
        auto x = b.load(IrBuilder::imm32(0x1000), 1);
        Label lo = b.label(), hi = b.label();
        auto cond = off_by_one
            ? E::ule(x, IrBuilder::imm8(10))
            : E::ult(x, IrBuilder::imm8(10));
        b.cjmp(cond, lo, hi);
        b.bind(lo);
        b.halt(1);
        b.bind(hi);
        b.halt(2);
        return b.finish();
    };
    VarPool pool;
    const auto result = validate_translation(
        make(false), make(true), pool, byte_inputs(pool, 0x1000, 1));
    ASSERT_FALSE(result.equivalent);
    ASSERT_TRUE(result.counterexample.has_value());
    // The only distinguishing input is exactly x == 10.
    const auto var = pool.get("in_0", 8);
    EXPECT_EQ(result.counterexample->assignment.get(var->var_id()) & 0xff,
              10u);
}

TEST(Equivalence, DescriptorLoadHelperEquivalentToItself)
{
    // The paper's suggested target: the descriptor-parse computation.
    // The branching helper must be equivalent to a second exploration
    // of itself, re-run under each of its own path conditions.
    VarPool pool;
    InitialByteFn initial = [&pool](u32 addr) -> ExprRef {
        namespace dh = hifi::desc_helper;
        if (addr >= dh::kInputBytes && addr < dh::kInputBytes + 8) {
            return pool.get(
                "desc_byte_" + std::to_string(addr - dh::kInputBytes),
                8);
        }
        return E::constant(8, 0);
    };
    const auto result = validate_translation(
        hifi::build_descriptor_load_helper(),
        hifi::build_descriptor_load_helper(), pool, initial);
    EXPECT_TRUE(result.equivalent);
    EXPECT_TRUE(result.proven);
    EXPECT_EQ(result.original_paths, 4u);
    EXPECT_EQ(result.pairs_checked, 4u); // One re-run path per path.
}

TEST(Equivalence, MutatedDescriptorParseIsDetected)
{
    // Flip the granularity handling (shift by 11 instead of 12): the
    // checker must find a distinguishing descriptor.
    VarPool pool;
    namespace dh = hifi::desc_helper;
    InitialByteFn initial = [&pool](u32 addr) -> ExprRef {
        if (addr >= dh::kInputBytes && addr < dh::kInputBytes + 8) {
            return pool.get(
                "desc_byte_" + std::to_string(addr - dh::kInputBytes),
                8);
        }
        return E::constant(8, 0);
    };
    auto mutated = [] {
        IrBuilder b("descriptor_load_mutated");
        auto imm = [](u64 v) { return E::constant(32, v); };
        ExprRef bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = b.load(imm(dh::kInputBytes + i), 1);
        ExprRef limit_raw = b.assign(E::bor(
            E::zext(E::concat(bytes[1], bytes[0]), 32),
            E::shl(E::zext(E::band(bytes[6], E::constant(8, 0x0f)),
                           32),
                   imm(16))));
        // BUG: wrong granularity shift.
        ExprRef g = E::extract(bytes[6], 7, 1);
        b.store(imm(dh::kOutLimit), 4,
                E::ite(g,
                       E::bor(E::shl(limit_raw, imm(11)),
                              imm(0xfff)),
                       limit_raw));
        b.halt(0);
        return b.finish();
    }();

    // Reference: just the limit computation of the real helper.
    auto reference = [] {
        IrBuilder b("descriptor_load_reference");
        auto imm = [](u64 v) { return E::constant(32, v); };
        ExprRef bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = b.load(imm(dh::kInputBytes + i), 1);
        ExprRef limit_raw = b.assign(E::bor(
            E::zext(E::concat(bytes[1], bytes[0]), 32),
            E::shl(E::zext(E::band(bytes[6], E::constant(8, 0x0f)),
                           32),
                   imm(16))));
        ExprRef g = E::extract(bytes[6], 7, 1);
        b.store(imm(dh::kOutLimit), 4,
                E::ite(g,
                       E::bor(E::shl(limit_raw, imm(12)),
                              imm(0xfff)),
                       limit_raw));
        b.halt(0);
        return b.finish();
    }();

    const auto result =
        validate_translation(reference, mutated, pool, initial);
    ASSERT_FALSE(result.equivalent);
    ASSERT_TRUE(result.counterexample.has_value());
    // The counterexample must have G set and a limit whose shift
    // position matters.
    const auto b6 = pool.get("desc_byte_6", 8);
    EXPECT_TRUE(result.counterexample->assignment.get(b6->var_id()) &
                0x80);
}

TEST(Equivalence, StepLimitedPathsAreNotAProof)
{
    // Count a symbolic byte down to zero: large inputs run out of
    // steps, and a path with no final state proves nothing, so the
    // verdict is "no difference found" but not a proof.
    IrBuilder b("countdown");
    const ExprRef counter = IrBuilder::imm32(0x2000);
    b.store(counter, 1, b.load(IrBuilder::imm32(0x1000), 1));
    Label loop = b.label(), body = b.label(), done = b.label();
    b.bind(loop);
    auto c = b.load(counter, 1);
    b.cjmp(E::eq(c, IrBuilder::imm8(0)), done, body);
    b.bind(body);
    b.store(counter, 1, E::sub(c, IrBuilder::imm8(1)));
    b.jmp(loop);
    b.bind(done);
    b.halt(0);
    const ir::Program countdown = b.finish();

    VarPool pool;
    EquivOptions options;
    options.max_steps = 40;
    const auto result = validate_translation(
        countdown, countdown, pool, byte_inputs(pool, 0x1000, 1),
        options);
    EXPECT_TRUE(result.equivalent);
    EXPECT_FALSE(result.proven);
    // Only paths that halt are paired: inputs 0..8 halt within 40
    // steps, and the paths for 9 and for 10 and up are cut short.
    EXPECT_EQ(result.original_paths, 11u);
    EXPECT_EQ(result.pairs_checked, 9u);
}

TEST(Equivalence, OneSidedStoreIsACounterexample)
{
    // Both copy x; the second also writes a byte the first never
    // touches. All final memory is compared, not a list of outputs, so
    // that byte is the difference.
    auto make = [](bool extra_store) {
        IrBuilder b("copy");
        auto x = b.load(IrBuilder::imm32(0x1000), 1);
        b.store(IrBuilder::imm32(0x2000), 1, x);
        if (extra_store)
            b.store(IrBuilder::imm32(0x2004), 1, x);
        b.halt(0);
        return b.finish();
    };
    VarPool pool;
    const auto result = validate_translation(
        make(false), make(true), pool, byte_inputs(pool, 0x1000, 1));
    ASSERT_FALSE(result.equivalent);
    ASSERT_TRUE(result.counterexample.has_value());
    EXPECT_FALSE(result.counterexample->halt_mismatch);
    EXPECT_EQ(result.counterexample->addr, 0x2004u);
    // The untouched byte reads 0 in the first program, so x != 0.
    const auto var = pool.get("in_0", 8);
    EXPECT_NE(result.counterexample->assignment.get(var->var_id()) & 0xff,
              0u);
}

} // namespace
} // namespace pokeemu::analysis
