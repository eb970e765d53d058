/**
 * @file
 * Cross-cutting property tests:
 *  - solver soundness on random expression trees (a model returned for
 *    a satisfiable query must evaluate the constraints to true);
 *  - a parameterized per-instruction differential sweep: every table
 *    row is executed with randomized state on the Hi-Fi emulator and
 *    the (aligned) hardware model, and the final snapshots must agree.
 */
#include <gtest/gtest.h>

#include "arch/paging.h"
#include "backend/direct_cpu.h"
#include "hifi/hifi_emulator.h"
#include "solver/solver.h"
#include "support/rng.h"
#include "testgen/baseline.h"

namespace pokeemu {
namespace {

namespace layout = arch::layout;
namespace E = ir::E;

/** Random expression-tree generator over a fixed variable set. */
ir::ExprRef
random_expr(Rng &rng, const std::vector<ir::ExprRef> &vars,
            unsigned depth)
{
    if (depth == 0 || rng.below(4) == 0) {
        if (rng.flip())
            return vars[rng.below(vars.size())];
        return E::constant(vars[0]->width(),
                           rng.next());
    }
    const ir::BinOpKind ops[] = {
        ir::BinOpKind::Add, ir::BinOpKind::Sub, ir::BinOpKind::Mul,
        ir::BinOpKind::And, ir::BinOpKind::Or, ir::BinOpKind::Xor,
        ir::BinOpKind::Shl, ir::BinOpKind::LShr, ir::BinOpKind::AShr,
    };
    switch (rng.below(4)) {
      case 0: {
        auto a = random_expr(rng, vars, depth - 1);
        return rng.flip() ? E::bnot(a) : E::neg(a);
      }
      case 1: {
        auto a = random_expr(rng, vars, depth - 1);
        const unsigned w = a->width();
        const unsigned lo = static_cast<unsigned>(rng.below(w));
        const unsigned width =
            1 + static_cast<unsigned>(rng.below(w - lo));
        auto ex = E::extract(a, lo, width);
        return E::zext(ex, w); // Back to uniform width.
      }
      case 2: {
        auto c = E::eq(random_expr(rng, vars, depth - 1),
                       random_expr(rng, vars, depth - 1));
        return E::ite(c, random_expr(rng, vars, depth - 1),
                      random_expr(rng, vars, depth - 1));
      }
      default:
        return E::binop(ops[rng.below(std::size(ops))],
                        random_expr(rng, vars, depth - 1),
                        random_expr(rng, vars, depth - 1));
    }
}

TEST(SolverSoundness, ModelsSatisfyRandomConstraints)
{
    Rng rng(0xfeed);
    for (int trial = 0; trial < 120; ++trial) {
        const unsigned width = trial % 2 ? 16 : 8;
        std::vector<ir::ExprRef> vars = {
            E::var(1, "p", width),
            E::var(2, "q", width),
            E::var(3, "r", width),
        };
        auto lhs = random_expr(rng, vars, 4);
        auto rhs = random_expr(rng, vars, 4);
        // Constrain lhs == value-of-lhs-under-random-assignment: that
        // is satisfiable by construction.
        solver::Assignment witness;
        witness.set(1, rng.next());
        witness.set(2, rng.next());
        witness.set(3, rng.next());
        const u64 value = witness.eval(lhs);
        std::vector<ir::ExprRef> conds = {
            E::eq(lhs, E::constant(width, value)),
        };
        // Optionally add an extra relation; keep it satisfiable by
        // evaluating it too.
        const u64 rv = witness.eval(rhs);
        conds.push_back(E::eq(rhs, E::constant(width, rv)));

        solver::Solver solver;
        ASSERT_EQ(solver.check(conds), solver::CheckResult::Sat)
            << "trial " << trial;
        // The returned model must itself satisfy the constraints.
        solver::Assignment model;
        for (const auto &v : vars)
            model.set(v->var_id(), solver.model_value(v));
        EXPECT_TRUE(model.satisfies(conds)) << "trial " << trial;
    }
}

TEST(SolverSoundness, UnsatNegationOfTautology)
{
    Rng rng(0xbead);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<ir::ExprRef> vars = {
            E::var(1, "p", 8),
            E::var(2, "q", 8),
        };
        auto e = random_expr(rng, vars, 3);
        // (e ^ e) == 0 is a tautology; its negation must be UNSAT.
        auto taut = E::eq(E::bxor(e, e), E::constant(8, 0));
        solver::Solver solver;
        EXPECT_EQ(solver.check({E::lnot(taut)}),
                  solver::CheckResult::Unsat)
            << "trial " << trial;
    }
}

// ---------------------------------------------------------------------
// Per-instruction differential sweep.
// ---------------------------------------------------------------------

struct SweepCase
{
    int table_index;
};

class InstructionSweep : public ::testing::TestWithParam<int>
{
  protected:
    static hifi::HiFiEmulator &
    hifi_emu()
    {
        static hifi::HiFiEmulator emu({false, nullptr});
        return emu;
    }

    static backend::DirectCpu &
    hw_cpu()
    {
        static backend::DirectCpu cpu([] {
            backend::Behavior b = backend::hardware_behavior();
            b.shift_clears_af = true;
            return b;
        }());
        return cpu;
    }
};

TEST_P(InstructionSweep, HiFiMatchesHardwareOnRandomStates)
{
    const int index = GetParam();
    const std::vector<u8> bytes = arch::canonical_encoding(index);
    arch::DecodedInsn insn;
    ASSERT_EQ(arch::decode(bytes.data(), bytes.size(), insn),
              arch::DecodeStatus::Ok);

    Rng rng(0x5eed ^ static_cast<u64>(index));
    for (int trial = 0; trial < 3; ++trial) {
        arch::CpuState start = testgen::baseline_cpu_state();
        std::vector<u8> image = testgen::baseline_ram_after_init().to_bytes();
        for (unsigned r = 0; r < arch::kNumGprs; ++r) {
            start.gpr[r] = rng.flip()
                ? static_cast<u32>(rng.next())
                : static_cast<u32>(rng.below(0x400000));
        }
        start.eflags =
            (start.eflags & ~0xcd5u) |
            (static_cast<u32>(rng.next()) & 0xcd5);
        // Occasionally poke descriptor/page-table state so the
        // protection paths are exercised too.
        if (rng.below(3) == 0) {
            image[layout::kPhysGdt + 8 * 2 + 5] =
                static_cast<u8>(rng.next() | 0x10);
        }
        if (rng.below(3) == 0) {
            image[layout::kPhysPageTable +
                  4 * (rng.next() & 0x3ff)] &= ~arch::kPtePresent;
        }
        std::copy(bytes.begin(), bytes.begin() + insn.length,
                  image.begin() + layout::kPhysTestCode);
        image[layout::kPhysTestCode + insn.length] = 0xf4;

        hifi_emu().reset(start, image);
        hifi_emu().run(8);
        hw_cpu().reset(start, image);
        hw_cpu().run(8);
        const auto diff = arch::diff_snapshots(hifi_emu().snapshot(),
                                               hw_cpu().snapshot());
        EXPECT_TRUE(diff.empty())
            << arch::to_string(insn) << " trial " << trial << "\n"
            << diff.to_string();
    }
}

std::vector<int>
all_table_indices()
{
    std::vector<int> out;
    for (std::size_t i = 0; i < arch::insn_table().size(); ++i)
        out.push_back(static_cast<int>(i));
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllInstructions, InstructionSweep,
    ::testing::ValuesIn(all_table_indices()),
    [](const ::testing::TestParamInfo<int> &info) {
        const auto &d = arch::insn_table()[info.param];
        std::string name = std::to_string(info.param);
        name += "_";
        name += d.mnemonic;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace pokeemu
