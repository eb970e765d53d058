/** @file Tests for the SAT core and the bit-vector decision procedure. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "reference_sat.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace pokeemu::solver {
namespace {

namespace E = ir::E;
using ir::ExprRef;

TEST(Sat, TrivialSatAndUnsat)
{
    SatSolver s;
    const SatVar a = s.new_var();
    EXPECT_TRUE(s.add_clause({mk_lit(a, false)}));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_FALSE(s.add_clause({mk_lit(a, true)}));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, UnitPropagationChain)
{
    SatSolver s;
    std::vector<SatVar> v;
    for (int i = 0; i < 10; ++i)
        v.push_back(s.new_var());
    // v0 and (v_i -> v_{i+1}) for all i.
    s.add_clause({mk_lit(v[0], false)});
    for (int i = 0; i < 9; ++i)
        s.add_clause({mk_lit(v[i], true), mk_lit(v[i + 1], false)});
    ASSERT_EQ(s.solve(), SatResult::Sat);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(s.model_value(v[i]));
}

TEST(Sat, PigeonholeUnsat)
{
    // 4 pigeons, 3 holes: classic small UNSAT instance that requires
    // real search, not just propagation.
    SatSolver s;
    SatVar p[4][3];
    for (auto &row : p)
        for (auto &x : row)
            x = s.new_var();
    for (int i = 0; i < 4; ++i) {
        s.add_clause({mk_lit(p[i][0], false), mk_lit(p[i][1], false),
                      mk_lit(p[i][2], false)});
    }
    for (int h = 0; h < 3; ++h) {
        for (int i = 0; i < 4; ++i) {
            for (int j = i + 1; j < 4; ++j) {
                s.add_clause({mk_lit(p[i][h], true),
                              mk_lit(p[j][h], true)});
            }
        }
    }
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, AssumptionsAreTemporary)
{
    SatSolver s;
    const SatVar a = s.new_var();
    const SatVar b = s.new_var();
    s.add_clause({mk_lit(a, false), mk_lit(b, false)}); // a | b
    EXPECT_EQ(s.solve({mk_lit(a, true), mk_lit(b, true)}),
              SatResult::Unsat);
    // Without the assumptions the problem is still satisfiable.
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_EQ(s.solve({mk_lit(a, true)}), SatResult::Sat);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
}

TEST(Sat, ConflictingAssumptionPair)
{
    SatSolver s;
    const SatVar a = s.new_var();
    const SatVar b = s.new_var();
    s.add_clause({mk_lit(a, true), mk_lit(b, false)}); // a -> b
    EXPECT_EQ(s.solve({mk_lit(a, false), mk_lit(b, true)}),
              SatResult::Unsat);
    EXPECT_EQ(s.solve({mk_lit(a, false)}), SatResult::Sat);
    EXPECT_TRUE(s.model_value(b));
}

TEST(Sat, RandomInstancesAgainstBruteForce)
{
    // Random 3-CNF over 10 variables, checked against exhaustive
    // enumeration.
    Rng rng(1234);
    for (int round = 0; round < 30; ++round) {
        const unsigned n = 10;
        const unsigned m = 35 + static_cast<unsigned>(rng.below(20));
        std::vector<std::vector<Lit>> clauses;
        for (unsigned c = 0; c < m; ++c) {
            std::vector<Lit> cl;
            for (int k = 0; k < 3; ++k) {
                cl.push_back(mk_lit(
                    static_cast<SatVar>(rng.below(n)), rng.flip()));
            }
            clauses.push_back(cl);
        }

        bool brute_sat = false;
        for (u32 mdl = 0; mdl < (1u << n) && !brute_sat; ++mdl) {
            bool all = true;
            for (const auto &cl : clauses) {
                bool any = false;
                for (Lit l : cl) {
                    const bool val = (mdl >> lit_var(l)) & 1;
                    any |= lit_sign(l) ? !val : val;
                }
                all &= any;
            }
            brute_sat = all;
        }

        SatSolver s;
        for (unsigned i = 0; i < n; ++i)
            s.new_var();
        bool ok = true;
        for (auto &cl : clauses)
            ok &= s.add_clause(cl);
        const bool solver_sat = ok && s.solve() == SatResult::Sat;
        EXPECT_EQ(solver_sat, brute_sat) << "round " << round;
        if (solver_sat) {
            // Verify the model actually satisfies all clauses.
            for (const auto &cl : clauses) {
                bool any = false;
                for (Lit l : cl) {
                    const bool val = s.model_value(lit_var(l));
                    any |= lit_sign(l) ? !val : val;
                }
                EXPECT_TRUE(any);
            }
        }
    }
}

/**
 * The solver and the reference copy of the one it replaced
 * (tests/reference_sat.h), fed the same operations. Every solve must
 * give the same verdict, the same value for every variable, and the
 * same decision, conflict and propagation counts: the same search.
 */
struct SameSearch
{
    SatSolver sat;
    reference::SatSolver ref;
    u64 max_solve_conflicts = 0;

    SatVar
    new_var()
    {
        const SatVar v = sat.new_var();
        EXPECT_EQ(ref.new_var(), v);
        return v;
    }

    void
    add_clause(const std::vector<Lit> &clause)
    {
        EXPECT_EQ(sat.add_clause(clause), ref.add_clause(clause));
    }

    ::testing::AssertionResult
    solve(const std::vector<Lit> &assumptions)
    {
        const u64 conflicts_before = sat.num_conflicts();
        const SatResult got = sat.solve(assumptions);
        const SatResult want = ref.solve(assumptions);
        max_solve_conflicts = std::max(
            max_solve_conflicts, sat.num_conflicts() - conflicts_before);
        if (got != want)
            return ::testing::AssertionFailure() << "verdicts differ";
        if (sat.num_decisions() != ref.num_decisions() ||
            sat.num_conflicts() != ref.num_conflicts() ||
            sat.num_propagations() != ref.num_propagations()) {
            return ::testing::AssertionFailure()
                << "decisions " << sat.num_decisions() << " vs "
                << ref.num_decisions() << ", conflicts "
                << sat.num_conflicts() << " vs " << ref.num_conflicts()
                << ", propagations " << sat.num_propagations() << " vs "
                << ref.num_propagations();
        }
        for (SatVar v = 0; v < sat.num_vars(); ++v) {
            if (sat.model_value(v) != ref.model_value(v)) {
                return ::testing::AssertionFailure()
                    << "model differs at variable " << v;
            }
        }
        return ::testing::AssertionSuccess();
    }
};

TEST(Sat, SameSearchAsReference)
{
    // Random incremental streams: clauses of 2–5 literals and root
    // units between solves, random assumptions, and pigeonhole blocks
    // (7 pigeons, 6 holes) switched on by a selector assumption. A
    // pigeonhole solve passes 256 conflicts, so it restarts. Each
    // stream passes 4,500 conflicts: the bump increment grows by
    // 1/0.95 per conflict, so a bumped activity passes 1e100 and all
    // activities are rescaled.
    Rng rng(0x5a7e);
    for (int stream = 0; stream < 3; ++stream) {
        SameSearch twin;
        std::vector<SatVar> vars;
        std::vector<SatVar> selectors;
        for (int i = 0; i < 40; ++i)
            vars.push_back(twin.new_var());
        const auto random_lit = [&] {
            return mk_lit(vars[rng.below(vars.size())], rng.flip());
        };
        const auto add_pigeonhole = [&] {
            constexpr int kHoles = 6;
            const SatVar selector = twin.new_var();
            selectors.push_back(selector);
            SatVar p[kHoles + 1][kHoles];
            for (auto &row : p) {
                for (SatVar &x : row) {
                    x = twin.new_var();
                    vars.push_back(x);
                }
            }
            for (const auto &row : p) {
                std::vector<Lit> some_hole = {mk_lit(selector, true)};
                for (const SatVar x : row)
                    some_hole.push_back(mk_lit(x, false));
                twin.add_clause(some_hole);
            }
            for (int h = 0; h < kHoles; ++h) {
                for (int i = 0; i <= kHoles; ++i) {
                    for (int j = i + 1; j <= kHoles; ++j) {
                        twin.add_clause(
                            {mk_lit(p[i][h], true), mk_lit(p[j][h], true)});
                    }
                }
            }
        };

        for (int step = 0; step < 400; ++step) {
            const u64 action = rng.below(100);
            if (action < 50) {
                std::vector<Lit> clause(2 + rng.below(4));
                for (Lit &l : clause)
                    l = random_lit();
                twin.add_clause(clause);
            } else if (action < 52) {
                twin.add_clause({random_lit()});
            } else if (action < 56) {
                vars.push_back(twin.new_var());
            } else if (action < 59) {
                add_pigeonhole();
            } else {
                std::vector<Lit> assumptions(rng.below(6));
                for (Lit &l : assumptions)
                    l = random_lit();
                if (!selectors.empty() && rng.below(3) == 0) {
                    assumptions.insert(
                        assumptions.begin() + rng.below(assumptions.size() + 1),
                        mk_lit(selectors[rng.below(selectors.size())],
                               false));
                }
                ASSERT_TRUE(twin.solve(assumptions))
                    << "stream " << stream << " step " << step;
            }
        }
        EXPECT_GT(twin.max_solve_conflicts, 256u) << "stream " << stream;
        EXPECT_GT(twin.sat.num_conflicts(), 4500u) << "stream " << stream;
    }
}

// ---------------------------------------------------------------------
// Bit-vector level.
// ---------------------------------------------------------------------

TEST(Solver, SimpleEquality)
{
    Solver solver;
    auto x = E::var(1, "x", 32);
    auto cond = E::eq(E::add(x, E::constant(32, 5)),
                      E::constant(32, 42));
    ASSERT_EQ(solver.check({cond}), CheckResult::Sat);
    EXPECT_EQ(solver.model_value(x), 37u);
}

TEST(Solver, UnsatConjunction)
{
    Solver solver;
    auto x = E::var(1, "x", 8);
    auto c1 = E::ult(x, E::constant(8, 10));
    auto c2 = E::ult(E::constant(8, 20), x);
    EXPECT_EQ(solver.check({c1, c2}), CheckResult::Unsat);
    // Individually both are satisfiable (incremental reuse).
    EXPECT_EQ(solver.check({c1}), CheckResult::Sat);
    EXPECT_LT(solver.model_value(x), 10u);
    EXPECT_EQ(solver.check({c2}), CheckResult::Sat);
    EXPECT_GT(solver.model_value(x), 20u);
}

TEST(Solver, TrivialConstants)
{
    Solver solver;
    EXPECT_EQ(solver.check({E::bool_const(true)}), CheckResult::Sat);
    EXPECT_EQ(solver.check({E::bool_const(false)}), CheckResult::Unsat);
}

TEST(Solver, MultiplicationInverse)
{
    Solver solver;
    auto x = E::var(1, "x", 16);
    // 3 * x == 99 has the solution x == 33 (3 is odd, hence invertible).
    auto cond = E::eq(E::mul(x, E::constant(16, 3)),
                      E::constant(16, 99));
    ASSERT_EQ(solver.check({cond}), CheckResult::Sat);
    EXPECT_EQ(truncate(solver.model_value(x) * 3, 16), 99u);
}

TEST(Solver, DivisionSemantics)
{
    Solver solver;
    auto x = E::var(1, "x", 8);
    // x / 0 == 0xff for every x (SMT-LIB bvudiv semantics).
    auto cond = E::ne(E::binop(ir::BinOpKind::UDiv, x, E::constant(8, 0)),
                      E::constant(8, 0xff));
    EXPECT_EQ(solver.check({cond}), CheckResult::Unsat);
}

// gtest has no printer for BinOpCase, so each case's ctest name ends
// in a byte dump of it. Every byte is a member with a set value (no
// padding, no pointer), so the names are the same in every build.
struct BinOpCase
{
    ir::BinOpKind op;
    u8 zero[7] = {};
    char name[8];
};

class SolverBinOpProperty : public ::testing::TestWithParam<BinOpCase>
{
};

/**
 * Property: for random concrete a, b the constraint
 * (x == a && y == b && r == x op y) is satisfiable and the model of r
 * matches the IR's constant folder. This keeps the three semantics
 * definitions (folder, evaluator, bit-blaster) in lock-step.
 */
TEST_P(SolverBinOpProperty, CircuitMatchesFolder)
{
    const BinOpCase c = GetParam();
    Rng rng(0xc0ffee ^ static_cast<u64>(c.op));
    for (unsigned width : {4u, 8u, 16u, 32u}) {
        Solver solver;
        for (int trial = 0; trial < 6; ++trial) {
            const u64 a = truncate(rng.next(), width);
            u64 b = truncate(rng.next(), width);
            if (trial == 0)
                b = 0; // Division-by-zero / shift-zero corner.
            auto x = E::var(1, "x", width);
            auto y = E::var(2, "y", width);
            auto r = E::var(3, "r", width == 1 ? 1 : width);
            auto op_expr = E::binop(c.op, x, y);
            auto expected = E::binop(c.op, E::constant(width, a),
                                     E::constant(width, b));
            ASSERT_TRUE(expected->is_const());
            std::vector<ExprRef> conds = {
                E::eq(x, E::constant(width, a)),
                E::eq(y, E::constant(width, b)),
            };
            if (op_expr->width() == 1) {
                conds.push_back(expected->value()
                                    ? op_expr
                                    : E::lnot(op_expr));
            } else {
                conds.push_back(E::eq(op_expr, expected));
            }
            EXPECT_EQ(solver.check(conds), CheckResult::Sat)
                << c.name << " w=" << width << " a=" << a << " b=" << b;
            // And the negation must be unsatisfiable.
            if (op_expr->width() != 1) {
                std::vector<ExprRef> neg = {
                    E::eq(x, E::constant(width, a)),
                    E::eq(y, E::constant(width, b)),
                    E::ne(op_expr, expected),
                };
                EXPECT_EQ(solver.check(neg), CheckResult::Unsat)
                    << c.name << " w=" << width << " a=" << a
                    << " b=" << b;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinOps, SolverBinOpProperty,
    ::testing::Values(
        BinOpCase{.op = ir::BinOpKind::Add, .name = "add"},
        BinOpCase{.op = ir::BinOpKind::Sub, .name = "sub"},
        BinOpCase{.op = ir::BinOpKind::Mul, .name = "mul"},
        BinOpCase{.op = ir::BinOpKind::UDiv, .name = "udiv"},
        BinOpCase{.op = ir::BinOpKind::URem, .name = "urem"},
        BinOpCase{.op = ir::BinOpKind::SDiv, .name = "sdiv"},
        BinOpCase{.op = ir::BinOpKind::SRem, .name = "srem"},
        BinOpCase{.op = ir::BinOpKind::And, .name = "and"},
        BinOpCase{.op = ir::BinOpKind::Or, .name = "or"},
        BinOpCase{.op = ir::BinOpKind::Xor, .name = "xor"},
        BinOpCase{.op = ir::BinOpKind::Shl, .name = "shl"},
        BinOpCase{.op = ir::BinOpKind::LShr, .name = "lshr"},
        BinOpCase{.op = ir::BinOpKind::AShr, .name = "ashr"},
        BinOpCase{.op = ir::BinOpKind::Eq, .name = "eq"},
        BinOpCase{.op = ir::BinOpKind::Ne, .name = "ne"},
        BinOpCase{.op = ir::BinOpKind::ULt, .name = "ult"},
        BinOpCase{.op = ir::BinOpKind::ULe, .name = "ule"},
        BinOpCase{.op = ir::BinOpKind::SLt, .name = "slt"},
        BinOpCase{.op = ir::BinOpKind::SLe, .name = "sle"}),
    [](const ::testing::TestParamInfo<BinOpCase> &info) {
        return std::string(info.param.name);
    });

TEST(Solver, CastsAndIte)
{
    Solver solver;
    auto x = E::var(1, "x", 8);
    // zext: (zext16(x) == 0x00ff) forces x == 0xff.
    ASSERT_EQ(solver.check({E::eq(E::zext(x, 16),
                                  E::constant(16, 0xff))}),
              CheckResult::Sat);
    EXPECT_EQ(solver.model_value(x), 0xffu);
    // sext: (sext16(x) == 0xff80) forces x == 0x80.
    ASSERT_EQ(solver.check({E::eq(E::sext(x, 16),
                                  E::constant(16, 0xff80))}),
              CheckResult::Sat);
    EXPECT_EQ(solver.model_value(x), 0x80u);
    // ite: cond must be picked true to satisfy result == 7.
    auto c = E::var(2, "c", 1);
    auto sel = E::ite(c, E::constant(8, 7), E::constant(8, 9));
    ASSERT_EQ(solver.check({E::eq(sel, E::constant(8, 7))}),
              CheckResult::Sat);
    EXPECT_EQ(solver.model_value(c), 1u);
}

TEST(Solver, ConcatExtractRoundTrip)
{
    Solver solver;
    auto hi = E::var(1, "hi", 8);
    auto lo = E::var(2, "lo", 8);
    auto word = E::concat(hi, lo);
    std::vector<ExprRef> conds = {
        E::eq(word, E::constant(16, 0xbeef)),
    };
    ASSERT_EQ(solver.check(conds), CheckResult::Sat);
    EXPECT_EQ(solver.model_value(hi), 0xbeu);
    EXPECT_EQ(solver.model_value(lo), 0xefu);
}

TEST(Solver, StatsAccumulate)
{
    Solver solver;
    auto x = E::var(1, "x", 8);
    solver.check({E::eq(x, E::constant(8, 1))});
    solver.check({E::ne(x, x)});
    EXPECT_EQ(solver.stats().queries, 2u);
    EXPECT_EQ(solver.stats().sat, 1u);
    EXPECT_EQ(solver.stats().unsat, 1u);
    EXPECT_GE(solver.stats().total_seconds, 0.0);
}

TEST(Assignment, EvalAndSatisfies)
{
    Assignment a;
    a.set(1, 40);
    auto x = E::var(1, "x", 32);
    auto e = E::add(x, E::constant(32, 2));
    EXPECT_EQ(a.eval(e), 42u);
    EXPECT_TRUE(a.satisfies({E::eq(e, E::constant(32, 42))}));
    EXPECT_FALSE(a.satisfies({E::eq(e, E::constant(32, 0))}));
    // Unassigned variables default to zero.
    auto y = E::var(2, "y", 32);
    EXPECT_EQ(a.eval(y), 0u);
}

TEST(Solver, PathConditionShapedQuery)
{
    // A query shaped like real exploration: segment-limit check plus
    // page-table-bit checks over a 32-bit address.
    Solver solver;
    auto esp = E::var(1, "esp", 32);
    auto limit = E::var(2, "limit", 20);
    auto pte_p = E::var(3, "pte_p", 1);
    auto addr = E::sub(esp, E::constant(32, 4));
    std::vector<ExprRef> conds = {
        E::ule(addr, E::zext(limit, 32)),
        E::eq(pte_p, E::bool_const(true)),
        E::eq(E::band(addr, E::constant(32, 3)), E::constant(32, 0)),
        E::ult(E::constant(32, 0x1000), addr),
    };
    ASSERT_EQ(solver.check(conds), CheckResult::Sat);
    const u64 esp_val = solver.model_value(esp);
    const u64 addr_val = truncate(esp_val - 4, 32);
    EXPECT_LE(addr_val, solver.model_value(limit));
    EXPECT_EQ(addr_val & 3, 0u);
    EXPECT_GT(addr_val, 0x1000u);
}

/** Random IR over the variables x and y, each result exactly as wide
 *  as asked. Intermediate values stay at 8 bits or less. */
struct RandomExprs
{
    Rng &rng;
    ExprRef x, y;

    ExprRef
    resize(const ExprRef &e, unsigned width)
    {
        if (e->width() > width) {
            return E::extract(
                e, static_cast<unsigned>(rng.below(e->width() - width + 1)),
                width);
        }
        if (e->width() < width)
            return rng.flip() ? E::zext(e, width) : E::sext(e, width);
        return e;
    }

    ExprRef
    leaf(unsigned width)
    {
        if (rng.below(4) == 0)
            return E::constant(width, truncate(rng.next(), width));
        return resize(rng.flip() ? x : y, width);
    }

    unsigned any_width() { return 1 + static_cast<unsigned>(rng.below(8)); }

    ExprRef
    gen(unsigned width, int depth)
    {
        if (depth == 0)
            return leaf(width);
        switch (rng.below(6)) {
          case 0: {
            const auto op = static_cast<ir::BinOpKind>(
                rng.below(static_cast<u64>(ir::BinOpKind::AShr) + 1));
            return E::binop(op, gen(width, depth - 1),
                            gen(width, depth - 1));
          }
          case 1: {
            const auto op = static_cast<ir::BinOpKind>(
                static_cast<u64>(ir::BinOpKind::Eq) + rng.below(6));
            const unsigned w = any_width();
            return resize(E::binop(op, gen(w, depth - 1), gen(w, depth - 1)),
                          width);
          }
          case 2:
            return E::unop(rng.flip() ? ir::UnOpKind::Not : ir::UnOpKind::Neg,
                           gen(width, depth - 1));
          case 3:
            return resize(gen(any_width(), depth - 1), width);
          case 4:
            return E::ite(gen(1, depth - 1), gen(width, depth - 1),
                          gen(width, depth - 1));
          default: {
            if (width == 1)
                return gen(1, depth - 1);
            const unsigned hi =
                1 + static_cast<unsigned>(rng.below(width - 1));
            return E::concat(gen(hi, depth - 1),
                             gen(width - hi, depth - 1));
          }
        }
    }
};

/** Names of the operator kinds, casts and Ites reachable from @p e. */
void
collect_kinds(const ExprRef &e, std::set<std::string> &kinds)
{
    switch (e->kind()) {
      case ir::ExprKind::BinOp:
        kinds.insert(ir::binop_name(e->binop()));
        break;
      case ir::ExprKind::UnOp:
        kinds.insert(ir::unop_name(e->unop()));
        break;
      case ir::ExprKind::Cast:
        kinds.insert("cast" + std::to_string(static_cast<int>(e->cast())));
        break;
      case ir::ExprKind::Ite:
        kinds.insert("ite");
        break;
      default:
        return;
    }
    for (const ExprRef &child : {e->a(), e->b(), e->c()}) {
        if (child)
            collect_kinds(child, kinds);
    }
}

TEST(Solver, RandomQueriesAgainstBruteForce)
{
    // Random conjunctions over x and y of 1–6 bits each (at most 4,096
    // valuations), all on one Solver so learned clauses, phases and
    // activities carry from query to query. The verdict must match
    // brute force over ir::eval_expr, and a Sat model must satisfy
    // every conjunct under it.
    Rng rng(0xb1a57);
    Solver solver;
    std::set<std::string> kinds;
    u64 sat = 0;
    for (int query = 0; query < 500; ++query) {
        const unsigned wx = 1 + static_cast<unsigned>(rng.below(6));
        const unsigned wy = 1 + static_cast<unsigned>(rng.below(6));
        // One variable per width, so each id keeps its width.
        RandomExprs gen{rng, E::var(wx, "x", wx), E::var(10 + wy, "y", wy)};
        std::vector<ExprRef> conds(1 + rng.below(4));
        for (ExprRef &c : conds) {
            c = gen.gen(1, 1 + static_cast<int>(rng.below(3)));
            collect_kinds(c, kinds);
        }

        u64 vx = 0, vy = 0;
        const std::function<u64(const ir::Expr &)> lookup =
            [&](const ir::Expr &leaf) {
                return leaf.var_id() == gen.x->var_id() ? vx : vy;
            };
        const auto holds = [&] {
            for (const ExprRef &c : conds) {
                if (ir::eval_expr(c, &lookup) != 1)
                    return false;
            }
            return true;
        };
        bool brute_sat = false;
        for (u64 a = 0; a < (u64{1} << wx) && !brute_sat; ++a) {
            for (u64 b = 0; b < (u64{1} << wy) && !brute_sat; ++b) {
                vx = a;
                vy = b;
                brute_sat = holds();
            }
        }

        const CheckResult verdict = solver.check(conds);
        ASSERT_EQ(verdict == CheckResult::Sat, brute_sat)
            << "query " << query;
        if (verdict == CheckResult::Sat) {
            ++sat;
            vx = solver.model_value(gen.x);
            vy = solver.model_value(gen.y);
            EXPECT_TRUE(holds()) << "query " << query << ": x=" << vx
                                 << " y=" << vy;
        }
    }
    // Both verdicts, and every operator, actually occurred.
    EXPECT_GT(sat, 100u);
    EXPECT_LT(sat, 400u);
    for (int op = 0; op <= static_cast<int>(ir::BinOpKind::Concat); ++op)
        EXPECT_TRUE(kinds.count(
            ir::binop_name(static_cast<ir::BinOpKind>(op))));
    EXPECT_TRUE(kinds.count(ir::unop_name(ir::UnOpKind::Not)));
    EXPECT_TRUE(kinds.count(ir::unop_name(ir::UnOpKind::Neg)));
    for (int cast = 0; cast < 3; ++cast)
        EXPECT_TRUE(kinds.count("cast" + std::to_string(cast)));
    EXPECT_TRUE(kinds.count("ite"));
}

// ---------------------------------------------------------------------
// Query memoization (solver/memo.h).
// ---------------------------------------------------------------------

TEST(QueryMemo, CanonicalKeyIsOrderAndDuplicateInsensitive)
{
    auto x = E::var(1, "x", 8);
    auto c1 = E::ult(x, E::constant(8, 10));
    auto c2 = E::ult(E::constant(8, 2), x);
    QueryKey a, b;
    ASSERT_TRUE(QueryMemo::canonical_key({c1, c2}, a));
    ASSERT_TRUE(QueryMemo::canonical_key({c2, c1, c2}, b));
    EXPECT_EQ(a, b);
    // Constant-true conjuncts don't change the identity...
    QueryKey c;
    ASSERT_TRUE(
        QueryMemo::canonical_key({c1, E::bool_const(true), c2}, c));
    EXPECT_EQ(a, c);
    // ...and a constant-false conjunct makes the query uncacheable.
    QueryKey d;
    EXPECT_FALSE(
        QueryMemo::canonical_key({c1, E::bool_const(false)}, d));
}

TEST(QueryMemo, SolverServesRepeatQueriesFromTheCache)
{
    QueryMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    auto x = E::var(1, "x", 32);
    auto cond = E::eq(E::add(x, E::constant(32, 5)),
                      E::constant(32, 42));

    ASSERT_EQ(solver.check({cond}), CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_misses, 1u);
    EXPECT_EQ(solver.stats().cache_hits, 0u);
    EXPECT_EQ(solver.model_value(x), 37u);

    // Second submission — a hit, with the model served from the cache.
    ASSERT_EQ(solver.check({cond}), CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().cache_misses, 1u);
    EXPECT_EQ(solver.stats().queries, 2u); // Hits still count.
    EXPECT_EQ(solver.model_value(x), 37u);
}

TEST(QueryMemo, PermutedConjunctionHits)
{
    QueryMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    auto x = E::var(1, "x", 8);
    auto c1 = E::ult(x, E::constant(8, 10));
    auto c2 = E::ult(E::constant(8, 2), x);
    ASSERT_EQ(solver.check({c1, c2}), CheckResult::Sat);
    ASSERT_EQ(solver.check({c2, c1}), CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    // The cached model still satisfies the (reordered) conditions.
    Assignment a;
    a.set(1, solver.model_value(x));
    EXPECT_TRUE(a.satisfies({c1, c2}));
}

TEST(QueryMemo, UnsatVerdictsAreCachedToo)
{
    QueryMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    auto x = E::var(1, "x", 8);
    auto c1 = E::ult(x, E::constant(8, 10));
    auto c2 = E::ult(E::constant(8, 20), x);
    EXPECT_EQ(solver.check({c1, c2}), CheckResult::Unsat);
    EXPECT_EQ(solver.check({c1, c2}), CheckResult::Unsat);
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().unsat, 2u);
}

TEST(QueryMemo, BeginUnitClearsEntriesButKeepsTotals)
{
    QueryMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    auto x = E::var(1, "x", 8);
    auto cond = E::eq(x, E::constant(8, 7));
    ASSERT_EQ(solver.check({cond}), CheckResult::Sat);
    ASSERT_EQ(solver.check({cond}), CheckResult::Sat);
    EXPECT_EQ(memo.entries(), 1u);
    EXPECT_EQ(memo.stats().unit_hits, 1u);

    // A new unit must not see the previous unit's entries (that is the
    // purity property sharded campaigns rest on)...
    memo.begin_unit();
    EXPECT_EQ(memo.entries(), 0u);
    EXPECT_EQ(memo.stats().unit_hits, 0u);
    ASSERT_EQ(solver.check({cond}), CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_misses, 2u);
    // ...while cumulative counters survive for campaign reporting.
    EXPECT_EQ(memo.stats().hits, 1u);
    EXPECT_EQ(memo.stats().misses, 2u);
}

TEST(QueryMemo, ModelReuseServesSubsumedQueries)
{
    // A deeper query (old conjuncts plus new ones the cached model
    // happens to satisfy) is answered by model reuse — no SAT search.
    QueryMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    auto x = E::var(1, "x", 32);
    auto y = E::var(2, "y", 8);
    auto fix_x = E::eq(x, E::constant(32, 7));
    ASSERT_EQ(solver.check({fix_x}), CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_misses, 1u);

    // x == 7 also satisfies x < 100, and the unconstrained y reads 0,
    // which satisfies y < 5: a different key, served by the old model.
    std::vector<ExprRef> deeper = {
        fix_x,
        E::ult(x, E::constant(32, 100)),
        E::ult(y, E::constant(8, 5)),
    };
    ASSERT_EQ(solver.check(deeper), CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().cache_misses, 1u);
    EXPECT_EQ(solver.model_value(x), 7u);
    EXPECT_EQ(solver.model_value(y), 0u); // Zero-filled in the model.

    // The reused model was re-inserted under the deeper key: the same
    // query again is an exact hit, and the memo holds both entries.
    ASSERT_EQ(solver.check(deeper), CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_hits, 2u);
    EXPECT_EQ(memo.entries(), 2u);

    // A conjunct the cached models falsify still goes to the solver.
    ASSERT_EQ(solver.check({E::eq(x, E::constant(32, 9))}),
              CheckResult::Sat);
    EXPECT_EQ(solver.stats().cache_misses, 2u);
    EXPECT_EQ(solver.model_value(x), 9u);
}

TEST(QueryMemo, HashCollidingConjunctsGetDistinctEntries)
{
    // Two distinct decoder conjuncts with one structural hash. Keyed by
    // hashes, {a, b, x} and {a, x} shared one entry, and {a, x} was
    // served the Unsat of {a, b, x}: a feasible branch pruned.
    auto byte0 = E::var(0, "insn_byte_0", 8);
    auto byte2 = E::var(2, "insn_byte_2", 8);
    auto a = E::lnot(E::ult(byte0, E::constant(8, 0x64)));
    auto b = E::lnot(E::ult(byte2, E::constant(8, 0xea)));
    auto x = E::ult(byte2, E::constant(8, 0xea));
    ASSERT_NE(a.get(), b.get());
    ASSERT_EQ(a->hash(), b->hash());

    QueryMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    ASSERT_EQ(solver.check({a, b, x}), CheckResult::Unsat);
    ASSERT_EQ(solver.check({a, x}), CheckResult::Sat);
    EXPECT_EQ(memo.entries(), 2u);
    Assignment model;
    model.set(0, solver.model_value(byte0));
    model.set(2, solver.model_value(byte2));
    EXPECT_TRUE(model.satisfies({a, x}));
}

TEST(QueryMemo, TrivialConstantQueriesBypassTheCache)
{
    QueryMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    EXPECT_EQ(solver.check({E::bool_const(false)}), CheckResult::Unsat);
    EXPECT_EQ(solver.check({E::bool_const(false)}), CheckResult::Unsat);
    EXPECT_EQ(solver.stats().cache_hits + solver.stats().cache_misses,
              0u);
}

} // namespace
} // namespace pokeemu::solver
