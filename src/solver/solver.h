/**
 * @file
 * The decision-procedure facade used by the symbolic explorer.
 *
 * Mirrors how FuzzBALL drives STP/Z3 (paper §3.1.2): feasibility
 * queries over path conditions, satisfying-assignment (model)
 * extraction, and incremental solving — a query that shares a prefix
 * with the previous one reuses all the lowered structure and learned
 * clauses.
 */
#ifndef POKEEMU_SOLVER_SOLVER_H
#define POKEEMU_SOLVER_SOLVER_H

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "solver/bitblast.h"
#include "solver/memo.h"
#include "support/fault.h"

namespace pokeemu::solver {

enum class CheckResult : u8 { Sat, Unsat };

/** Cumulative statistics, reported by bench_solver (experiment E9). */
struct SolverStats
{
    u64 queries = 0;
    u64 sat = 0;
    u64 unsat = 0;
    u64 timed_out = 0; ///< Queries aborted by the per-query deadline.
    /** Queries answered from / actually solved past the QueryMemo
     *  (hits + misses ≤ queries: trivially-constant queries and
     *  memo-less solvers touch neither counter). */
    u64 cache_hits = 0;
    u64 cache_misses = 0;
    double total_seconds = 0.0;
    double max_seconds = 0.0;
};

/** See file comment. */
class Solver
{
  public:
    Solver();
    ~Solver();

    /**
     * Check satisfiability of the conjunction of @p conditions (each a
     * 1-bit expression). After Sat, the model is available through
     * model_value() until the next check.
     *
     * When a per-query budget is set, a query that exceeds it throws
     * FaultError(SolverTimeout); the solver remains usable.
     *
     * Every Sat the SAT search finds is checked: each condition must
     * evaluate to 1 (ir::eval_expr) under the model model_value()
     * serves. A model that falsifies one throws FaultError(Internal)
     * naming the condition, so the unit is quarantined instead of
     * yielding a wrong test.
     */
    CheckResult check(const std::vector<ir::ExprRef> &conditions);

    /**
     * Per-query budget: wall-clock milliseconds and/or SAT search-loop
     * iterations (0 disables the respective limit). Applies to every
     * subsequent check().
     */
    void
    set_query_budget(u64 ms, u64 steps = 0)
    {
        budget_ms_ = ms;
        budget_steps_ = steps;
    }

    /** Chaos hook: checked once per check() call (not owned). */
    void
    set_fault_injector(support::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /**
     * Attach a query memo (not owned; null disables memoization).
     * Verdicts — and, for Sat, witnessing models — of non-trivial
     * queries are cached under their canonical conjunction key; a hit
     * skips bit-blasting and the SAT search entirely.
     */
    void
    set_memo(QueryMemo *memo)
    {
        memo_ = memo;
    }

    /**
     * Model value for @p expr (typically a Var) after Sat. After a
     * memoized Sat, variables of the cached query read from its stored
     * model; other variables fall back to the last solved SAT model
     * (never-constrained variables read 0, as always).
     */
    u64 model_value(const ir::ExprRef &expr) const;

    const SolverStats &stats() const { return stats_; }

    /** Underlying SAT statistics (decisions/conflicts/propagations). */
    const SatSolver &sat() const { return *sat_; }

  private:
    /** Value of the Var @p leaf in the last SAT model (0 when the
     *  variable was never bit-blasted). */
    u64 solved_var_value(const ir::Expr &leaf) const;
    /** The same, decoded into @p decoded (var id -> value) on first
     *  use and read from it after. */
    u64 solved_var_value(const ir::Expr &leaf,
                         std::unordered_map<u32, u64> &decoded) const;
    /** Throw unless the last SAT model satisfies every condition;
     *  each variable read is decoded into @p decoded once. */
    void validate_model(const std::vector<ir::ExprRef> &conditions,
                        std::unordered_map<u32, u64> &decoded) const;

    std::unique_ptr<SatSolver> sat_;
    std::unique_ptr<BitBlaster> blaster_;
    SolverStats stats_;
    u64 budget_ms_ = 0;    ///< 0 = unlimited.
    u64 budget_steps_ = 0; ///< 0 = unlimited.
    support::FaultInjector *injector_ = nullptr;
    QueryMemo *memo_ = nullptr;
    /** Model of the last check when it was a memoized Sat; reset by
     *  every non-hit check. */
    std::optional<std::unordered_map<u32, u64>> hit_model_;
};

/**
 * A concrete assignment of values to symbolic variables, keyed by
 * variable identity. This is what the decision procedure returns for a
 * path condition, what state-difference minimization edits (paper
 * §3.4), and what the test generator consumes (paper §4.2).
 */
class Assignment
{
  public:
    void set(u32 var_id, u64 value) { values_[var_id] = value; }

    bool has(u32 var_id) const { return values_.count(var_id) != 0; }

    u64 get(u32 var_id) const
    {
        auto it = values_.find(var_id);
        return it == values_.end() ? 0 : it->second;
    }

    const std::unordered_map<u32, u64> &values() const { return values_; }

    /**
     * Evaluate @p expr under this assignment; unassigned variables
     * evaluate to 0.
     */
    u64 eval(const ir::ExprRef &expr) const;

    /** True when every condition evaluates to 1 under the assignment. */
    bool satisfies(const std::vector<ir::ExprRef> &conditions) const;

  private:
    std::unordered_map<u32, u64> values_;
};

} // namespace pokeemu::solver

#endif // POKEEMU_SOLVER_SOLVER_H
