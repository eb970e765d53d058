/**
 * @file
 * A CDCL (conflict-driven clause learning) SAT solver.
 *
 * This is the bottom of the decision-procedure stack that replaces
 * STP/Z3 in the paper (§3.1.2): bit-vector path conditions are
 * bit-blasted (see bitblast.h) into CNF over these variables. The
 * solver implements the standard modern recipe: two-literal watches,
 * first-UIP conflict analysis with clause learning, VSIDS-style
 * activity decision heuristic, phase saving, geometric restarts, and
 * MiniSat-style solving under assumptions (which is what makes the
 * exploration loop's thousands of incremental feasibility queries
 * cheap).
 *
 * Three data-structure choices keep the search cheap without changing
 * it:
 * - Decision order. A decision takes the unassigned variable of
 *   highest activity, lowest index on ties. Every variable sits in one
 *   array sorted by (activity desc, index asc), and a cursor skips the
 *   assigned prefix; backtracking moves the cursor back to the
 *   earliest variable it unassigns. Conflicts only raise the activities
 *   of the variables they bump, so the next decision merges those back
 *   into place (a full sort only after a rescale, which may create
 *   ties). Exploration queries rarely conflict, so most activities stay
 *   0; a heap would sift every re-inserted variable through those ties.
 * - One clause arena. A clause is a slice of one literal vector: its
 *   size word, then its literals. A clause reference is the offset of
 *   the size word.
 * - Binary clauses in the watch lists. A binary clause's watch always
 *   carries the other literal as its blocker and is tagged binary, so
 *   propagation keeps, enqueues or reports a conflict without reading
 *   the arena.
 *
 * The decisions, trail order, learned clauses and models are exactly
 * those of the plain scan-and-vector solver these replaced;
 * `Sat.SameSearchAsReference` (tests/test_solver.cpp) compares the two
 * on random incremental streams.
 */
#ifndef POKEEMU_SOLVER_SAT_H
#define POKEEMU_SOLVER_SAT_H

#include <vector>

#include "support/common.h"
#include "support/fault.h"

namespace pokeemu::solver {

/**
 * A literal: positive var v is encoded as 2v, negated as 2v+1.
 * Variables are dense indices starting at 0.
 */
using Lit = u32;
using SatVar = u32;

constexpr Lit
mk_lit(SatVar v, bool negated)
{
    return (v << 1) | (negated ? 1 : 0);
}

constexpr Lit lit_neg(Lit l) { return l ^ 1; }
constexpr SatVar lit_var(Lit l) { return l >> 1; }
constexpr bool lit_sign(Lit l) { return (l & 1) != 0; }

enum class SatResult : u8 { Sat, Unsat };

/** See file comment. */
class SatSolver
{
  public:
    SatSolver();

    /** Allocate a fresh variable and return its index. */
    SatVar new_var();

    u32 num_vars() const { return static_cast<u32>(assign_.size()); }

    /**
     * Add a clause (disjunction of literals). Returns false if the
     * solver is already known unsatisfiable at the root level.
     */
    bool add_clause(std::vector<Lit> clause);

    /**
     * Solve under the given assumption literals. The assumptions are
     * treated as temporary unit clauses; learned clauses persist
     * across calls, which is what gives incrementality.
     *
     * A non-null @p deadline is consumed once per search-loop
     * iteration; when it expires, the query aborts with a FaultError
     * classed SolverTimeout (the solver itself stays usable — learned
     * clauses are kept and the next query starts clean).
     */
    SatResult solve(const std::vector<Lit> &assumptions = {},
                    support::Deadline *deadline = nullptr);

    /** Model value of @p v after a Sat result. */
    bool model_value(SatVar v) const;

    /// @name Statistics
    /// @{
    u64 num_conflicts() const { return conflicts_; }
    u64 num_decisions() const { return decisions_; }
    u64 num_propagations() const { return propagations_; }
    /// @}

  private:
    enum : u8 { kUndef = 2 };

    /** Offset of a clause's size word in arena_. */
    using CRef = u32;
    static constexpr CRef kNoClause = ~CRef{0};
    static constexpr Lit kNoLit = ~Lit{0};

    struct Watch
    {
        u32 tagged; ///< CRef << 1, | 1 for a binary clause.
        Lit blocker;

        CRef cref() const { return tagged >> 1; }
        bool binary() const { return (tagged & 1) != 0; }
    };

    Lit *clause_lits(CRef c) { return &arena_[c + 1]; }
    u32 clause_size(CRef c) const { return arena_[c]; }
    /** 1 true, 0 false, kUndef or kUndef + 1 unassigned. */
    u8
    lit_value(Lit l) const
    {
        return assign_[lit_var(l)] ^ static_cast<u8>(l & 1);
    }
    void enqueue(Lit l, CRef reason);
    CRef propagate();
    void analyze(CRef conflict, std::vector<Lit> &learned,
                 u32 &backtrack_level);
    void backtrack(u32 level);
    Lit pick_branch();
    void sort_order();
    void bump_var(SatVar v);
    void decay_activities();
    void store_clause(const std::vector<Lit> &lits);

    std::vector<Lit> arena_;      ///< Every clause: size, then literals.
    std::vector<std::vector<Watch>> watches_; ///< Indexed by literal.
    std::vector<u8> assign_;      ///< Per var: 0/1/kUndef.
    std::vector<u8> phase_;       ///< Saved phase per var.
    std::vector<u32> level_;      ///< Decision level per var.
    std::vector<CRef> reason_;    ///< Implying clause or kNoClause.
    std::vector<Lit> trail_;
    std::vector<u32> trail_lim_;  ///< Trail size at each decision level.
    u32 qhead_ = 0;
    std::vector<double> activity_;
    double activity_inc_ = 1.0;
    /** Every variable, by (activity desc, index asc) once sorted. */
    std::vector<SatVar> order_;
    /** Per var: its index in order_, or kMoved once bumped. */
    std::vector<u32> order_pos_;
    static constexpr u32 kMoved = ~u32{0};
    /** Every variable before this position in order_ is assigned. */
    u32 order_head_ = 0;
    /** Variables bumped since order_ was last sorted. */
    std::vector<SatVar> moved_;
    bool rescaled_ = false;       ///< Activities rescaled since then.
    std::vector<u8> seen_;        ///< Scratch for conflict analysis.
    bool root_conflict_ = false;
    u64 conflicts_ = 0;
    u64 decisions_ = 0;
    u64 propagations_ = 0;
};

} // namespace pokeemu::solver

#endif // POKEEMU_SOLVER_SAT_H
