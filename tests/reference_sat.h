/**
 * @file
 * The CDCL solver as it stood before its decision order, clause storage
 * and binary-clause watches were rewritten, kept verbatim as a
 * test-only reference. `Sat.SameSearchAsReference` drives it and
 * solver::SatSolver with the same clause and assumption streams and
 * requires the same verdicts, models and search counters, i.e. the same
 * search. Not linked into the library.
 */
#ifndef POKEEMU_TESTS_REFERENCE_SAT_H
#define POKEEMU_TESTS_REFERENCE_SAT_H

#include <vector>

#include "solver/sat.h"

namespace pokeemu::solver::reference {

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

    struct Clause
    {
        std::vector<Lit> lits;
        bool learned = false;
    };

    struct Watch
    {
        u32 clause_index;
        Lit blocker;
    };

    bool value_is(Lit l, bool expected) const;
    u8 lit_value(Lit l) const;
    void enqueue(Lit l, s32 reason);
    s32 propagate();
    void analyze(s32 conflict, std::vector<Lit> &learned,
                 u32 &backtrack_level);
    void backtrack(u32 level);
    Lit pick_branch();
    void bump_var(SatVar v);
    void decay_activities();
    void attach_clause(u32 ci);

    std::vector<Clause> clauses_;
    std::vector<std::vector<Watch>> watches_; ///< Indexed by literal.
    std::vector<u8> assign_;      ///< Per var: 0/1/kUndef.
    std::vector<u8> phase_;       ///< Saved phase per var.
    std::vector<u32> level_;      ///< Decision level per var.
    std::vector<s32> reason_;     ///< Clause index or -1 per var.
    std::vector<Lit> trail_;
    std::vector<u32> trail_lim_;  ///< Trail size at each decision level.
    u32 qhead_ = 0;
    std::vector<double> activity_;
    double activity_inc_ = 1.0;
    std::vector<u8> seen_;        ///< Scratch for conflict analysis.
    bool root_conflict_ = false;
    u64 conflicts_ = 0;
    u64 decisions_ = 0;
    u64 propagations_ = 0;
};

} // namespace pokeemu::solver::reference

#endif // POKEEMU_TESTS_REFERENCE_SAT_H
