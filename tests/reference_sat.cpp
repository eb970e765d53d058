#include "reference_sat.h"

#include <algorithm>
#include <cmath>

namespace pokeemu::solver::reference {

SatSolver::SatSolver() = default;

SatVar
SatSolver::new_var()
{
    const SatVar v = num_vars();
    assign_.push_back(kUndef);
    phase_.push_back(0);
    level_.push_back(0);
    reason_.push_back(-1);
    activity_.push_back(0.0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    return v;
}

u8
SatSolver::lit_value(Lit l) const
{
    const u8 a = assign_[lit_var(l)];
    if (a == kUndef)
        return kUndef;
    return lit_sign(l) ? (a ^ 1) : a;
}

bool
SatSolver::value_is(Lit l, bool expected) const
{
    return lit_value(l) == (expected ? 1 : 0);
}

void
SatSolver::attach_clause(u32 ci)
{
    const auto &lits = clauses_[ci].lits;
    assert(lits.size() >= 2);
    watches_[lit_neg(lits[0])].push_back({ci, lits[1]});
    watches_[lit_neg(lits[1])].push_back({ci, lits[0]});
}

bool
SatSolver::add_clause(std::vector<Lit> clause)
{
    if (root_conflict_)
        return false;
    // A previous solve() may have left the trail at a decision level
    // (models are read from the trail); new clauses go in at the root.
    backtrack(0);

    // Root-level simplification: drop false literals, detect tautology
    // and duplicates.
    std::sort(clause.begin(), clause.end());
    std::vector<Lit> out;
    Lit prev = ~Lit{0};
    for (Lit l : clause) {
        if (l == prev)
            continue;
        if (!out.empty() && l == lit_neg(prev))
            return true; // Tautology.
        if (lit_value(l) == 1)
            return true; // Already satisfied at root.
        if (lit_value(l) == 0)
            continue; // False at root; drop literal.
        out.push_back(l);
        prev = l;
    }

    if (out.empty()) {
        root_conflict_ = true;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], -1);
        if (propagate() != -1) {
            root_conflict_ = true;
            return false;
        }
        return true;
    }
    clauses_.push_back({std::move(out), false});
    attach_clause(static_cast<u32>(clauses_.size() - 1));
    return true;
}

void
SatSolver::enqueue(Lit l, s32 reason)
{
    assert(lit_value(l) == kUndef);
    const SatVar v = lit_var(l);
    assign_[v] = lit_sign(l) ? 0 : 1;
    phase_[v] = assign_[v];
    level_[v] = static_cast<u32>(trail_lim_.size());
    reason_[v] = reason;
    trail_.push_back(l);
}

s32
SatSolver::propagate()
{
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++propagations_;
        auto &watch_list = watches_[p];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < watch_list.size(); ++i) {
            const Watch w = watch_list[i];
            // Fast path: blocker already true.
            if (lit_value(w.blocker) == 1) {
                watch_list[keep++] = w;
                continue;
            }
            Clause &c = clauses_[w.clause_index];
            auto &lits = c.lits;
            // Normalize so lits[0] is the other watched literal.
            const Lit false_lit = lit_neg(p);
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            assert(lits[1] == false_lit);
            if (lit_value(lits[0]) == 1) {
                watch_list[keep++] = {w.clause_index, lits[0]};
                continue;
            }
            // Look for a new literal to watch.
            bool moved = false;
            for (std::size_t k = 2; k < lits.size(); ++k) {
                if (lit_value(lits[k]) != 0) {
                    std::swap(lits[1], lits[k]);
                    watches_[lit_neg(lits[1])].push_back(
                        {w.clause_index, lits[0]});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Clause is unit or conflicting.
            watch_list[keep++] = w;
            if (lit_value(lits[0]) == 0) {
                // Conflict: restore untraversed watches and bail.
                for (std::size_t j = i + 1; j < watch_list.size(); ++j)
                    watch_list[keep++] = watch_list[j];
                watch_list.resize(keep);
                qhead_ = static_cast<u32>(trail_.size());
                return static_cast<s32>(w.clause_index);
            }
            enqueue(lits[0], static_cast<s32>(w.clause_index));
        }
        watch_list.resize(keep);
    }
    return -1;
}

void
SatSolver::bump_var(SatVar v)
{
    activity_[v] += activity_inc_;
    if (activity_[v] > 1e100) {
        for (auto &a : activity_)
            a *= 1e-100;
        activity_inc_ *= 1e-100;
    }
}

void
SatSolver::decay_activities()
{
    activity_inc_ /= 0.95;
}

void
SatSolver::analyze(s32 conflict, std::vector<Lit> &learned,
                   u32 &backtrack_level)
{
    learned.clear();
    learned.push_back(0); // Placeholder for the asserting literal.

    u32 counter = 0;
    Lit p = ~Lit{0};
    s32 reason_clause = conflict;
    std::size_t index = trail_.size();
    const u32 current_level = static_cast<u32>(trail_lim_.size());

    do {
        assert(reason_clause >= 0);
        const Clause &c = clauses_[reason_clause];
        const std::size_t start = (p == ~Lit{0}) ? 0 : 1;
        for (std::size_t k = start; k < c.lits.size(); ++k) {
            const Lit q = c.lits[k];
            const SatVar v = lit_var(q);
            if (seen_[v] || level_[v] == 0)
                continue;
            seen_[v] = 1;
            bump_var(v);
            if (level_[v] >= current_level) {
                ++counter;
            } else {
                learned.push_back(q);
            }
        }
        // Find the next seen literal on the trail.
        while (!seen_[lit_var(trail_[index - 1])])
            --index;
        --index;
        p = trail_[index];
        seen_[lit_var(p)] = 0;
        reason_clause = reason_[lit_var(p)];
        --counter;
    } while (counter > 0);
    learned[0] = lit_neg(p);

    // Compute the backtrack level (second-highest level in the clause)
    // and move that literal to position 1 for watching.
    if (learned.size() == 1) {
        backtrack_level = 0;
    } else {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learned.size(); ++i) {
            if (level_[lit_var(learned[i])] >
                level_[lit_var(learned[max_i])]) {
                max_i = i;
            }
        }
        std::swap(learned[1], learned[max_i]);
        backtrack_level = level_[lit_var(learned[1])];
    }
    for (std::size_t i = 1; i < learned.size(); ++i)
        seen_[lit_var(learned[i])] = 0;
}

void
SatSolver::backtrack(u32 target_level)
{
    if (trail_lim_.size() <= target_level)
        return;
    const u32 bound = trail_lim_[target_level];
    for (std::size_t i = trail_.size(); i > bound; --i) {
        const SatVar v = lit_var(trail_[i - 1]);
        assign_[v] = kUndef;
        reason_[v] = -1;
    }
    trail_.resize(bound);
    trail_lim_.resize(target_level);
    qhead_ = bound;
}

Lit
SatSolver::pick_branch()
{
    SatVar best = ~SatVar{0};
    double best_act = -1.0;
    for (SatVar v = 0; v < num_vars(); ++v) {
        if (assign_[v] == kUndef && activity_[v] > best_act) {
            best = v;
            best_act = activity_[v];
        }
    }
    if (best == ~SatVar{0})
        return ~Lit{0};
    return mk_lit(best, phase_[best] == 0);
}

SatResult
SatSolver::solve(const std::vector<Lit> &assumptions,
                 support::Deadline *deadline)
{
    if (root_conflict_)
        return SatResult::Unsat;
    backtrack(0);
    if (propagate() != -1) {
        root_conflict_ = true;
        return SatResult::Unsat;
    }

    u64 conflict_budget = 256;
    u64 conflicts_this_restart = 0;

    for (;;) {
        if (deadline && deadline->consume()) {
            // Leave the solver reusable: learned clauses stay, the
            // trail unwinds to the root before the next query anyway.
            backtrack(0);
            throw support::FaultError(
                support::FaultClass::SolverTimeout,
                "sat: query deadline expired after " +
                    std::to_string(conflicts_) + " total conflicts");
        }
        const s32 conflict = propagate();
        if (conflict != -1) {
            ++conflicts_;
            ++conflicts_this_restart;
            if (trail_lim_.empty()) {
                root_conflict_ = true;
                return SatResult::Unsat;
            }
            // Conflict below or at the assumption prefix: UNSAT under
            // these assumptions.
            std::vector<Lit> learned;
            u32 bt_level = 0;
            analyze(conflict, learned, bt_level);
            decay_activities();
            if (trail_lim_.size() <= assumptions.size()) {
                // The conflict depends on the assumptions only when we
                // cannot backtrack above them; analyze() already gave
                // us a clause, apply it if it is above the prefix.
                if (bt_level < assumptions.size()) {
                    // The conflict depends on the assumption prefix:
                    // UNSAT for this query. We deliberately do not
                    // attach the learned clause here — after
                    // backtrack(0) its watched literals may already be
                    // false at the root, which would break the watch
                    // invariant. Unit clauses are safe to keep.
                    backtrack(0);
                    if (learned.size() == 1) {
                        if (lit_value(learned[0]) == kUndef)
                            enqueue(learned[0], -1);
                        else if (lit_value(learned[0]) == 0)
                            root_conflict_ = true;
                    }
                    return SatResult::Unsat;
                }
            }
            backtrack(bt_level);
            if (learned.size() == 1) {
                if (lit_value(learned[0]) == kUndef) {
                    enqueue(learned[0], -1);
                } else if (lit_value(learned[0]) == 0) {
                    root_conflict_ = true;
                    return SatResult::Unsat;
                }
            } else {
                clauses_.push_back({learned, true});
                const u32 ci = static_cast<u32>(clauses_.size() - 1);
                attach_clause(ci);
                enqueue(learned[0], static_cast<s32>(ci));
            }
            continue;
        }

        // Restart policy: geometric, keeping assumptions in place.
        if (conflicts_this_restart >= conflict_budget) {
            conflicts_this_restart = 0;
            conflict_budget += conflict_budget / 2;
            backtrack(0);
        }

        // Re-establish assumptions first.
        if (trail_lim_.size() < assumptions.size()) {
            const Lit a = assumptions[trail_lim_.size()];
            const u8 val = lit_value(a);
            if (val == 1) {
                // Already implied; open an empty decision level so the
                // prefix bookkeeping stays aligned.
                trail_lim_.push_back(static_cast<u32>(trail_.size()));
                continue;
            }
            if (val == 0)
                return SatResult::Unsat;
            trail_lim_.push_back(static_cast<u32>(trail_.size()));
            enqueue(a, -1);
            continue;
        }

        const Lit next = pick_branch();
        if (next == ~Lit{0})
            return SatResult::Sat;
        ++decisions_;
        trail_lim_.push_back(static_cast<u32>(trail_.size()));
        enqueue(next, -1);
    }
}

bool
SatSolver::model_value(SatVar v) const
{
    // Unconstrained variables default to their saved phase.
    if (assign_[v] == kUndef)
        return phase_[v] != 0;
    return assign_[v] == 1;
}

} // namespace pokeemu::solver::reference
