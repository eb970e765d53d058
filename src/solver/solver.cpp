#include "solver/solver.h"

#include <algorithm>

#include "ir/printer.h"

namespace pokeemu::solver {

Solver::Solver()
    : sat_(std::make_unique<SatSolver>()),
      blaster_(std::make_unique<BitBlaster>(*sat_))
{
}

Solver::~Solver() = default;

CheckResult
Solver::check(const std::vector<ir::ExprRef> &conditions)
{
    if (injector_) {
        injector_->maybe_fail(support::FaultSite::SolverQuery,
                              "solver.check");
    }
    const auto start = std::chrono::steady_clock::now();

    QueryKey key;
    const bool cacheable =
        memo_ != nullptr && QueryMemo::canonical_key(conditions, key);

    bool from_cache = false;
    CheckResult result = CheckResult::Unsat;
    if (cacheable) {
        if (const MemoEntry *entry = memo_->find(key, conditions)) {
            // Hit (exact or via model reuse): skip bit-blasting and
            // the SAT search; for Sat the stored model witnesses the
            // conjunction.
            result = entry->sat ? CheckResult::Sat : CheckResult::Unsat;
            from_cache = true;
            ++stats_.cache_hits;
            if (entry->sat)
                hit_model_ = entry->model;
            else
                hit_model_.reset();
        }
    }

    if (!from_cache) {
        hit_model_.reset();

        std::vector<Lit> assumptions;
        assumptions.reserve(conditions.size());
        bool trivially_false = false;
        for (const auto &cond : conditions) {
            assert(cond->width() == 1);
            if (cond->is_const()) {
                if (cond->value() == 0)
                    trivially_false = true;
                continue;
            }
            assumptions.push_back(blaster_->blast(cond)[0]);
        }

        if (trivially_false) {
            result = CheckResult::Unsat;
        } else {
            support::Deadline deadline =
                support::Deadline::with(budget_ms_, budget_steps_);
            support::Deadline *limit =
                deadline.limited() ? &deadline : nullptr;
            try {
                result =
                    sat_->solve(assumptions, limit) == SatResult::Sat
                    ? CheckResult::Sat
                    : CheckResult::Unsat;
            } catch (const support::FaultError &) {
                ++stats_.queries;
                ++stats_.timed_out;
                stats_.total_seconds +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                throw;
            }
        }

        // Each variable is decoded from the SAT model once, for the
        // model check and the memo entry alike.
        std::unordered_map<u32, u64> model;
        if (result == CheckResult::Sat)
            validate_model(conditions, model);

        if (cacheable) {
            ++stats_.cache_misses;
            MemoEntry entry;
            entry.sat = result == CheckResult::Sat;
            if (entry.sat) {
                // Also the variables of Ite arms the check skipped.
                std::vector<ir::ExprRef> vars;
                for (const auto &cond : conditions)
                    ir::Expr::collect_vars(cond, vars);
                for (const ir::ExprRef &v : vars)
                    solved_var_value(*v, model);
                entry.model = std::move(model);
            }
            memo_->insert(key, std::move(entry));
        }
    }

    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    ++stats_.queries;
    if (result == CheckResult::Sat)
        ++stats_.sat;
    else
        ++stats_.unsat;
    stats_.total_seconds += secs;
    stats_.max_seconds = std::max(stats_.max_seconds, secs);
    return result;
}

u64
Solver::solved_var_value(const ir::Expr &leaf) const
{
    if (leaf.kind() != ir::ExprKind::Var)
        panic("model_value: Temp in solver expression");
    const std::vector<Lit> *bits = blaster_->var_bits(leaf.var_id());
    if (bits == nullptr)
        return 0; // Never constrained: any value works.
    u64 v = 0;
    for (std::size_t i = 0; i < bits->size(); ++i) {
        const Lit l = (*bits)[i];
        const bool b = lit_sign(l) ? !sat_->model_value(lit_var(l))
                                   : sat_->model_value(lit_var(l));
        if (b)
            v |= u64{1} << i;
    }
    return v;
}

u64
Solver::solved_var_value(const ir::Expr &leaf,
                         std::unordered_map<u32, u64> &decoded) const
{
    const auto [it, fresh] = decoded.try_emplace(leaf.var_id());
    if (fresh)
        it->second = solved_var_value(leaf);
    return it->second;
}

void
Solver::validate_model(const std::vector<ir::ExprRef> &conditions,
                       std::unordered_map<u32, u64> &decoded) const
{
    // Evaluate the IR itself over the model's variable values, so a
    // wrong circuit shows here too, not only a wrong SAT model.
    const std::function<u64(const ir::Expr &)> lookup =
        [&](const ir::Expr &leaf) {
        return solved_var_value(leaf, decoded);
    };
    for (std::size_t i = 0; i < conditions.size(); ++i) {
        if (ir::eval_expr(conditions[i], &lookup) != 1) {
            throw support::FaultError(
                support::FaultClass::Internal,
                "solver: the Sat model falsifies condition " +
                    std::to_string(i) + " of " +
                    std::to_string(conditions.size()) + ": " +
                    ir::to_string(conditions[i]));
        }
    }
}

u64
Solver::model_value(const ir::ExprRef &expr) const
{
    if (!hit_model_)
        return blaster_->model_value(expr);
    // Memoized Sat: variables of the cached query read its stored
    // model; anything else falls back to the last solved model so the
    // value is still deterministic.
    std::function<u64(const ir::Expr &)> lookup =
        [&](const ir::Expr &leaf) -> u64 {
        if (leaf.kind() == ir::ExprKind::Var) {
            auto it = hit_model_->find(leaf.var_id());
            if (it != hit_model_->end())
                return it->second;
        }
        return solved_var_value(leaf);
    };
    if (expr->is_var())
        return lookup(*expr);
    return ir::eval_expr(expr, &lookup);
}

u64
Assignment::eval(const ir::ExprRef &expr) const
{
    std::function<u64(const ir::Expr &)> lookup =
        [&](const ir::Expr &leaf) -> u64 {
        if (leaf.kind() != ir::ExprKind::Var)
            panic("Assignment::eval: Temp in stored expression");
        return get(leaf.var_id());
    };
    return ir::eval_expr(expr, &lookup);
}

bool
Assignment::satisfies(const std::vector<ir::ExprRef> &conditions) const
{
    for (const auto &cond : conditions) {
        if (eval(cond) == 0)
            return false;
    }
    return true;
}

} // namespace pokeemu::solver
