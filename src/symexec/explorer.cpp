#include "symexec/explorer.h"

#include "analysis/verifier.h"

namespace pokeemu::symexec {

using ir::ExprRef;
using ir::StmtKind;
namespace E = ir::E;

namespace {

/** Edge key for the pre-first-branch segment. */
constexpr u32 kNoEdgeNode = ~u32{0};

} // namespace

PathExplorer::PathExplorer(const ir::Program &program, VarPool &pool,
                           InitialByteFn initial, ExplorerConfig config)
    : program_(program), pool_(pool), initial_(std::move(initial)),
      config_(config), rng_(config.seed)
{
    solver_.set_query_budget(config_.solver_query_ms,
                             config_.solver_query_steps);
    solver_.set_fault_injector(config_.injector);
    solver_.set_memo(config_.memo);
    assert(config_.policy == nullptr || config_.coverage != nullptr);
    program_.validate();
#ifndef NDEBUG
    // Fail fast on malformed programs instead of producing garbage
    // paths; this build keeps assertions on, so the full verifier runs
    // here too (it is cheap next to path exploration).
    const analysis::Report report = analysis::Verifier::check(program_);
    if (report.has_errors()) {
        panic("explorer: program '" + program_.name +
              "' failed verification:\n" + report.to_string());
    }
#endif
}

ExprRef
PathExplorer::resolve(const ExprRef &expr, const RunState &run)
{
    return ir::substitute(expr, [&](const ir::Expr &leaf) -> ExprRef {
        if (leaf.kind() == ir::ExprKind::Temp) {
            const ExprRef &v = run.temps[leaf.temp_id()];
            if (!v)
                panic("explorer: use of unassigned temp");
            return v;
        }
        return nullptr;
    });
}

void
PathExplorer::refresh_model()
{
    for (const ExprRef &v : pool_.all())
        cur_model_.set(v->var_id(), solver_.model_value(v));
}

solver::CheckResult
PathExplorer::check(const RunState &run, const ExprRef &extra)
{
    std::vector<ExprRef> conds = run.pc;
    conds.push_back(extra);
    const auto result = solver_.check(conds);
    if (result == solver::CheckResult::Sat)
        refresh_model();
    return result;
}

solver::CheckResult
PathExplorer::probe(const RunState &run, const ExprRef &extra,
                    bool decided)
{
    if (!decided)
        return check(run, extra);
    switch (config_.prune) {
      case analysis::PruneMode::Off: {
        solver_.set_memo(nullptr);
        const auto result = check(run, extra);
        solver_.set_memo(config_.memo);
        return result;
      }
      case analysis::PruneMode::On:
        ++avoided_;
        return solver::CheckResult::Unsat;
    }
    return solver::CheckResult::Unsat; // Unreachable.
}

bool
PathExplorer::constrain(RunState &run, const ExprRef &cond)
{
    if (cond->is_const())
        return cond->value() != 0;
    if (cur_model_.eval(cond) != 0) {
        run.pc.push_back(cond);
        return true;
    }
    if (check(run, cond) == solver::CheckResult::Unsat)
        return false;
    run.pc.push_back(cond);
    return true;
}

std::optional<bool>
PathExplorer::take_branch(RunState &run, const ExprRef &cond,
                          const BranchTargets *targets,
                          analysis::Decision decision)
{
    assert(!cond->is_const());
    // A decided condition is constant over every valuation satisfying
    // the preconditions, so the model (which satisfies them) must
    // already point the decided way.
    assert(decision == analysis::Decision::Unknown ||
           (decision == analysis::Decision::AlwaysTrue) ==
               (cur_model_.eval(cond) != 0));
    const NodeId node = run.path.empty()
        ? tree_.root()
        : tree_.descend(run.path.back().first, run.path.back().second);

    // The direction the current model supports is feasible for free.
    const bool model_dir = cur_model_.eval(cond) != 0;
    tree_.set_feasibility(node, model_dir, Feasibility::Yes);

    const bool can_model = !tree_.direction_done(node, model_dir);
    const bool can_other = !tree_.direction_done(node, !model_dir);
    bool dir;
    if (can_model && can_other) {
        // Frontier scheduling: with both subtrees open the order is a
        // free choice — let the policy spend the path budget on
        // uncovered structure first. No preference (or no policy, or a
        // bit-binding branch) falls back to the seeded flip. Note the
        // RNG is still advanced: the random stream consumed at a node
        // must not depend on the coverage state, or a policy
        // preference here would perturb every later default choice.
        const bool flip_dir = rng_.flip() ? model_dir : !model_dir;
        dir = flip_dir;
        if (config_.policy != nullptr && targets != nullptr) {
            coverage::BranchContext ctx;
            ctx.from = targets->from;
            ctx.target[0] = targets->target[0];
            ctx.target[1] = targets->target[1];
            ctx.depth = tree_.depth(node);
            ctx.model_dir = model_dir;
            if (const auto preferred =
                    config_.policy->prefer(*config_.coverage, ctx)) {
                dir = *preferred;
            }
        }
    } else if (can_model) {
        dir = model_dir;
    } else if (can_other) {
        dir = !model_dir;
    } else {
        // Everything below this node is already explored or infeasible;
        // this prefix is a dead end.
        return std::nullopt;
    }

    const ExprRef polarity = dir ? cond : E::lnot(cond);
    if (dir != model_dir) {
        // Need a model witnessing this direction; feasibility may also
        // still be unknown. When the facts decided this statement, the
        // non-model direction is provably infeasible and probe() may
        // skip the dispatch (prune mode permitting).
        const bool decided = decision != analysis::Decision::Unknown;
        if (probe(run, polarity, decided) == solver::CheckResult::Unsat) {
            tree_.set_feasibility(node, dir, Feasibility::No);
            if (!can_model)
                return std::nullopt;
            dir = model_dir;
            run.path.emplace_back(node, dir);
            run.events_in_segment = 0;
            run.pc.push_back(dir ? cond : E::lnot(cond));
            return dir;
        }
        tree_.set_feasibility(node, dir, Feasibility::Yes);
    }
    run.path.emplace_back(node, dir);
    run.events_in_segment = 0;
    run.pc.push_back(polarity);
    return dir;
}

std::optional<u32>
PathExplorer::concretize_address(RunState &run, const ExprRef &addr,
                                 ir::ConcretizePolicy policy)
{
    if (policy == ir::ConcretizePolicy::Exhaustive) {
        // Bind one bit at a time, most significant first, through the
        // decision tree so all feasible values are eventually visited.
        for (int bit = static_cast<int>(addr->width()) - 1; bit >= 0;
             --bit) {
            const ExprRef b = E::extract(addr, bit, 1);
            if (b->is_const())
                continue;
            if (!take_branch(run, b))
                return std::nullopt;
        }
        return static_cast<u32>(cur_model_.eval(addr));
    }

    // SingleRandom: one feasible value, pinned, cached per tree edge so
    // replayed prefixes concretize identically.
    std::tuple<u32, u8, u32> key{
        run.path.empty() ? kNoEdgeNode : run.path.back().first,
        run.path.empty() ? u8{0} : static_cast<u8>(run.path.back().second),
        run.events_in_segment};
    ++run.events_in_segment;

    auto it = concretization_cache_.find(key);
    u64 value;
    if (it != concretization_cache_.end()) {
        value = it->second;
    } else {
        value = cur_model_.eval(addr);
        concretization_cache_.emplace(key, value);
    }
    const ExprRef pin = E::eq(addr, E::constant(addr->width(), value));
    if (!constrain(run, pin)) {
        panic("explorer: cached concretization became infeasible "
              "(nondeterministic program?)");
    }
    return static_cast<u32>(value);
}

PathExplorer::RunOutcome
PathExplorer::run_one_path(RunState &run, u32 &halt_code)
{
    u32 ip = 0;
    for (;;) {
        if (run.steps >= config_.max_steps)
            return RunOutcome::StepLimit;
        if (config_.deadline.consume())
            return RunOutcome::DeadlineExpired;
        assert(ip < program_.stmts.size());
        if (config_.coverage != nullptr) {
            // Control only ever enters a block at its leader (labels
            // are leaders; fallthrough lands on the next leader), so
            // this records each block entry exactly once — including
            // re-entries of the same block around a loop.
            if (const auto entered = config_.coverage->entered_block(ip))
                run.trace.push_back(*entered);
        }
        const ir::Stmt &s = program_.stmts[ip];
        ++run.steps;
        switch (s.kind) {
          case StmtKind::Assign:
            run.temps[s.temp] = resolve(s.expr, run);
            ++ip;
            break;
          case StmtKind::Load: {
            ExprRef addr = resolve(s.addr, run);
            u32 a;
            if (addr->is_const()) {
                a = static_cast<u32>(addr->value());
            } else {
                auto resolved =
                    concretize_address(run, addr, s.policy);
                if (!resolved)
                    return RunOutcome::Infeasible;
                a = *resolved;
            }
            run.temps[s.temp] = run.memory.load(a, s.size);
            ++ip;
            break;
          }
          case StmtKind::Store: {
            ExprRef addr = resolve(s.addr, run);
            u32 a;
            if (addr->is_const()) {
                a = static_cast<u32>(addr->value());
            } else {
                auto resolved =
                    concretize_address(run, addr, s.policy);
                if (!resolved)
                    return RunOutcome::Infeasible;
                a = *resolved;
            }
            run.memory.store(a, s.size, resolve(s.expr, run));
            ++ip;
            break;
          }
          case StmtKind::CJmp: {
            const ExprRef cond = resolve(s.expr, run);
            bool dir;
            if (cond->is_const()) {
                dir = cond->value() != 0;
            } else {
                BranchTargets targets;
                const BranchTargets *ctx = nullptr;
                if (config_.coverage != nullptr) {
                    const coverage::CoverageMap &cov = *config_.coverage;
                    targets.from = cov.block_of(ip);
                    targets.target[0] = cov.block_of(
                        program_.label_pos[s.target_false]);
                    targets.target[1] = cov.block_of(
                        program_.label_pos[s.target_true]);
                    ctx = &targets;
                }
                auto taken =
                    take_branch(run, cond, ctx, stmt_decision(ip));
                if (!taken)
                    return RunOutcome::Infeasible;
                dir = *taken;
            }
            ip = program_.label_pos[dir ? s.target_true
                                        : s.target_false];
            break;
          }
          case StmtKind::Jmp:
            ip = program_.label_pos[s.target_true];
            break;
          case StmtKind::Assume: {
            const ExprRef cond = resolve(s.expr, run);
            if (!cond->is_const() &&
                stmt_decision(ip) == analysis::Decision::AlwaysFalse) {
                // constrain() would find the model violating cond and
                // dispatch the same probe; an AlwaysTrue decision
                // saves nothing (the model satisfies the condition, so
                // constrain() never queries) and is not special-cased.
                assert(cur_model_.eval(cond) == 0);
                if (probe(run, cond, /*decided=*/true) ==
                    solver::CheckResult::Unsat)
                    return RunOutcome::Infeasible;
                // Only reachable when an Off-mode dispatch contradicts
                // the facts; behave exactly like constrain() after a
                // Sat probe rather than trusting the bad decision.
                run.pc.push_back(cond);
                ++ip;
                break;
            }
            if (!constrain(run, cond))
                return RunOutcome::Infeasible;
            ++ip;
            break;
          }
          case StmtKind::Halt: {
            const ExprRef code = resolve(s.expr, run);
            if (code->is_const()) {
                halt_code = static_cast<u32>(code->value());
            } else {
                const u64 v = cur_model_.eval(code);
                if (!constrain(run,
                               E::eq(code, E::constant(32, v))))
                    panic("explorer: halt-code pin infeasible");
                halt_code = static_cast<u32>(v);
            }
            return RunOutcome::Halted;
          }
          case StmtKind::Comment:
            ++ip;
            break;
        }
    }
}

ExploreStats
PathExplorer::explore(const PathCallback &on_path)
{
    assert(!explored_);
    explored_ = true;

    if (config_.injector) {
        config_.injector->maybe_fail(support::FaultSite::Exploration,
                                     "explorer: " + program_.name);
    }

    ExploreStats stats;
    // Safety valve: dead-end prefixes do not count as paths, but they
    // must not allow unbounded looping either.
    const u64 max_runs = config_.max_paths * 4 + 64;
    u64 runs = 0;

    while (!tree_.exhausted() && stats.paths < config_.max_paths &&
           runs < max_runs) {
        if (config_.deadline.limited() && config_.deadline.expired()) {
            stats.deadline_expired = true;
            break;
        }
        ++runs;
        RunState run(initial_, program_.num_temps());
        u32 halt_code = 0;
        bool precondition_failed = false;
        for (const ir::ExprRef &pre : config_.preconditions) {
            if (!constrain(run, pre)) {
                precondition_failed = true;
                break;
            }
        }
        if (precondition_failed)
            panic("explorer: unsatisfiable precondition");
        const RunOutcome outcome = run_one_path(run, halt_code);
        if (outcome == RunOutcome::DeadlineExpired) {
            // Graceful degradation: the partial path is discarded (it
            // never reached a leaf) but everything completed before it
            // stands. finish_leaf is skipped so a budget-escalation
            // retry re-enters the same subtree.
            stats.deadline_expired = true;
            break;
        }
        tree_.finish_leaf(run.path);

        if (outcome == RunOutcome::Infeasible) {
            ++stats.infeasible;
            continue;
        }

        PathInfo info;
        info.index = stats.paths;
        info.status = outcome == RunOutcome::Halted
            ? PathStatus::Halted
            : PathStatus::StepLimit;
        info.halt_code = halt_code;
        info.path_condition = run.pc;
        info.assignment = cur_model_;
        info.steps = run.steps;
        assert(cur_model_.satisfies(run.pc));
        if (outcome == RunOutcome::StepLimit)
            ++stats.step_limited;
        // Coverage is credited before the callback runs so the next
        // path's frontier decisions already see this path's blocks.
        if (config_.coverage != nullptr)
            config_.coverage->cover_path(run.trace);
        on_path(info, run.memory);
        ++stats.paths;
    }

    stats.complete = tree_.exhausted();
    // Attribute the truncation. Priority: an expired deadline beats
    // the path cap (both can hold when the deadline fires exactly at
    // the cap); an unexhausted tree means the path cap (or the
    // dead-end run valve) stopped the loop; and a "complete" tree
    // with step-limited paths is still truncated — those leaves ended
    // at the step budget, not at a Halt, hiding whatever lay beyond.
    if (stats.deadline_expired) {
        stats.truncation = coverage::TruncationReason::Deadline;
    } else if (!stats.complete) {
        stats.truncation = coverage::TruncationReason::PathCap;
    } else if (stats.step_limited != 0) {
        stats.truncation = coverage::TruncationReason::StepLimit;
    }
    if (config_.coverage != nullptr) {
        const coverage::CoverageStats cov = config_.coverage->stats();
        stats.covered_blocks = cov.covered_blocks;
        stats.total_blocks = cov.total_blocks;
        stats.covered_edges = cov.covered_edges;
        stats.total_edges = cov.total_edges;
    }
    stats.solver_queries = solver_.stats().queries;
    stats.solver_cache_hits = solver_.stats().cache_hits;
    stats.solver_cache_misses = solver_.stats().cache_misses;
    stats.solver_queries_avoided = avoided_;
    if (config_.facts != nullptr && config_.facts->analyzed) {
        stats.static_decisions = config_.facts->decided_cjmps +
                                 config_.facts->decided_assumes;
    }
    stats.tree_nodes = tree_.num_nodes();
    return stats;
}

} // namespace pokeemu::symexec
