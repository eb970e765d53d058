#include "analysis/optimize.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/dataflow.h"
#include "analysis/liveness.h"
#include "analysis/walk.h"
#include "ir/expr.h"

namespace pokeemu::analysis {

using ir::ExprKind;
using ir::ExprRef;
using ir::StmtKind;

namespace {

u64
count_exec(const ir::Program &p)
{
    u64 n = 0;
    for (const ir::Stmt &s : p.stmts)
        n += s.kind != StmtKind::Comment ? 1 : 0;
    return n;
}

bool
is_leaf(const ExprRef &x)
{
    return x->kind() == ExprKind::Const ||
           x->kind() == ExprKind::Var || x->kind() == ExprKind::Temp;
}

/**
 * Delete the statements flagged in @p remove, remapping every label to
 * the first surviving statement at or after its old position. Labels
 * that pointed into a deleted tail clamp to the last statement; only
 * labels nothing reachable targets can end up there. Returns whether
 * anything was deleted.
 */
bool
compact(ir::Program &p, const std::vector<bool> &remove)
{
    const u32 n = static_cast<u32>(p.stmts.size());
    std::vector<u32> new_index(n + 1, 0);
    u32 kept = 0;
    for (u32 i = 0; i < n; ++i) {
        new_index[i] = kept;
        kept += remove[i] ? 0 : 1;
    }
    new_index[n] = kept;
    if (kept == n)
        return false;
    for (u32 &pos : p.label_pos)
        pos = std::min(new_index[pos], kept != 0 ? kept - 1 : 0);
    std::vector<ir::Stmt> stmts;
    stmts.reserve(kept);
    for (u32 i = 0; i < n; ++i) {
        if (!remove[i])
            stmts.push_back(std::move(p.stmts[i]));
    }
    p.stmts = std::move(stmts);
    return true;
}

/**
 * Fold statically-decided control flow and strengthen provably-
 * constant Load/Store addresses. Decisions come from the pure-mode
 * dataflow engine, so each rewrite holds for every initial state.
 */
bool
fold_branches(ir::Program &p, OptStats &stats)
{
    const Cfg cfg = Cfg::build(p);
    const ProgramFacts facts = analyze_program(p, cfg);
    bool changed = false;
    std::vector<bool> remove(p.stmts.size(), false);
    for (u32 i = 0; i < p.stmts.size(); ++i) {
        ir::Stmt &s = p.stmts[i];
        if (s.kind == StmtKind::CJmp) {
            std::optional<bool> dir;
            if (s.expr->is_const())
                dir = s.expr->value() != 0;
            else if (facts.decision(i) == Decision::AlwaysTrue)
                dir = true;
            else if (facts.decision(i) == Decision::AlwaysFalse)
                dir = false;
            if (dir.has_value()) {
                s.kind = StmtKind::Jmp;
                s.target_true = *dir ? s.target_true : s.target_false;
                s.target_false = 0;
                s.expr = nullptr;
                ++stats.branches_folded;
                changed = true;
            }
        } else if (s.kind == StmtKind::Assume) {
            // Constant/decided-true assumes can never fail; decided-
            // false ones carry the fault behavior and must stay.
            if ((s.expr->is_const() && s.expr->value() != 0) ||
                facts.decision(i) == Decision::AlwaysTrue) {
                remove[i] = true;
                ++stats.assumes_dropped;
                changed = true;
            }
        } else if ((s.kind == StmtKind::Load ||
                    s.kind == StmtKind::Store) &&
                   facts.analyzed && i < facts.const_addr.size() &&
                   facts.const_addr[i].has_value() &&
                   !s.addr->is_const()) {
            s.addr = ir::E::constant(32, *facts.const_addr[i]);
            ++stats.addrs_strengthened;
            changed = true;
        }
    }
    changed = compact(p, remove) || changed;
    return changed;
}

bool
remove_unreachable(ir::Program &p, OptStats &stats)
{
    const Cfg cfg = Cfg::build(p);
    std::vector<bool> remove(p.stmts.size(), false);
    bool changed = false;
    for (BlockId b = 0; b < cfg.num_blocks(); ++b) {
        if (cfg.reachable(b))
            continue;
        const BasicBlock &block = cfg.blocks()[b];
        for (u32 i = block.first; i < block.end; ++i) {
            remove[i] = true;
            ++stats.unreachable_stmts;
            changed = true;
        }
    }
    compact(p, remove);
    return changed;
}

/**
 * Copy propagation / forward substitution. Temps are statically
 * single-assignment, but a definition inside a loop is dynamically
 * reassigned every iteration, so eligibility splits on the defining
 * block's cycle taint:
 *
 *  - non-tainted def: the block executes at most once per run, every
 *    use is dominated by the def, and (transitively) every temp the
 *    rhs mentions is also defined in a non-tainted block — the rhs
 *    evaluates to the same value at any use site, so it substitutes
 *    anywhere. Leaf rhs always; non-leaf rhs only when the temp has a
 *    single use outside any loop (re-evaluating a big expression every
 *    iteration would pessimize replay).
 *  - tainted def: substituted only within the defining block, with a
 *    forward scan that kills a pending replacement when any temp it
 *    mentions is redefined (the use might otherwise read the next
 *    iteration's value).
 */
bool
propagate_copies(ir::Program &p, OptStats &stats)
{
    const Cfg cfg = Cfg::build(p);
    const ProgramFacts facts = analyze_program(p, cfg);
    if (!facts.analyzed)
        return false;

    const u32 num_temps = p.num_temps();
    const u32 n = static_cast<u32>(p.stmts.size());
    std::vector<s64> def_site(num_temps, -1); // -2 = multiple defs.
    std::vector<u64> use_count(num_temps, 0);
    std::vector<u32> use_site(num_temps, 0);
    for (u32 i = 0; i < n; ++i) {
        const ir::Stmt &s = p.stmts[i];
        const s64 def = stmt_def(s);
        if (def >= 0 && def < static_cast<s64>(num_temps)) {
            const auto t = static_cast<u32>(def);
            def_site[t] = def_site[t] == -1 ? i : -2;
        }
        for_each_stmt_use(s, [&](u32 t, unsigned) {
            if (t < num_temps) {
                ++use_count[t];
                use_site[t] = i;
            }
        });
    }
    const auto tainted = [&](u32 stmt_index) {
        const BlockId b = cfg.block_of(stmt_index);
        return b < facts.cycle_tainted.size() &&
               facts.cycle_tainted[b];
    };
    const auto eligible_rhs = [&](u32 t, const ir::Stmt &s) {
        if (s.kind != StmtKind::Assign)
            return false;
        bool self = false;
        for_each_temp_use(s.expr, [&](u32 u, unsigned) {
            self = self || u == t;
        });
        if (self)
            return false;
        return is_leaf(s.expr) || use_count[t] == 1;
    };

    u64 replaced = 0;
    std::unordered_map<u32, ExprRef> global;
    for (u32 t = 0; t < num_temps; ++t) {
        if (def_site[t] < 0 || use_count[t] == 0)
            continue;
        const auto i = static_cast<u32>(def_site[t]);
        const ir::Stmt &s = p.stmts[i];
        if (!eligible_rhs(t, s) || tainted(i))
            continue;
        if (!is_leaf(s.expr) && tainted(use_site[t]))
            continue; // Would re-evaluate the rhs every iteration.
        global.emplace(t, s.expr);
    }
    if (!global.empty()) {
        const auto lookup = [&](const ir::Expr &e) -> ExprRef {
            if (e.kind() != ExprKind::Temp)
                return nullptr;
            const auto it = global.find(e.temp_id());
            if (it == global.end())
                return nullptr;
            ++replaced;
            return it->second;
        };
        for (u32 i = 0; i < n; ++i) {
            ir::Stmt &s = p.stmts[i];
            // Skip the defining statement itself: dead-code removal
            // deletes it once the uses are gone.
            const s64 def = stmt_def(s);
            if (def >= 0 && global.count(static_cast<u32>(def)) != 0)
                continue;
            if (s.expr)
                s.expr = ir::substitute(s.expr, lookup);
            if (s.addr)
                s.addr = ir::substitute(s.addr, lookup);
        }
    }

    // Local pass over cycle-tainted blocks.
    for (const BlockId b : cfg.reverse_postorder()) {
        if (b >= facts.cycle_tainted.size() || !facts.cycle_tainted[b])
            continue;
        const BasicBlock &block = cfg.blocks()[b];
        std::unordered_map<u32, ExprRef> local;
        const auto lookup = [&](const ir::Expr &e) -> ExprRef {
            if (e.kind() != ExprKind::Temp)
                return nullptr;
            const auto it = local.find(e.temp_id());
            if (it == local.end())
                return nullptr;
            ++replaced;
            return it->second;
        };
        for (u32 i = block.first; i < block.end; ++i) {
            ir::Stmt &s = p.stmts[i];
            if (s.expr)
                s.expr = ir::substitute(s.expr, lookup);
            if (s.addr)
                s.addr = ir::substitute(s.addr, lookup);
            const s64 def = stmt_def(s);
            if (def < 0)
                continue;
            const auto t = static_cast<u32>(def);
            local.erase(t);
            for (auto it = local.begin(); it != local.end();) {
                bool mentions = false;
                for_each_temp_use(it->second, [&](u32 u, unsigned) {
                    mentions = mentions || u == t;
                });
                it = mentions ? local.erase(it) : ++it;
            }
            if (def_site[t] == static_cast<s64>(i) &&
                eligible_rhs(t, s)) {
                local.emplace(t, s.expr);
            }
        }
    }

    stats.copies_propagated += replaced;
    return replaced != 0;
}

bool
remove_dead(ir::Program &p, OptStats &stats)
{
    const Cfg cfg = Cfg::build(p);
    const LivenessResult live = compute_liveness(p, cfg);
    std::vector<bool> remove(p.stmts.size(), false);
    bool changed = false;
    for (u32 i = 0; i < p.stmts.size(); ++i) {
        const ir::Stmt &s = p.stmts[i];
        if (s.kind == StmtKind::Comment) {
            remove[i] = true;
            changed = true;
        } else if (s.kind == StmtKind::Assign && !live.def_live[i]) {
            remove[i] = true;
            ++stats.dead_assigns;
            changed = true;
        } else if (s.kind == StmtKind::Load && !live.def_live[i] &&
                   s.addr->is_const()) {
            // A symbolic-address load concretizes its address, which
            // exploration observes; only literal addresses are free.
            remove[i] = true;
            ++stats.dead_loads;
            changed = true;
        } else if (s.kind == StmtKind::Store && live.store_dead[i]) {
            remove[i] = true;
            ++stats.dead_stores;
            changed = true;
        }
    }
    compact(p, remove);
    return changed;
}

/**
 * Retarget jumps through chains of trivial Jmp statements, rewrite a
 * CJmp whose two targets resolve to the same place into a Jmp, and
 * drop jumps to the lexically next statement.
 */
bool
thread_jumps(ir::Program &p, OptStats &stats)
{
    const u32 n = static_cast<u32>(p.stmts.size());
    const u32 num_labels = p.num_labels();
    std::vector<u32> final_label(num_labels);
    for (u32 l = 0; l < num_labels; ++l) {
        u32 cur = l;
        std::unordered_set<u32> seen;
        while (seen.insert(cur).second) {
            const ir::Stmt &s = p.stmts[p.label_pos[cur]];
            if (s.kind != StmtKind::Jmp || s.target_true == cur)
                break;
            cur = s.target_true;
        }
        final_label[l] = cur;
    }
    bool changed = false;
    std::vector<bool> remove(n, false);
    for (u32 i = 0; i < n; ++i) {
        ir::Stmt &s = p.stmts[i];
        if (s.kind == StmtKind::CJmp) {
            const u32 t = final_label[s.target_true];
            const u32 f = final_label[s.target_false];
            if (t != s.target_true || f != s.target_false) {
                s.target_true = t;
                s.target_false = f;
                ++stats.jumps_threaded;
                changed = true;
            }
            if (p.label_pos[t] == p.label_pos[f]) {
                // Both arms land in the same place; the condition is
                // pure, so the branch decides nothing.
                s.kind = StmtKind::Jmp;
                s.target_false = 0;
                s.expr = nullptr;
                ++stats.branches_folded;
                changed = true;
            }
        } else if (s.kind == StmtKind::Jmp) {
            const u32 t = final_label[s.target_true];
            if (t != s.target_true) {
                s.target_true = t;
                ++stats.jumps_threaded;
                changed = true;
            }
            if (p.label_pos[s.target_true] == i + 1) {
                remove[i] = true;
                ++stats.jumps_threaded;
                changed = true;
            }
        }
    }
    compact(p, remove);
    return changed;
}

} // namespace

OptResult
optimize_program(const ir::Program &program, const OptConfig &config)
{
    OptResult r;
    r.stats.stmts_before = program.stmts.size();
    r.stats.exec_before = count_exec(program);
    r.program = program;
    for (unsigned round = 0; round < config.max_rounds; ++round) {
        ++r.stats.rounds;
        bool changed = false;
        changed |= fold_branches(r.program, r.stats);
        changed |= remove_unreachable(r.program, r.stats);
        changed |= propagate_copies(r.program, r.stats);
        changed |= remove_dead(r.program, r.stats);
        changed |= thread_jumps(r.program, r.stats);
        if (!changed)
            break;
    }
    r.stats.stmts_after = r.program.stmts.size();
    r.stats.exec_after = count_exec(r.program);
    return r;
}

} // namespace pokeemu::analysis
