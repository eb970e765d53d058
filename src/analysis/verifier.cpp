#include "analysis/verifier.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/cfg.h"
#include "analysis/walk.h"
#include "ir/expr.h"

namespace pokeemu::analysis {

using ir::BinOpKind;
using ir::CastKind;
using ir::Expr;
using ir::ExprKind;
using ir::ExprRef;
using ir::StmtKind;

namespace {

constexpr const char *kPass = "verifier";

bool
width_in_range(unsigned width)
{
    return width >= 1 && width <= 64;
}

/**
 * Recursive width/shape checker for one expression DAG. Shared nodes
 * are checked once per program (the memo persists across statements);
 * findings anchor to the first statement that referenced the node.
 */
class ExprChecker
{
  public:
    ExprChecker(const ir::Program &program, Report &report)
        : program_(program), report_(report)
    {
    }

    void check(const ExprRef &expr, u32 stmt_index)
    {
        if (!expr)
            return;
        if (!seen_.insert(expr.get()).second)
            return;
        const Expr &e = *expr;
        if (!width_in_range(e.width())) {
            report_.error(stmt_index, kPass,
                          "expression width " +
                              std::to_string(e.width()) +
                              " outside [1, 64]");
            return;
        }
        switch (e.kind()) {
          case ExprKind::Const:
            if (e.value() != truncate(e.value(), e.width())) {
                report_.error(stmt_index, kPass,
                              "constant value does not fit its width");
            }
            break;
          case ExprKind::Var:
            break;
          case ExprKind::Temp:
            if (e.temp_id() >= program_.num_temps()) {
                report_.error(stmt_index, kPass,
                              "reference to undeclared temp t" +
                                  std::to_string(e.temp_id()));
            } else if (e.width() !=
                       program_.temp_width[e.temp_id()]) {
                report_.error(
                    stmt_index, kPass,
                    "temp t" + std::to_string(e.temp_id()) +
                        " referenced at width " +
                        std::to_string(e.width()) + " but declared " +
                        std::to_string(
                            program_.temp_width[e.temp_id()]));
            }
            break;
          case ExprKind::UnOp:
            if (!require(e.a(), stmt_index, "unop operand"))
                break;
            if (e.width() != e.a()->width()) {
                mismatch(stmt_index, ir::unop_name(e.unop()),
                         e.width(), e.a()->width());
            }
            check(e.a(), stmt_index);
            break;
          case ExprKind::BinOp:
            check_binop(e, stmt_index);
            break;
          case ExprKind::Cast:
            check_cast(e, stmt_index);
            break;
          case ExprKind::Ite:
            if (!require(e.a(), stmt_index, "ite condition") ||
                !require(e.b(), stmt_index, "ite then-value") ||
                !require(e.c(), stmt_index, "ite else-value")) {
                break;
            }
            if (e.a()->width() != 1) {
                report_.error(stmt_index, kPass,
                              "ite condition must be 1 bit wide, got " +
                                  std::to_string(e.a()->width()));
            }
            if (e.b()->width() != e.c()->width() ||
                e.width() != e.b()->width()) {
                report_.error(
                    stmt_index, kPass,
                    "ite arm widths " + std::to_string(e.b()->width()) +
                        "/" + std::to_string(e.c()->width()) +
                        " must both equal result width " +
                        std::to_string(e.width()));
            }
            check(e.a(), stmt_index);
            check(e.b(), stmt_index);
            check(e.c(), stmt_index);
            break;
        }
    }

  private:
    bool require(const ExprRef &operand, u32 stmt_index,
                 const char *what)
    {
        if (operand)
            return true;
        report_.error(stmt_index, kPass,
                      std::string("missing ") + what);
        return false;
    }

    void mismatch(u32 stmt_index, const char *op, unsigned result,
                  unsigned operand)
    {
        report_.error(stmt_index, kPass,
                      std::string(op) + ": result width " +
                          std::to_string(result) +
                          " inconsistent with operand width " +
                          std::to_string(operand));
    }

    void check_binop(const Expr &e, u32 stmt_index)
    {
        if (!require(e.a(), stmt_index, "binop left operand") ||
            !require(e.b(), stmt_index, "binop right operand")) {
            return;
        }
        const unsigned aw = e.a()->width();
        const unsigned bw = e.b()->width();
        const char *op = ir::binop_name(e.binop());
        if (e.binop() == BinOpKind::Concat) {
            if (aw + bw > 64 || e.width() != aw + bw) {
                report_.error(
                    stmt_index, kPass,
                    std::string(op) + ": result width " +
                        std::to_string(e.width()) +
                        " must be the sum of operand widths " +
                        std::to_string(aw) + "+" + std::to_string(bw));
            }
        } else if (aw != bw) {
            report_.error(stmt_index, kPass,
                          std::string(op) + ": operand widths " +
                              std::to_string(aw) + " and " +
                              std::to_string(bw) + " differ");
        } else if (ir::is_comparison(e.binop())) {
            if (e.width() != 1) {
                report_.error(stmt_index, kPass,
                              std::string(op) +
                                  ": comparison result must be 1 bit "
                                  "wide, got " +
                                  std::to_string(e.width()));
            }
        } else if (e.width() != aw) {
            mismatch(stmt_index, op, e.width(), aw);
        }
        check(e.a(), stmt_index);
        check(e.b(), stmt_index);
    }

    void check_cast(const Expr &e, u32 stmt_index)
    {
        if (!require(e.a(), stmt_index, "cast operand"))
            return;
        const unsigned aw = e.a()->width();
        switch (e.cast()) {
          case CastKind::ZExt:
          case CastKind::SExt:
            if (e.width() < aw) {
                report_.error(stmt_index, kPass,
                              "extension narrows: result width " +
                                  std::to_string(e.width()) +
                                  " < operand width " +
                                  std::to_string(aw));
            }
            break;
          case CastKind::Extract:
            if (e.extract_lo() + e.width() > aw) {
                report_.error(
                    stmt_index, kPass,
                    "extract [" + std::to_string(e.extract_lo()) +
                        ", " +
                        std::to_string(e.extract_lo() + e.width()) +
                        ") exceeds operand width " +
                        std::to_string(aw));
            }
            break;
        }
        check(e.a(), stmt_index);
    }

    const ir::Program &program_;
    Report &report_;
    std::unordered_set<const Expr *> seen_;
};

/** Label/operand checks for one statement; expr trees via @p exprs. */
void
check_stmt(const ir::Program &program, u32 i, ExprChecker &exprs,
           Report &report)
{
    const ir::Stmt &s = program.stmts[i];
    const auto check_temp_dest = [&]() {
        if (s.temp >= program.num_temps()) {
            report.error(i, kPass,
                         "destination temp t" + std::to_string(s.temp) +
                             " is not declared");
            return false;
        }
        return true;
    };
    const auto check_addr = [&]() {
        if (!s.addr) {
            report.error(i, kPass, "missing address expression");
        } else if (s.addr->width() != 32) {
            report.error(i, kPass,
                         "address must be 32 bits wide, got " +
                             std::to_string(s.addr->width()));
        }
        if (s.size != 1 && s.size != 2 && s.size != 4) {
            report.error(i, kPass,
                         "access size " + std::to_string(s.size) +
                             " not in {1, 2, 4}");
            return false;
        }
        return true;
    };
    const auto check_label = [&](ir::Label l, const char *what) {
        if (l >= program.num_labels()) {
            report.error(i, kPass,
                         std::string(what) + " label L" +
                             std::to_string(l) + " is not declared");
        }
    };
    const auto check_cond_width = [&](const char *what) {
        if (!s.expr) {
            report.error(i, kPass,
                         std::string("missing ") + what +
                             " condition");
        } else if (s.expr->width() != 1) {
            report.error(i, kPass,
                         std::string(what) +
                             " condition must be 1 bit wide, got " +
                             std::to_string(s.expr->width()));
        }
    };

    switch (s.kind) {
      case StmtKind::Assign:
        if (!s.expr) {
            report.error(i, kPass, "missing assign value");
        } else if (check_temp_dest() &&
                   s.expr->width() != program.temp_width[s.temp]) {
            report.error(i, kPass,
                         "assign of " +
                             std::to_string(s.expr->width()) +
                             "-bit value to t" + std::to_string(s.temp) +
                             " declared " +
                             std::to_string(program.temp_width[s.temp]) +
                             " bits wide");
        }
        break;
      case StmtKind::Load:
        if (check_addr() && check_temp_dest() &&
            program.temp_width[s.temp] != s.size * 8) {
            report.error(i, kPass,
                         "load of " + std::to_string(s.size) +
                             " bytes into t" + std::to_string(s.temp) +
                             " declared " +
                             std::to_string(program.temp_width[s.temp]) +
                             " bits wide");
        }
        break;
      case StmtKind::Store:
        if (check_addr()) {
            if (!s.expr) {
                report.error(i, kPass, "missing store value");
            } else if (s.expr->width() != s.size * 8) {
                report.error(i, kPass,
                             "store of " + std::to_string(s.size) +
                                 " bytes with " +
                                 std::to_string(s.expr->width()) +
                                 "-bit value");
            }
        }
        break;
      case StmtKind::CJmp:
        check_cond_width("cjmp");
        check_label(s.target_true, "cjmp true-");
        check_label(s.target_false, "cjmp false-");
        break;
      case StmtKind::Jmp:
        check_label(s.target_true, "jmp");
        break;
      case StmtKind::Assume:
        check_cond_width("assume");
        break;
      case StmtKind::Halt:
        if (!s.expr) {
            report.error(i, kPass, "missing halt code");
        } else if (s.expr->width() != 32) {
            report.error(i, kPass,
                         "halt code must be 32 bits wide, got " +
                             std::to_string(s.expr->width()));
        }
        break;
      case StmtKind::Comment:
        break;
    }
    exprs.check(s.expr, i);
    exprs.check(s.addr, i);
}

/**
 * Forward must-defined dataflow over the reachable CFG: a temp use is
 * sound only when an Assign/Load dominates it on every path. Uses of
 * temps with no definition anywhere are errors; uses missing a
 * definition on only some paths are warnings (the explorer panics at
 * runtime if such a path is actually taken).
 */
void
check_def_before_use(const ir::Program &program, const Cfg &cfg,
                     Report &report)
{
    const u32 num_temps = program.num_temps();
    std::vector<bool> defined_anywhere(num_temps, false);
    for (const ir::Stmt &s : program.stmts) {
        const s64 def = stmt_def(s);
        if (def >= 0 && def < static_cast<s64>(num_temps))
            defined_anywhere[static_cast<u32>(def)] = true;
    }

    // Temp sets as 64-bit words, so the meet ANDs 64 temps at a time.
    using TempSet = std::vector<u64>;
    const std::size_t words = (num_temps + 63) / 64;
    const auto define = [&](TempSet &defs, const ir::Stmt &s) {
        const s64 def = stmt_def(s);
        if (def >= 0 && def < static_cast<s64>(num_temps)) {
            const u32 t = static_cast<u32>(def);
            defs[t / 64] |= u64{1} << (t % 64);
        }
    };

    // out[b] starts all-defined (optimistic) except the entry, and the
    // meet is intersection over reachable predecessors.
    const u32 nb = cfg.num_blocks();
    std::vector<TempSet> out(nb, TempSet(words, ~u64{0}));
    const auto block_in = [&](BlockId b, TempSet &in) {
        std::fill(in.begin(), in.end(),
                  b != cfg.entry() ? ~u64{0} : u64{0});
        for (const BlockId p : cfg.blocks()[b].preds) {
            if (!cfg.reachable(p))
                continue;
            for (std::size_t w = 0; w < words; ++w)
                in[w] &= out[p][w];
        }
    };
    TempSet next(words);
    bool changed = true;
    while (changed) {
        changed = false;
        for (const BlockId b : cfg.reverse_postorder()) {
            block_in(b, next);
            const BasicBlock &block = cfg.blocks()[b];
            for (u32 i = block.first; i < block.end; ++i)
                define(next, program.stmts[i]);
            if (next != out[b]) {
                out[b].swap(next);
                changed = true;
            }
        }
    }

    // Report each temp's problem once, at its first offending use.
    std::vector<bool> reported(num_temps, false);
    TempSet defs(words);
    for (const BlockId b : cfg.reverse_postorder()) {
        block_in(b, defs);
        const BasicBlock &block = cfg.blocks()[b];
        for (u32 i = block.first; i < block.end; ++i) {
            const ir::Stmt &s = program.stmts[i];
            for_each_stmt_use(s, [&](u32 t, unsigned) {
                if (t >= num_temps || reported[t] ||
                    ((defs[t / 64] >> (t % 64)) & 1) != 0)
                    return;
                reported[t] = true;
                if (!defined_anywhere[t]) {
                    report.error(i, kPass,
                                 "use of temp t" + std::to_string(t) +
                                     " which is never defined");
                } else {
                    report.warning(
                        i, kPass,
                        "temp t" + std::to_string(t) +
                            " may be used before definition "
                            "(not defined on all paths)");
                }
            });
            define(defs, s);
        }
    }
}

/**
 * Termination checks: no reachable block may run past the end of the
 * program, and every reachable block must have some path to a Halt
 * (otherwise the region is a guaranteed infinite loop).
 */
void
check_termination(const ir::Program &program, const Cfg &cfg,
                  Report &report)
{
    // Backward reachability from terminating blocks. A fall-off-end
    // block "terminates" for the loop check — running off the end is
    // its own, more precise error.
    const u32 nb = cfg.num_blocks();
    std::vector<bool> reaches_exit(nb, false);
    std::vector<BlockId> work;
    for (BlockId b = 0; b < nb; ++b) {
        const BasicBlock &block = cfg.blocks()[b];
        const bool halts =
            program.stmts[block.last()].kind == StmtKind::Halt;
        if (halts || block.falls_off_end) {
            reaches_exit[b] = true;
            work.push_back(b);
        }
        if (block.falls_off_end && cfg.reachable(b)) {
            report.error(block.last(), kPass,
                         "control can run past the end of the program "
                         "(missing Halt)");
        }
    }
    while (!work.empty()) {
        const BlockId b = work.back();
        work.pop_back();
        for (const BlockId p : cfg.blocks()[b].preds) {
            if (!reaches_exit[p]) {
                reaches_exit[p] = true;
                work.push_back(p);
            }
        }
    }
    for (BlockId b = 0; b < nb; ++b) {
        if (cfg.reachable(b) && !reaches_exit[b]) {
            report.error(cfg.blocks()[b].first, kPass,
                         "no path from here to a Halt "
                         "(guaranteed infinite loop)");
        }
    }
}

} // namespace

Report
Verifier::check(const ir::Program &program)
{
    Report report;
    if (program.stmts.empty()) {
        report.error(kNoStmt, kPass, "empty program (missing Halt)");
        return report;
    }

    for (std::size_t t = 0; t < program.temp_width.size(); ++t) {
        if (!width_in_range(program.temp_width[t])) {
            report.error(kNoStmt, kPass,
                         "temp t" + std::to_string(t) +
                             " declared with width " +
                             std::to_string(program.temp_width[t]) +
                             " outside [1, 64]");
        }
    }

    bool labels_ok = true;
    for (std::size_t l = 0; l < program.label_pos.size(); ++l) {
        if (program.label_pos[l] >= program.stmts.size()) {
            report.error(kNoStmt, kPass,
                         "label L" + std::to_string(l) +
                             " is unbound or out of range (position " +
                             std::to_string(program.label_pos[l]) +
                             " of " +
                             std::to_string(program.stmts.size()) +
                             " statements)");
            labels_ok = false;
        }
    }

    ExprChecker exprs(program, report);
    bool targets_ok = true;
    for (u32 i = 0; i < program.stmts.size(); ++i) {
        const std::size_t errors_before = report.count(Severity::Error);
        check_stmt(program, i, exprs, report);
        const ir::Stmt &s = program.stmts[i];
        if ((s.kind == StmtKind::CJmp || s.kind == StmtKind::Jmp) &&
            report.count(Severity::Error) != errors_before) {
            targets_ok = false;
        }
    }

    // The CFG-based checks need every edge resolvable; with dangling
    // labels or bad jump targets the graph cannot be built.
    if (!labels_ok || !targets_ok)
        return report;
    const Cfg cfg = Cfg::build(program);
    check_termination(program, cfg, report);
    check_def_before_use(program, cfg, report);
    return report;
}

} // namespace pokeemu::analysis
