/**
 * @file
 * semgen: build-time compiler from instruction semantics programs to
 * native C++ handlers (hifi/compiled.h) — the WinUAE gencpu shape,
 * table -> generator -> handlers.cpp.
 *
 * For every compiled unit (hifi::build_compiled_units: each row's
 * canonical encoding plus [disp32] memory-form variants, built with
 * generic value parameters and the IR optimizer on), the generator
 * lowers the program to one C++ function that mirrors
 * ir::run_concrete exactly: IR temporaries become a local array,
 * expression DAGs become CSE'd locals, control flow becomes gotos,
 * memory stays behind ir::ConcreteMemory, and RunResult::steps counts
 * retired IR statements. It finally emits the dispatch table
 * (compiled_table) stamped with compiled_expected_hash() so the
 * stamp-checking ctests (semgen_crosscheck_all and friends) detect a
 * stale generated file.
 *
 * Diagnostics: --list (unit inventory), --only <mnemonic|index>
 * (restrict emission/listing), --json (machine-readable summary).
 */
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "hifi/compiled.h"
#include "ir/printer.h"

using namespace pokeemu;
using hifi::CompiledUnit;

namespace {

std::string
hex64(u64 v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Wrap @p s in a truncation to @p width bits (no-op at 64). */
std::string
masked(const std::string &s, unsigned width)
{
    if (width >= 64)
        return s;
    return "(" + s + ") & " + hex64(mask_bits(width));
}

/**
 * Per-statement expression compiler: walks the hash-consed DAG,
 * emitting one `const u64 eN = ...;` per distinct interior node
 * (pointer-identity CSE, like the interpreter's per-statement memo)
 * and returning the C++ expression naming the node's value. The
 * emitted arithmetic mirrors fold_binop / eval_expr exactly; every
 * value is kept truncated to its node width, the interpreter's
 * invariant.
 */
class ExprCompiler
{
  public:
    explicit ExprCompiler(std::string *out) : out_(out) {}

    std::string compile(const ir::ExprRef &e) { return walk(e); }

  private:
    std::string bind(const ir::Expr *node, const std::string &expr)
    {
        const std::string name = "e" + std::to_string(next_++);
        *out_ += "            const u64 " + name + " = " + expr + ";\n";
        memo_[node] = name;
        return name;
    }

    std::string walk(const ir::ExprRef &e)
    {
        auto it = memo_.find(e.get());
        if (it != memo_.end())
            return it->second;
        using ir::ExprKind;
        switch (e->kind()) {
          case ExprKind::Const: {
            // Literal; no local needed (factories pre-truncate).
            const std::string lit = hex64(e->value());
            memo_[e.get()] = lit;
            return lit;
          }
          case ExprKind::Temp: {
            const std::string name =
                "t[" + std::to_string(e->temp_id()) + "]";
            memo_[e.get()] = name;
            return name;
          }
          case ExprKind::Var:
            throw std::logic_error(
                "semgen: free symbolic variable '" + e->name() +
                "' in a compiled program");
          case ExprKind::UnOp: {
            const std::string a = walk(e->a());
            const std::string body = e->unop() == ir::UnOpKind::Not
                ? "~" + a
                : "~" + a + " + 1";
            return bind(e.get(), masked(body, e->width()));
          }
          case ExprKind::BinOp:
            return bind(e.get(), binop(e));
          case ExprKind::Cast: {
            const std::string a = walk(e->a());
            switch (e->cast()) {
              case ir::CastKind::ZExt:
                // Values are pre-truncated: zext is an alias.
                memo_[e.get()] = a;
                return a;
              case ir::CastKind::SExt:
                return bind(e.get(),
                            masked("static_cast<u64>(sign_extend(" + a +
                                       ", " +
                                       std::to_string(e->a()->width()) +
                                       "))",
                                   e->width()));
              case ir::CastKind::Extract:
                return bind(
                    e.get(),
                    masked(a + " >> " +
                               std::to_string(e->extract_lo()),
                           e->width()));
            }
            throw std::logic_error("semgen: bad cast");
          }
          case ExprKind::Ite: {
            const std::string c = walk(e->a());
            const std::string t = walk(e->b());
            const std::string f = walk(e->c());
            // Eager evaluation of both arms is safe: IR expressions
            // are total (guarded shifts/division, no memory).
            return bind(e.get(),
                        c + " != 0 ? " + t + " : " + f);
          }
        }
        throw std::logic_error("semgen: bad expr kind");
    }

    std::string binop(const ir::ExprRef &e)
    {
        using ir::BinOpKind;
        const std::string a = walk(e->a());
        const std::string b = walk(e->b());
        const unsigned w = e->a()->width();
        const std::string ws = std::to_string(w);
        switch (e->binop()) {
          case BinOpKind::Add:
            return masked(a + " + " + b, w);
          case BinOpKind::Sub:
            return masked(a + " - " + b, w);
          case BinOpKind::Mul:
            return masked(a + " * " + b, w);
          case BinOpKind::UDiv:
            return b + " == 0 ? " + hex64(mask_bits(w)) + " : " + a +
                " / " + b;
          case BinOpKind::URem:
            return b + " == 0 ? " + a + " : " + a + " % " + b;
          case BinOpKind::SDiv:
            return "sem_sdiv(" + a + ", " + b + ", " + ws + ")";
          case BinOpKind::SRem:
            return "sem_srem(" + a + ", " + b + ", " + ws + ")";
          case BinOpKind::And:
            return a + " & " + b;
          case BinOpKind::Or:
            return a + " | " + b;
          case BinOpKind::Xor:
            return a + " ^ " + b;
          case BinOpKind::Shl:
            return b + " >= " + ws + " ? 0 : " +
                masked("(" + a + ") << " + b, w);
          case BinOpKind::LShr:
            return b + " >= " + ws + " ? 0 : " + a + " >> " + b;
          case BinOpKind::AShr:
            return "sem_ashr(" + a + ", " + b + ", " + ws + ")";
          case BinOpKind::Eq:
            return "static_cast<u64>(" + a + " == " + b + ")";
          case BinOpKind::Ne:
            return "static_cast<u64>(" + a + " != " + b + ")";
          case BinOpKind::ULt:
            return "static_cast<u64>(" + a + " < " + b + ")";
          case BinOpKind::ULe:
            return "static_cast<u64>(" + a + " <= " + b + ")";
          case BinOpKind::SLt:
            return "static_cast<u64>(sign_extend(" + a + ", " + ws +
                ") < sign_extend(" + b + ", " + ws + "))";
          case BinOpKind::SLe:
            return "static_cast<u64>(sign_extend(" + a + ", " + ws +
                ") <= sign_extend(" + b + ", " + ws + "))";
          case BinOpKind::Concat:
            // am < 2^w, so (am << bw) | bm already fits w + bw bits.
            return "((" + a + ") << " +
                std::to_string(e->b()->width()) + ") | " + b;
        }
        throw std::logic_error("semgen: bad binop");
    }

    std::string *out_;
    std::map<const ir::Expr *, std::string> memo_;
    unsigned next_ = 0;
};

/** Statement indices that are jump targets (need a C++ label). */
std::set<u32>
jump_targets(const ir::Program &p)
{
    std::set<u32> targets;
    for (const ir::Stmt &s : p.stmts) {
        if (s.kind == ir::StmtKind::CJmp) {
            targets.insert(p.label_pos[s.target_true]);
            targets.insert(p.label_pos[s.target_false]);
        } else if (s.kind == ir::StmtKind::Jmp) {
            targets.insert(p.label_pos[s.target_true]);
        }
    }
    return targets;
}

/** Emit one handler function for @p unit as h_<index>. */
void
emit_handler(std::string &out, const CompiledUnit &unit, std::size_t index)
{
    const ir::Program &p = unit.program;
    const std::set<u32> targets = jump_targets(p);

    out += "// unit " + std::to_string(index) + ": " + p.name +
        (unit.variant ? " [variant form]" : "") + ", " +
        std::to_string(p.stmts.size()) + " stmts\n";
    out += "ir::RunResult\nh_" + std::to_string(index) +
        "(ir::ConcreteMemory &m, u64 max_steps)\n{\n";
    out += "    (void)m;\n";
    out += "    ir::RunResult r;\n";
    out += "    u64 steps = 0;\n";
    if (p.num_temps() > 0) {
        out += "    [[maybe_unused]] u64 t[" +
            std::to_string(p.num_temps()) + "] = {};\n";
    }

    for (u32 si = 0; si < p.stmts.size(); ++si) {
        const ir::Stmt &s = p.stmts[si];
        if (targets.count(si))
            out += "L" + std::to_string(si) + ":\n";
        // The interpreter checks the budget before every statement and
        // counts every retired statement, Comments included.
        out += "    if (steps >= max_steps) { r.steps = steps; "
               "return r; }\n";
        out += "    ++steps;\n";

        std::string body;
        ExprCompiler ec(&body);
        std::string action;
        switch (s.kind) {
          case ir::StmtKind::Assign:
            action = "t[" + std::to_string(s.temp) + "] = " +
                ec.compile(s.expr) + ";";
            break;
          case ir::StmtKind::Load:
            action = "t[" + std::to_string(s.temp) +
                "] = m.load(static_cast<u32>(" + ec.compile(s.addr) +
                "), " + std::to_string(s.size) + ");";
            break;
          case ir::StmtKind::Store: {
            const std::string addr = ec.compile(s.addr);
            const std::string value = ec.compile(s.expr);
            action = "m.store(static_cast<u32>(" + addr + "), " +
                std::to_string(s.size) + ", " + value + ");";
            break;
          }
          case ir::StmtKind::CJmp:
            action = "if (" + ec.compile(s.expr) + " != 0) goto L" +
                std::to_string(p.label_pos[s.target_true]) +
                "; else goto L" +
                std::to_string(p.label_pos[s.target_false]) + ";";
            break;
          case ir::StmtKind::Jmp:
            action = "goto L" +
                std::to_string(p.label_pos[s.target_true]) + ";";
            break;
          case ir::StmtKind::Assume:
            action = "if (" + ec.compile(s.expr) +
                " == 0) { r.status = ir::RunStatus::AssumeFailed; "
                "r.steps = steps; return r; }";
            break;
          case ir::StmtKind::Halt:
            action = "r.status = ir::RunStatus::Halted; "
                     "r.halt_code = static_cast<u32>(" +
                ec.compile(s.expr) +
                "); r.steps = steps; return r;";
            break;
          case ir::StmtKind::Comment:
            break;
        }
        if (!body.empty() || !action.empty()) {
            // Braced so locals never cross a label (goto-safe) and
            // CSE names reset per statement.
            out += "    {   // [" + std::to_string(si) + "]\n";
            out += body;
            if (!action.empty())
                out += "            " + action + "\n";
            out += "    }\n";
        }
    }
    // Mirrors the interpreter's fell-off-program-end panic: every
    // verified program halts on all paths, so this is unreachable.
    out += "    __builtin_trap();\n";
    out += "}\n\n";
}

std::string
shape_initializer(const CompiledUnit &unit)
{
    const arch::DecodedInsn &i = unit.insn;
    auto flag = [](bool b) { return b ? "true" : "false"; };
    std::string s = "{";
    s += std::to_string(i.table_index) + ", ";
    s += std::to_string(i.length) + ", ";
    s += std::string(flag(i.lock)) + ", " + flag(i.rep) + ", " +
        flag(i.repne) + ", ";
    s += std::to_string(static_cast<int>(i.seg_override)) + ", ";
    s += std::string(flag(i.has_modrm)) + ", " +
        std::to_string(i.modrm) + ", ";
    s += std::string(flag(i.has_sib)) + ", " + std::to_string(i.sib) +
        ", ";
    s += std::string(unit.params_ok ? "true" : "false") + ", ";
    s += std::to_string(i.imm) + "u, " + std::to_string(i.disp) +
        "u, " + std::to_string(i.imm_sel) + "}";
    return s;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: semgen [-o <out.cpp>] [--list] [--json] "
        "[--only <mnemonic|index>]\n"
        "  default: generate the compiled-handler table to -o (or "
        "stdout)\n"
        "  --list   print the unit inventory instead of generating\n"
        "  --json   print a machine-readable summary instead\n"
        "  --only   restrict to units matching a mnemonic or table "
        "index\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    bool list = false;
    bool json = false;
    std::string only;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--only" && i + 1 < argc) {
            only = argv[++i];
        } else {
            return usage();
        }
    }

    std::vector<CompiledUnit> units = hifi::build_compiled_units();
    if (!only.empty()) {
        std::vector<CompiledUnit> kept;
        for (CompiledUnit &unit : units) {
            const bool index_match =
                only == std::to_string(unit.insn.table_index);
            const bool name_match =
                unit.insn.desc && only == unit.insn.desc->mnemonic;
            if (index_match || name_match)
                kept.push_back(std::move(unit));
        }
        if (kept.empty()) {
            std::fprintf(stderr, "semgen: no unit matches '%s'\n",
                         only.c_str());
            return 1;
        }
        units = std::move(kept);
    }

    std::size_t total_stmts = 0;
    for (const CompiledUnit &unit : units)
        total_stmts += unit.program.stmts.size();

    if (list) {
        for (std::size_t i = 0; i < units.size(); ++i) {
            const CompiledUnit &unit = units[i];
            std::printf("%4zu  row %3d  %-12s %-8s %s%zu stmts\n", i,
                        unit.insn.table_index,
                        unit.insn.desc->mnemonic,
                        unit.params_ok ? "generic" : "special",
                        unit.variant ? "[variant] " : "",
                        unit.program.stmts.size());
        }
        std::printf("%zu units, %zu statements\n", units.size(),
                    total_stmts);
        return 0;
    }
    if (json) {
        std::printf("{\n");
        std::printf("  \"units\": %zu,\n", units.size());
        std::printf("  \"rows\": %zu,\n", arch::insn_table().size());
        std::printf("  \"total_stmts\": %zu,\n", total_stmts);
        std::printf("  \"semantics_hash\": \"%s\"\n",
                    hex64(hifi::compiled_expected_hash()).c_str());
        std::printf("}\n");
        return 0;
    }

    // --- Generate. ---
    std::string out;
    out.reserve(1u << 22);
    out +=
        "// Generated by tools/semgen — DO NOT EDIT.\n"
        "// One native handler per compiled semantics unit; mirrors\n"
        "// ir::run_concrete statement-for-statement (including\n"
        "// RunResult::steps).\n"
        "#include \"hifi/compiled.h\"\n"
        "\n"
        "namespace pokeemu::hifi {\n"
        "\n"
        "namespace {\n"
        "\n"
        "// fold_binop mirrors for the operators whose C++ lowering\n"
        "// needs guards (division overflow, shift >= width).\n"
        "[[maybe_unused]] inline u64\n"
        "sem_sdiv(u64 a, u64 b, unsigned w)\n"
        "{\n"
        "    if (b == 0)\n"
        "        return mask_bits(w);\n"
        "    const s64 sa = sign_extend(a, w);\n"
        "    const s64 sb = sign_extend(b, w);\n"
        "    if (sb == -1 && sa == sign_extend(u64{1} << (w - 1), w))\n"
        "        return truncate(static_cast<u64>(sa), w);\n"
        "    return truncate(static_cast<u64>(sa / sb), w);\n"
        "}\n"
        "\n"
        "[[maybe_unused]] inline u64\n"
        "sem_srem(u64 a, u64 b, unsigned w)\n"
        "{\n"
        "    if (b == 0)\n"
        "        return a;\n"
        "    const s64 sa = sign_extend(a, w);\n"
        "    const s64 sb = sign_extend(b, w);\n"
        "    if (sb == -1)\n"
        "        return 0;\n"
        "    return truncate(static_cast<u64>(sa % sb), w);\n"
        "}\n"
        "\n"
        "[[maybe_unused]] inline u64\n"
        "sem_ashr(u64 a, u64 b, unsigned w)\n"
        "{\n"
        "    const s64 sa = sign_extend(a, w);\n"
        "    const u64 sh = b >= w ? w - 1 : b;\n"
        "    return truncate(static_cast<u64>(sa >> sh), w);\n"
        "}\n"
        "\n";

    for (std::size_t i = 0; i < units.size(); ++i)
        emit_handler(out, units[i], i);

    // Dispatch table: entries in unit order (grouped by row because
    // build order is row-major), plus row offsets.
    out += "const CompiledEntry g_entries[] = {\n";
    for (std::size_t i = 0; i < units.size(); ++i) {
        out += "    {" + shape_initializer(units[i]) + ", &h_" +
            std::to_string(i) + "},\n";
    }
    out += "};\n\n";

    const std::size_t rows = arch::insn_table().size();
    std::vector<u32> row_begin(rows + 1, 0);
    {
        // Count then prefix-sum; units are already row-major.
        std::vector<u32> count(rows, 0);
        for (const CompiledUnit &unit : units)
            ++count[unit.insn.table_index];
        for (std::size_t r = 0; r < rows; ++r)
            row_begin[r + 1] = row_begin[r] + count[r];
    }
    out += "const u32 g_row_begin[] = {";
    for (std::size_t r = 0; r <= rows; ++r) {
        if (r % 16 == 0)
            out += "\n    ";
        out += std::to_string(row_begin[r]) + ", ";
    }
    out += "\n};\n\n";

    // Cycle-cost table (timing/cost_model.h), derived from the exact
    // programs compiled above; the triples are part of the staleness
    // hash, so editing the derivation rules without regenerating is
    // caught like any other semantics change.
    out += "const timing::UnitCost g_costs[] = {\n";
    for (std::size_t i = 0; i < units.size(); ++i) {
        const timing::UnitCost cost =
            timing::derive_cost(units[i].program);
        out += "    {" + std::to_string(cost.base) + ", " +
            std::to_string(cost.mem_accesses) + ", " +
            std::to_string(cost.fault_extra) + "},\n";
    }
    out += "};\n\n";
    out += "} // namespace\n\n";

    out += "const CompiledCostTable &\ncompiled_cost_table()\n{\n";
    out += "    static const CompiledCostTable table = {\n";
    out += "        g_costs,\n";
    out += "        " + std::to_string(units.size()) + ",\n";
    out += "    };\n";
    out += "    return table;\n";
    out += "}\n\n";

    out += "const CompiledTable &\ncompiled_table()\n{\n";
    out += "    static const CompiledTable table = {\n";
    out += "        g_entries,\n";
    out += "        " + std::to_string(units.size()) + ",\n";
    out += "        g_row_begin,\n";
    out += "        " + std::to_string(rows) + ",\n";
    out += "        " + hex64(hifi::compiled_expected_hash()) + ",\n";
    out += "    };\n";
    out += "    return table;\n";
    out += "}\n\n";
    out += "} // namespace pokeemu::hifi\n";

    if (out_path.empty()) {
        std::fwrite(out.data(), 1, out.size(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "semgen: cannot open %s\n",
                     out_path.c_str());
        return 1;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) ==
        out.size();
    std::fclose(f);
    if (!ok) {
        std::fprintf(stderr, "semgen: short write to %s\n",
                     out_path.c_str());
        return 1;
    }
    return 0;
}
