/**
 * @file
 * ir_equiv: optimize every instruction semantics program in the
 * insn_table and prove each (original, optimized) pair equivalent
 * with the solver-backed translation validator (analysis/equiv.h).
 *
 * For each instruction the driver lifts the semantics exactly the way
 * the pipeline does — canonical encoding, concrete decode, IR
 * generation over the Figure-3 state spec — runs the optimizer, and
 * validates the translation under the spec's environment (initial
 * bytes, descriptor-loadability preconditions, EFLAGS masked by the
 * undefined-flags oracle). The exit status is nonzero when any
 * counterexample exists, so the ctest registration
 * (tools/CMakeLists.txt, `ir_equiv_all`) makes a miscompiling
 * optimizer pass fail the suite.
 *
 * rep/repne-prefixed programs iterate on ECX; their validation pins
 * ECX <= 2 through preconditions so the joint exploration is
 * exhaustive and the verdict is a proof over that bounded subspace
 * (reported as "proven (ecx<=2)"). The environment lives in
 * equiv_env.h, shared with semgen_check, which proves the compiled
 * units the same way.
 *
 * Usage:
 *   ir_equiv --all          validate every program (default)
 *   ir_equiv --insn N       validate one table entry
 *   ir_equiv --json         machine-readable per-program report
 *   ir_equiv --verbose      print a row for every program, not just
 *                           failures and bounded verdicts
 *   ir_equiv --max-paths N  per-exploration path cap (default 4096)
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/optimize.h"
#include "arch/decoder.h"
#include "arch/insn_table.h"
#include "equiv_env.h"
#include "hifi/semantics.h"
#include "testgen/testgen.h"

namespace {

using namespace pokeemu;

struct Options
{
    bool verbose = false;
    bool json = false;
    int only_insn = -1; ///< -1: every program.
    u64 max_paths = 4096;
    u64 max_steps = 1u << 20;
};

struct Row
{
    int index = 0;
    std::string mnemonic;
    u64 stmts_before = 0;
    u64 stmts_after = 0;
    u64 exec_before = 0;
    u64 exec_after = 0;
    u64 paths = 0;
    u64 pairs = 0;
    u64 queries = 0;
    bool ecx_bounded = false;
    std::string verdict; ///< "proven" / "bounded" / "FAIL".
    std::string counterexample;
};

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

double
reduction_pct(u64 before, u64 after)
{
    if (before == 0)
        return 0.0;
    return 100.0 *
        (1.0 - static_cast<double>(after) /
             static_cast<double>(before));
}

/** Validate one table entry; returns the table row. */
Row
check_insn(int index, const explore::StateSpec &spec,
           const symexec::Summary *summary, const Options &opt)
{
    const arch::InsnDesc &desc = arch::insn_table()[index];
    Row row;
    row.index = index;
    row.mnemonic = desc.mnemonic;

    const std::vector<u8> bytes = arch::canonical_encoding(index);
    arch::DecodedInsn insn;
    if (arch::decode(bytes.data(), bytes.size(), insn) !=
        arch::DecodeStatus::Ok) {
        row.verdict = "FAIL";
        row.counterexample = "canonical encoding does not decode";
        return row;
    }

    hifi::SemanticsOptions sem_options;
    sem_options.descriptor_summary = summary;
    const ir::Program original = hifi::build_semantics(insn,
                                                       sem_options);
    const analysis::OptResult optimized =
        analysis::optimize_program(original);
    row.stmts_before = optimized.stats.stmts_before;
    row.stmts_after = optimized.stats.stmts_after;
    row.exec_before = optimized.stats.exec_before;
    row.exec_after = optimized.stats.exec_after;

    symexec::VarPool pool;
    tools::EquivEnv env = tools::equiv_env(insn, spec, pool);
    env.options.max_paths = opt.max_paths;
    env.options.max_steps = opt.max_steps;
    row.ecx_bounded = env.ecx_bounded;

    const analysis::EquivResult res = analysis::validate_translation(
        original, optimized.program, pool, env.initial, env.options);
    row.paths = res.original_paths;
    row.pairs = res.pairs_checked;
    row.queries = res.solver_queries;
    if (!res.equivalent) {
        row.verdict = "FAIL";
        if (res.counterexample)
            row.counterexample = res.counterexample->to_string(pool);
    } else if (res.proven) {
        row.verdict =
            row.ecx_bounded ? "proven (ecx<=2)" : "proven";
    } else {
        row.verdict = "bounded";
    }
    return row;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--all] [--insn N] [--json] [--verbose] "
                 "[--max-paths N] [--max-steps N]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const auto num = [&](u64 &out) {
            if (i + 1 >= argc)
                std::exit(usage(argv[0]));
            char *end = nullptr;
            out = std::strtoull(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0')
                std::exit(usage(argv[0]));
        };
        if (!std::strcmp(argv[i], "--all")) {
            opt.only_insn = -1;
        } else if (!std::strcmp(argv[i], "--json")) {
            opt.json = true;
        } else if (!std::strcmp(argv[i], "--verbose") ||
                   !std::strcmp(argv[i], "-v")) {
            opt.verbose = true;
        } else if (!std::strcmp(argv[i], "--insn") && i + 1 < argc) {
            char *end = nullptr;
            const long v = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || v < 0)
                return usage(argv[0]);
            opt.only_insn = static_cast<int>(v);
        } else if (!std::strcmp(argv[i], "--max-paths")) {
            num(opt.max_paths);
        } else if (!std::strcmp(argv[i], "--max-steps")) {
            num(opt.max_steps);
        } else {
            return usage(argv[0]);
        }
    }

    const int table_size =
        static_cast<int>(arch::insn_table().size());
    if (opt.only_insn >= table_size) {
        std::fprintf(stderr, "ir_equiv: --insn %d out of range\n",
                     opt.only_insn);
        return 2;
    }

    // The pipeline's exploration environment: descriptor-load summary
    // plus the Figure-3 baseline spec.
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    std::vector<Row> rows;
    if (opt.only_insn >= 0) {
        rows.push_back(check_insn(opt.only_insn, spec, &summary, opt));
    } else {
        for (int i = 0; i < table_size; ++i)
            rows.push_back(check_insn(i, spec, &summary, opt));
    }

    u64 total_before = 0, total_after = 0;
    std::size_t proven = 0, bounded = 0, failures = 0;
    for (const Row &r : rows) {
        total_before += r.stmts_before;
        total_after += r.stmts_after;
        if (r.verdict == "FAIL")
            ++failures;
        else if (r.verdict == "bounded")
            ++bounded;
        else
            ++proven;
    }

    if (opt.json) {
        std::printf("{\n  \"programs\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::printf(
                "    {\"insn\": %d, \"mnemonic\": \"%s\", "
                "\"stmts_before\": %llu, \"stmts_after\": %llu, "
                "\"exec_before\": %llu, \"exec_after\": %llu, "
                "\"paths\": %llu, \"pairs\": %llu, "
                "\"queries\": %llu, \"verdict\": \"%s\"",
                r.index, json_escape(r.mnemonic).c_str(),
                static_cast<unsigned long long>(r.stmts_before),
                static_cast<unsigned long long>(r.stmts_after),
                static_cast<unsigned long long>(r.exec_before),
                static_cast<unsigned long long>(r.exec_after),
                static_cast<unsigned long long>(r.paths),
                static_cast<unsigned long long>(r.pairs),
                static_cast<unsigned long long>(r.queries),
                json_escape(r.verdict).c_str());
            if (!r.counterexample.empty()) {
                std::printf(", \"counterexample\": \"%s\"",
                            json_escape(r.counterexample).c_str());
            }
            std::printf("}%s\n", i + 1 < rows.size() ? "," : "");
        }
        std::printf("  ],\n  \"totals\": {\"programs\": %zu, "
                    "\"stmts_before\": %llu, \"stmts_after\": %llu, "
                    "\"proven\": %zu, \"bounded\": %zu, "
                    "\"failures\": %zu}\n}\n",
                    rows.size(),
                    static_cast<unsigned long long>(total_before),
                    static_cast<unsigned long long>(total_after),
                    proven, bounded, failures);
        return failures == 0 ? 0 : 1;
    }

    for (const Row &r : rows) {
        const bool interesting = r.verdict == "FAIL" ||
            r.verdict == "bounded" || opt.verbose ||
            opt.only_insn >= 0;
        if (!interesting)
            continue;
        std::printf("[%3d] %-16s %4llu -> %4llu stmts (%5.1f%%)  "
                    "%4llu paths  %s\n",
                    r.index, r.mnemonic.c_str(),
                    static_cast<unsigned long long>(r.stmts_before),
                    static_cast<unsigned long long>(r.stmts_after),
                    reduction_pct(r.stmts_before, r.stmts_after),
                    static_cast<unsigned long long>(r.paths),
                    r.verdict.c_str());
        if (!r.counterexample.empty())
            std::printf("%s\n", r.counterexample.c_str());
    }
    std::printf("ir_equiv: %zu program%s: %llu -> %llu statements "
                "(%.1f%% reduction), %zu proven, %zu bounded, "
                "%zu counterexample%s\n",
                rows.size(), rows.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(total_before),
                static_cast<unsigned long long>(total_after),
                reduction_pct(total_before, total_after), proven,
                bounded, failures, failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}
