/**
 * @file
 * Dataflow-pruning bench: run the solver-bound campaign workload with
 * static branch pruning Off and On, and compare solver traffic,
 * emitting BENCH_dataflow.json.
 *
 * The claims gated by the smoke ctest run:
 *  - the explored path sets (halt codes, assignments, step counts)
 *    are identical in both modes — pruning removes queries, never
 *    paths or ordering;
 *  - `solver_queries_avoided` is nonzero with pruning on, and the
 *    dispatched query count strictly decreases;
 *  - queries(Off) == queries(On) + avoided(On): every avoided probe
 *    accounts for exactly one query Off would have dispatched.
 *
 * The full-table soundness of the skipped probes is a gtest
 * (PruneSoundness in tests/test_dataflow.cpp).
 *
 * Also reports per-unit analysis time: the fixpoint over each
 * instruction's semantics runs once per unit, so it must stay
 * negligible next to exploration.
 *
 * Scale knobs: POKEEMU_INSNS (workload size, default 12) and
 * POKEEMU_PATHS (per-instruction cap, default 24).
 */
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "explore/state_explorer.h"
#include "hifi/semantics.h"
#include "testgen/baseline.h"

using namespace pokeemu;

namespace {

/** The multi-path families (shared with bench_campaign/bench_coverage):
 *  instructions whose exploration is dominated by solver probes. */
constexpr int kWorkload[] = {
    274, // iret: deepest path tree in the table
    201, // movsd
    266, // les
    80,  // push r
    181, // pop r/m
    206, // stosb
    267, // lds
    340, // lss
    245, // shl r/m,cl
    81,  // push r
    341, // lfs
    342, // lgs
};

struct Row
{
    const char *mode = "";
    u64 solver_queries = 0;
    u64 avoided = 0;
    u64 static_decisions = 0;
    u64 paths = 0;
    double wall_seconds = 0;
    /** Canonical rendering of every explored path, for cross-mode
     *  byte-identity comparison. */
    std::string path_digest;
};

void
digest_paths(std::ostringstream &os,
             const explore::StateExploreResult &result)
{
    for (const auto &p : result.paths) {
        os << p.halt_code << '/' << p.steps << '/' << p.step_limited;
        std::vector<std::pair<u32, u64>> values(
            p.assignment.values().begin(), p.assignment.values().end());
        std::sort(values.begin(), values.end());
        for (const auto &[id, value] : values)
            os << ' ' << id << '=' << value;
        os << '\n';
    }
}

Row
sweep(analysis::PruneMode mode, const explore::StateSpec &spec,
      const symexec::Summary &summary, std::size_t insns, u64 cap)
{
    Row row;
    row.mode = analysis::prune_mode_name(mode);
    std::ostringstream digest;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < insns; ++i) {
        const std::vector<u8> bytes =
            arch::canonical_encoding(kWorkload[i]);
        arch::DecodedInsn insn;
        if (arch::decode(bytes.data(), bytes.size(), insn) !=
            arch::DecodeStatus::Ok) {
            continue;
        }
        explore::StateExploreOptions options;
        options.max_paths = cap;
        options.minimize = false;
        options.prune = mode;
        const explore::StateExploreResult result =
            explore_instruction(insn, spec, &summary, options);
        digest << "insn " << kWorkload[i] << '\n';
        digest_paths(digest, result);
        row.solver_queries += result.stats.solver_queries;
        row.avoided += result.stats.solver_queries_avoided;
        row.static_decisions += result.stats.static_decisions;
        row.paths += result.stats.paths;
    }
    row.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    row.path_digest = digest.str();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
    }

    bench::header("bench_dataflow",
                  "static branch pruning: solver traffic off/on");
    const std::size_t insns = static_cast<std::size_t>(std::min<u64>(
        bench::env_u64("POKEEMU_INSNS", smoke ? 8 : 12),
        std::size(kWorkload)));
    const u64 cap = bench::env_u64("POKEEMU_PATHS", 24);
    std::printf("workload: %zu instructions, %llu paths/insn cap\n",
                insns, static_cast<unsigned long long>(cap));

    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    // Per-unit analysis cost, measured in isolation (pure fixpoint,
    // no exploration).
    double analysis_seconds = 0;
    u64 analyzed_units = 0;
    for (std::size_t i = 0; i < insns; ++i) {
        const std::vector<u8> bytes =
            arch::canonical_encoding(kWorkload[i]);
        arch::DecodedInsn insn;
        if (arch::decode(bytes.data(), bytes.size(), insn) !=
            arch::DecodeStatus::Ok) {
            continue;
        }
        hifi::SemanticsOptions sem_options;
        sem_options.descriptor_summary = &summary;
        const ir::Program semantics =
            hifi::build_semantics(insn, sem_options);
        const auto t0 = std::chrono::steady_clock::now();
        const analysis::Cfg cfg = analysis::Cfg::build(semantics);
        const analysis::ProgramFacts facts =
            analysis::analyze_program(semantics, cfg);
        analysis_seconds += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        analyzed_units += facts.analyzed;
    }

    const Row off = sweep(analysis::PruneMode::Off, spec, summary,
                          insns, cap);
    const Row on = sweep(analysis::PruneMode::On, spec, summary, insns,
                         cap);

    std::printf("mode        queries  avoided  decisions  paths  wall(s)\n");
    for (const Row *row : {&off, &on}) {
        std::printf("%-10s  %7llu  %7llu  %9llu  %5llu  %7.3f\n",
                    row->mode,
                    static_cast<unsigned long long>(row->solver_queries),
                    static_cast<unsigned long long>(row->avoided),
                    static_cast<unsigned long long>(row->static_decisions),
                    static_cast<unsigned long long>(row->paths),
                    row->wall_seconds);
    }
    std::printf("analysis: %llu/%zu units converged, %.6f s total\n",
                static_cast<unsigned long long>(analyzed_units), insns,
                analysis_seconds);

    const bool paths_identical = off.path_digest == on.path_digest;
    const bool avoided_nonzero = on.avoided > 0;
    const bool queries_decrease = on.solver_queries < off.solver_queries;
    const bool sum_invariant =
        off.solver_queries == on.solver_queries + on.avoided &&
        off.avoided == 0;
    const double pct = off.solver_queries == 0
        ? 0.0
        : 100.0 * static_cast<double>(on.avoided) /
            static_cast<double>(off.solver_queries);
    std::printf("paths identical across modes: %s\n",
                paths_identical ? "yes" : "NO");
    std::printf("queries avoided: %llu (%.1f%% of the off-mode total); "
                "sum invariant %s\n",
                static_cast<unsigned long long>(on.avoided), pct,
                sum_invariant ? "holds" : "VIOLATED");

    const bool ok = paths_identical && avoided_nonzero &&
                    queries_decrease && sum_invariant;

    {
        std::FILE *out = std::fopen("BENCH_dataflow.json", "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write BENCH_dataflow.json\n");
            return 1;
        }
        std::fprintf(out, "{\n  \"bench\": \"dataflow\",\n");
        std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
        std::fprintf(out, "  \"instructions\": %zu,\n", insns);
        std::fprintf(out, "  \"path_cap\": %llu,\n",
                     static_cast<unsigned long long>(cap));
        std::fprintf(out, "  \"analysis_seconds\": %.6f,\n",
                     analysis_seconds);
        std::fprintf(out, "  \"analysis_seconds_per_unit\": %.6f,\n",
                     insns == 0 ? 0.0 : analysis_seconds / insns);
        std::fprintf(out, "  \"queries_avoided_pct\": %.2f,\n", pct);
        std::fprintf(out, "  \"paths_identical\": %s,\n",
                     paths_identical ? "true" : "false");
        std::fprintf(out, "  \"ok\": %s,\n", ok ? "true" : "false");
        std::fprintf(out, "  \"runs\": [\n");
        const Row *rows[] = {&off, &on};
        for (std::size_t i = 0; i < 2; ++i) {
            const Row *row = rows[i];
            std::fprintf(
                out,
                "    {\"mode\": \"%s\", \"solver_queries\": %llu, "
                "\"solver_queries_avoided\": %llu, "
                "\"static_decisions\": %llu, \"paths\": %llu, "
                "\"wall_seconds\": %.6f}%s\n",
                row->mode,
                static_cast<unsigned long long>(row->solver_queries),
                static_cast<unsigned long long>(row->avoided),
                static_cast<unsigned long long>(row->static_decisions),
                static_cast<unsigned long long>(row->paths),
                row->wall_seconds, i == 1 ? "" : ",");
        }
        std::fprintf(out, "  ]\n}\n");
        std::fclose(out);
    }
    std::printf("wrote BENCH_dataflow.json\n");
    return ok ? 0 : 1;
}
