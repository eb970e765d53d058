/**
 * @file
 * Coverage-at-cap bench: explore a capped multi-path workload three
 * times — path-cover scheduling (PathCoverFirst), frontier scheduling
 * (UncoveredEdgeFirst) and the default seeded path order — and compare
 * the block/edge coverage the surviving paths achieve at the same cap,
 * plus wall clock, emitting BENCH_coverage.json.
 *
 * This is the coverage subsystem's reason to exist: under a path cap
 * the exploration order decides *which* paths survive. The frontier
 * scheduler must buy strictly more IR coverage than the default order
 * for the same budget, and the static path-cover scaffold at least as
 * much as the frontier heuristic (a chain score that steers exploration
 * *away* from new structure fails it). The process exits nonzero
 * unless both hold for blocks + edges, so the ctest smoke run gates
 * both claims.
 *
 * Scale knobs: POKEEMU_INSNS (workload size, default 12) and
 * POKEEMU_PATHS (per-instruction cap, default 6; low on purpose —
 * the cap must truncate for scheduling to matter).
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "explore/state_explorer.h"
#include "testgen/baseline.h"

using namespace pokeemu;

namespace {

/** The multi-path families (shared with bench_campaign): iret, string
 *  moves, far-pointer loads, stack ops, shifts — instructions whose
 *  path trees overflow a small cap. */
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
    const char *schedule = "";
    u64 covered_blocks = 0;
    u64 total_blocks = 0;
    u64 covered_edges = 0;
    u64 total_edges = 0;
    u64 paths = 0;
    u64 truncated = 0;
    double wall_seconds = 0;
};

Row
sweep(coverage::SchedulePolicy schedule, const explore::StateSpec &spec,
      const symexec::Summary &summary, std::size_t insns, u64 cap)
{
    Row row;
    row.schedule = coverage::schedule_policy_name(schedule);
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
        options.schedule = schedule;
        options.minimize = false;
        const explore::StateExploreResult result =
            explore_instruction(insn, spec, &summary, options);
        row.covered_blocks += result.stats.covered_blocks;
        row.total_blocks += result.stats.total_blocks;
        row.covered_edges += result.stats.covered_edges;
        row.total_edges += result.stats.total_edges;
        row.paths += result.stats.paths;
        row.truncated += result.stats.truncation !=
            coverage::TruncationReason::None;
    }
    row.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
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

    bench::header("bench_coverage",
                  "coverage at a path cap: path-cover vs frontier vs "
                  "default order");
    const std::size_t insns = static_cast<std::size_t>(std::min<u64>(
        bench::env_u64("POKEEMU_INSNS", smoke ? 8 : 12),
        std::size(kWorkload)));
    const u64 cap = bench::env_u64("POKEEMU_PATHS", 6);
    std::printf("workload: %zu instructions, %llu paths/insn cap\n",
                insns, static_cast<unsigned long long>(cap));

    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    const Row rows[] = {
        sweep(coverage::SchedulePolicy::PathCoverFirst, spec, summary,
              insns, cap),
        sweep(coverage::SchedulePolicy::UncoveredEdgeFirst, spec,
              summary, insns, cap),
        sweep(coverage::SchedulePolicy::DefaultOrder, spec, summary,
              insns, cap),
    };
    const Row &pathcover = rows[0];
    const Row &frontier = rows[1];
    const Row &fallback = rows[2];

    std::printf("schedule   blocks        edges         paths  "
                "truncated  wall(s)\n");
    for (const Row &row : rows) {
        std::printf("%-9s  %5llu/%-5llu  %5llu/%-5llu  %5llu  %9llu  "
                    "%7.3f\n",
                    row.schedule,
                    static_cast<unsigned long long>(row.covered_blocks),
                    static_cast<unsigned long long>(row.total_blocks),
                    static_cast<unsigned long long>(row.covered_edges),
                    static_cast<unsigned long long>(row.total_edges),
                    static_cast<unsigned long long>(row.paths),
                    static_cast<unsigned long long>(row.truncated),
                    row.wall_seconds);
    }
    const auto gain = [](const Row &a, const Row &b) {
        std::printf("%s vs %s at the cap: %+lld blocks, %+lld edges\n",
                    a.schedule, b.schedule,
                    static_cast<long long>(a.covered_blocks) -
                        static_cast<long long>(b.covered_blocks),
                    static_cast<long long>(a.covered_edges) -
                        static_cast<long long>(b.covered_edges));
        return static_cast<long long>(a.covered_blocks +
                                      a.covered_edges) -
            static_cast<long long>(b.covered_blocks + b.covered_edges);
    };
    const bool frontier_wins = gain(frontier, fallback) > 0;
    const bool pathcover_holds = gain(pathcover, frontier) >= 0;
    std::printf("frontier strictly higher than default: %s\n"
                "pathcover at least frontier: %s\n",
                frontier_wins ? "yes" : "NO",
                pathcover_holds ? "yes" : "NO");

    {
        std::FILE *out = std::fopen("BENCH_coverage.json", "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write BENCH_coverage.json\n");
            return 1;
        }
        std::fprintf(out, "{\n  \"bench\": \"coverage\",\n");
        std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
        std::fprintf(out, "  \"instructions\": %zu,\n", insns);
        std::fprintf(out, "  \"path_cap\": %llu,\n",
                     static_cast<unsigned long long>(cap));
        std::fprintf(out, "  \"frontier_strictly_higher\": %s,\n",
                     frontier_wins ? "true" : "false");
        std::fprintf(out, "  \"pathcover_at_least_frontier\": %s,\n",
                     pathcover_holds ? "true" : "false");
        std::fprintf(out, "  \"runs\": [\n");
        for (std::size_t i = 0; i < std::size(rows); ++i) {
            const Row &row = rows[i];
            std::fprintf(
                out,
                "    {\"schedule\": \"%s\", "
                "\"covered_blocks\": %llu, \"total_blocks\": %llu, "
                "\"covered_edges\": %llu, \"total_edges\": %llu, "
                "\"paths\": %llu, \"truncated\": %llu, "
                "\"wall_seconds\": %.6f}%s\n",
                row.schedule,
                static_cast<unsigned long long>(row.covered_blocks),
                static_cast<unsigned long long>(row.total_blocks),
                static_cast<unsigned long long>(row.covered_edges),
                static_cast<unsigned long long>(row.total_edges),
                static_cast<unsigned long long>(row.paths),
                static_cast<unsigned long long>(row.truncated),
                row.wall_seconds, i + 1 < std::size(rows) ? "," : "");
        }
        std::fprintf(out, "  ]\n}\n");
        std::fclose(out);
    }
    std::printf("wrote BENCH_coverage.json\n");
    return frontier_wins && pathcover_holds ? 0 : 1;
}
