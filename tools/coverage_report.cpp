/**
 * @file
 * IR coverage report over the full instruction table.
 *
 * For every instruction the decoder table knows, explore its semantics
 * (canonical encoding, the pipeline's baseline state spec) under a
 * path cap and report the block/edge coverage the surviving paths
 * achieved — the measurable analog of the paper's "complete path
 * coverage for ~95% of instructions under the 8192-path cap" (§6).
 *
 *   coverage_report                      # sweep, print per-insn rows
 *   coverage_report --max-paths 16
 *   coverage_report --fail-under-blocks 90 --fail-under-edges 80
 *   coverage_report --require-single-path-full
 *
 * Exit status: 0 on success, 1 when a --fail-under threshold or the
 * single-path-full check fails, 2 on usage errors. The row format is
 * deterministic (table order, no timing), so diffing two runs is
 * meaningful.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "arch/decoder.h"
#include "coverage/coverage.h"
#include "explore/state_explorer.h"
#include "support/logging.h"
#include "testgen/baseline.h"

using namespace pokeemu;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "  --max-paths N             per-instruction path cap "
                 "(default 16)\n"
                 "  --max-paths-rep N         cap for rep-prefixed "
                 "instructions (default 8)\n"
                 "  --schedule P              pathcover, frontier "
                 "(default) or default\n"
                 "  --policy P                alias for --schedule\n"
                 "  --seed N                  exploration seed\n"
                 "  --fail-under-blocks PCT   fail when aggregate block "
                 "coverage < PCT\n"
                 "  --fail-under-edges PCT    fail when aggregate edge "
                 "coverage < PCT\n"
                 "  --require-single-path-full  fail when a single-path "
                 "instruction\n"
                 "                            leaves a reachable block "
                 "uncovered\n"
                 "  --quiet                   summary only, no per-insn "
                 "rows\n",
                 argv0);
}

bool
parse_u64(const char *s, u64 &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    u64 max_paths = 16;
    u64 max_paths_rep = 8;
    u64 seed = 1;
    auto schedule = coverage::SchedulePolicy::UncoveredEdgeFirst;
    double fail_under_blocks = -1;
    double fail_under_edges = -1;
    bool require_single_path_full = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        u64 n = 0;
        if (arg == "--max-paths") {
            if (!parse_u64(value(), n) || n == 0) {
                std::fprintf(stderr, "bad --max-paths\n");
                return 2;
            }
            max_paths = n;
        } else if (arg == "--max-paths-rep") {
            if (!parse_u64(value(), n) || n == 0) {
                std::fprintf(stderr, "bad --max-paths-rep\n");
                return 2;
            }
            max_paths_rep = n;
        } else if (arg == "--schedule" || arg == "--policy") {
            const std::string policy = value();
            if (policy == "pathcover") {
                schedule = coverage::SchedulePolicy::PathCoverFirst;
            } else if (policy == "frontier") {
                schedule = coverage::SchedulePolicy::UncoveredEdgeFirst;
            } else if (policy == "default") {
                schedule = coverage::SchedulePolicy::DefaultOrder;
            } else {
                std::fprintf(stderr,
                             "bad %s (want pathcover|frontier|"
                             "default)\n",
                             arg.c_str());
                return 2;
            }
        } else if (arg == "--seed") {
            if (!parse_u64(value(), n)) {
                std::fprintf(stderr, "bad --seed\n");
                return 2;
            }
            seed = n;
        } else if (arg == "--fail-under-blocks") {
            fail_under_blocks = std::atof(value());
        } else if (arg == "--fail-under-edges") {
            fail_under_edges = std::atof(value());
        } else if (arg == "--require-single-path-full") {
            require_single_path_full = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    // The pipeline's baseline machine state (stage-2 preconditions).
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    u64 covered_blocks = 0, total_blocks = 0;
    u64 covered_edges = 0, total_edges = 0;
    u64 explored = 0, skipped = 0, complete = 0;
    u64 truncated[coverage::kNumTruncationReasons] = {};
    u64 histogram[coverage::kNumCoverageBuckets] = {};
    u64 single_path_dark = 0;
    // (index, truncation) of every incomplete unit, for the summary's
    // why-incomplete listing (visible under --quiet too: cap-scaling
    // runs care exactly about the stragglers).
    std::vector<std::pair<int, coverage::TruncationReason>> incomplete;

    const auto &table = arch::insn_table();
    for (int index = 0; index < static_cast<int>(table.size());
         ++index) {
        const std::vector<u8> bytes = arch::canonical_encoding(index);
        arch::DecodedInsn insn;
        if (bytes.empty() ||
            arch::decode(bytes.data(), bytes.size(), insn) !=
                arch::DecodeStatus::Ok ||
            insn.table_index != index) {
            ++skipped;
            continue;
        }

        explore::StateExploreOptions options;
        options.max_paths = max_paths;
        options.seed = seed;
        options.schedule = schedule;
        options.minimize = false; // Coverage only; keep the sweep fast.
        if (insn.rep || insn.repne) {
            options.max_paths = std::min(max_paths, max_paths_rep);
            options.max_steps = 3000;
        }

        const explore::StateExploreResult result =
            explore_instruction(insn, spec, &summary, options);
        const auto &st = result.stats;
        ++explored;
        if (st.complete)
            ++complete;
        else
            incomplete.emplace_back(index, st.truncation);
        ++truncated[static_cast<unsigned>(st.truncation)];
        covered_blocks += st.covered_blocks;
        total_blocks += st.total_blocks;
        covered_edges += st.covered_edges;
        total_edges += st.total_edges;
        ++histogram[coverage::coverage_bucket(st.covered_blocks,
                                              st.total_blocks)];
        // A single-path instruction's one path must walk every
        // reachable block: control never forks, so the CFG is a chain
        // and anything dark would mean the trace or the CFG is wrong.
        const bool single_path_full =
            st.paths != 1 || st.covered_blocks == st.total_blocks;
        if (!single_path_full)
            ++single_path_dark;

        if (!quiet) {
            std::printf("insn %d (%s): paths %llu blocks %llu/%llu "
                        "edges %llu/%llu truncation %s%s\n",
                        index, table[index].mnemonic,
                        static_cast<unsigned long long>(st.paths),
                        static_cast<unsigned long long>(
                            st.covered_blocks),
                        static_cast<unsigned long long>(
                            st.total_blocks),
                        static_cast<unsigned long long>(
                            st.covered_edges),
                        static_cast<unsigned long long>(st.total_edges),
                        coverage::truncation_reason_name(st.truncation),
                        single_path_full ? "" : " UNCOVERED-BLOCKS");
        }
    }

    const auto pct = [](u64 covered, u64 total) {
        return total == 0 ? 100.0
                          : 100.0 * static_cast<double>(covered) /
                                static_cast<double>(total);
    };
    const double block_pct = pct(covered_blocks, total_blocks);
    const double edge_pct = pct(covered_edges, total_edges);
    std::printf("== coverage report (schedule %s, max-paths %llu) ==\n",
                coverage::schedule_policy_name(schedule),
                static_cast<unsigned long long>(max_paths));
    std::printf("instructions: %llu explored, %llu skipped "
                "(no canonical encoding), %llu complete\n",
                static_cast<unsigned long long>(explored),
                static_cast<unsigned long long>(skipped),
                static_cast<unsigned long long>(complete));
    std::printf("blocks: %llu/%llu (%.1f%%)\n",
                static_cast<unsigned long long>(covered_blocks),
                static_cast<unsigned long long>(total_blocks),
                block_pct);
    std::printf("edges: %llu/%llu (%.1f%%)\n",
                static_cast<unsigned long long>(covered_edges),
                static_cast<unsigned long long>(total_edges), edge_pct);
    std::printf("histogram:");
    for (unsigned b = 0; b < coverage::kNumCoverageBuckets; ++b) {
        std::printf(" %s=%llu", coverage::coverage_bucket_name(b),
                    static_cast<unsigned long long>(histogram[b]));
    }
    std::printf("\n");
    std::printf("truncation:");
    for (unsigned r = 1; r < coverage::kNumTruncationReasons; ++r) {
        std::printf(" %s=%llu",
                    coverage::truncation_reason_name(
                        static_cast<coverage::TruncationReason>(r)),
                    static_cast<unsigned long long>(truncated[r]));
    }
    std::printf("\n");
    for (const auto &[index, reason] : incomplete) {
        std::printf("incomplete: insn %d (%s) truncation %s\n", index,
                    table[index].mnemonic,
                    coverage::truncation_reason_name(reason));
    }

    int status = 0;
    if (fail_under_blocks >= 0 && block_pct < fail_under_blocks) {
        std::fprintf(stderr,
                     "FAIL: block coverage %.1f%% < %.1f%%\n",
                     block_pct, fail_under_blocks);
        status = 1;
    }
    if (fail_under_edges >= 0 && edge_pct < fail_under_edges) {
        std::fprintf(stderr, "FAIL: edge coverage %.1f%% < %.1f%%\n",
                     edge_pct, fail_under_edges);
        status = 1;
    }
    if (require_single_path_full && single_path_dark != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu single-path instructions left "
                     "reachable blocks uncovered\n",
                     static_cast<unsigned long long>(single_path_dark));
        status = 1;
    }
    return status;
}
