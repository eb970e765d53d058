/**
 * @file
 * Sharded campaign CLI: run the PokeEMU pipeline partitioned across N
 * workers with time-sliced, resumable sessions, then print the merged
 * campaign report (which is byte-identical for any --shards value).
 *
 *   campaign --shards 4 --checkpoint-dir /tmp/camp --max-instructions 8
 *   campaign --shards 4 --checkpoint-dir /tmp/camp --resume
 *   campaign --shards 2 --time-slice 3,50 --checkpoint-dir /tmp/camp
 *
 * Every campaign runs the production configuration: path-cover
 * scheduling, compiled Hi-Fi replay, static pruning, optimizer off.
 * (`coverage_report --policy` compares the schedulers.)
 *
 * The deterministic report goes to stdout; wall clock, sessions and
 * shard accounting (layout-dependent by nature) go after it, marked as
 * such, so diffing reports across shard counts stays meaningful:
 * `campaign ... | sed '/^-- layout/,$d'` is stable.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "defects/defects.h"
#include "pokeemu/shard.h"
#include "support/logging.h"

using namespace pokeemu;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "  --shards N            worker count (default 1)\n"
                 "  --checkpoint-dir DIR  shard checkpoints + manifest\n"
                 "  --resume              continue a prior campaign\n"
                 "  --time-slice U[,T]    per-session quotas: U fresh\n"
                 "                        units and (optionally) T\n"
                 "                        fresh tests per shard\n"
                 "  --max-sessions N      stop each shard after N\n"
                 "                        sessions (simulates\n"
                 "                        interruption; resume later)\n"
                 "  --max-instructions N  cap the campaign workload\n"
                 "  --max-paths N         per-instruction path cap\n"
                 "  --timing M            cycle-fidelity model: off\n"
                 "                        (default) or on (charge\n"
                 "                        cycles on every backend and\n"
                 "                        cluster timing divergences)\n"
                 "  --coverage            per-instruction IR coverage\n"
                 "                        table after the report\n"
                 "  --seed N              exploration seed\n"
                 "  --bugs A,B,...        seed these catalogue bugs\n"
                 "                        into the Lo-Fi backend\n"
                 "                        (--list-bugs for names)\n"
                 "  --list-bugs           print seedable bug names\n"
                 "  --verbose             info-level logging\n",
                 argv0);
}

/** Seedable bugs = behavioral catalogue entries (the misbehaviour
 *  classes are driven by the defect matrix, not this CLI). */
void
list_bugs(std::FILE *out)
{
    for (const defects::DefectSpec &d : defects::catalogue()) {
        if (d.kind != defects::DefectKind::Behavioral)
            continue;
        std::fprintf(out, "  %-24s %s\n", d.name.c_str(),
                     d.description.c_str());
    }
}

/** Resolve a comma-separated bug-name list against the catalogue;
 *  exits with the available names on an unknown one. */
lofi::BugConfig
parse_bugs(const std::string &list)
{
    lofi::BugConfig bugs = lofi::BugConfig::none();
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name = list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? list.size() + 1 : comma + 1;
        if (name.empty())
            continue;
        const defects::DefectSpec *d = defects::find_defect(name);
        if (d == nullptr || d->knob == nullptr) {
            std::fprintf(stderr,
                         "unknown bug '%s'; available bugs:\n",
                         name.c_str());
            list_bugs(stderr);
            std::exit(2);
        }
        bugs.*d->knob = true;
    }
    return bugs;
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
    CampaignOptions options;
    options.pipeline.max_paths_per_insn = 16;
    options.pipeline.schedule = coverage::SchedulePolicy::PathCoverFirst;
    options.pipeline.compiled = hifi::CompiledExec::On;
    bool print_coverage = false;

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
        if (arg == "--shards") {
            if (!parse_u64(value(), n) || n == 0) {
                std::fprintf(stderr, "bad --shards\n");
                return 2;
            }
            options.shards = static_cast<u32>(n);
        } else if (arg == "--checkpoint-dir") {
            options.checkpoint_dir = value();
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--time-slice") {
            const std::string slice = value();
            const std::size_t comma = slice.find(',');
            u64 units = 0;
            u64 tests = 0;
            if (!parse_u64(slice.substr(0, comma).c_str(), units) ||
                (comma != std::string::npos &&
                 !parse_u64(slice.substr(comma + 1).c_str(), tests))) {
                std::fprintf(stderr, "bad --time-slice (want U[,T])\n");
                return 2;
            }
            options.explore_slice_units = static_cast<u32>(units);
            options.execute_slice_tests = static_cast<u32>(tests);
        } else if (arg == "--max-sessions") {
            if (!parse_u64(value(), n)) {
                std::fprintf(stderr, "bad --max-sessions\n");
                return 2;
            }
            options.max_sessions_per_shard = static_cast<u32>(n);
        } else if (arg == "--max-instructions") {
            if (!parse_u64(value(), n)) {
                std::fprintf(stderr, "bad --max-instructions\n");
                return 2;
            }
            options.pipeline.max_instructions =
                static_cast<std::size_t>(n);
        } else if (arg == "--max-paths") {
            if (!parse_u64(value(), n) || n == 0) {
                std::fprintf(stderr, "bad --max-paths\n");
                return 2;
            }
            options.pipeline.max_paths_per_insn = n;
        } else if (arg == "--timing") {
            const std::string mode = value();
            if (mode == "off") {
                options.pipeline.timing = false;
            } else if (mode == "on") {
                options.pipeline.timing = true;
            } else {
                std::fprintf(stderr, "bad --timing (want off|on)\n");
                return 2;
            }
        } else if (arg == "--coverage") {
            print_coverage = true;
        } else if (arg == "--seed") {
            if (!parse_u64(value(), n)) {
                std::fprintf(stderr, "bad --seed\n");
                return 2;
            }
            options.pipeline.seed = n;
        } else if (arg == "--bugs") {
            options.pipeline.bugs = parse_bugs(value());
        } else if (arg == "--list-bugs") {
            list_bugs(stdout);
            return 0;
        } else if (arg == "--verbose") {
            set_log_level(LogLevel::Info);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    try {
        const CampaignResult result = run_campaign(options);
        std::fputs(result.report().c_str(), stdout);
        if (print_coverage) {
            // Part of the deterministic output: merged_checkpoint rows
            // are in campaign order with campaign-global ids, so this
            // table is byte-identical for any --shards value too.
            std::printf("-- coverage (per instruction)\n");
            for (const CheckpointUnit &u :
                 result.merged_checkpoint.explored) {
                std::printf(
                    "insn %d (%s): blocks %llu/%llu edges %llu/%llu "
                    "truncation %s\n",
                    u.table_index,
                    arch::insn_table()[u.table_index].mnemonic,
                    static_cast<unsigned long long>(u.covered_blocks),
                    static_cast<unsigned long long>(u.total_blocks),
                    static_cast<unsigned long long>(u.covered_edges),
                    static_cast<unsigned long long>(u.total_edges),
                    coverage::truncation_reason_name(u.truncation));
            }
        }
        // Layout-dependent accounting, deliberately outside report().
        std::printf("-- layout (not part of the deterministic report)\n");
        std::printf("shards: %u, sessions: %llu, complete: %s\n",
                    result.shards,
                    static_cast<unsigned long long>(result.sessions),
                    result.complete ? "yes" : "no");
        std::printf("wall: %.3fs\n", result.wall_seconds);
        for (const ShardOutcome &o : result.outcomes) {
            std::printf("shard %u: %u sessions, %llu units, %llu "
                        "tests executed, %s\n",
                        o.shard, o.sessions,
                        static_cast<unsigned long long>(
                            o.stats.instructions_explored),
                        static_cast<unsigned long long>(
                            o.stats.tests_executed),
                        o.complete ? "complete" : "preempted");
        }
        return result.complete ? 0 : 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign failed: %s\n", e.what());
        return 1;
    }
}
