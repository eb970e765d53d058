/**
 * @file
 * Nightly-regression workflow (paper §6: test execution "is already
 * fast enough to use for nightly regression testing", and §6.2: the
 * generated tests "can be used again in the future to validate the
 * implementation").
 *
 * Usage:
 *   nightly_regression generate <corpus-file> [n_insns] [paths]
 *       Run the expensive exploration once and save the corpus.
 *   nightly_regression check <corpus-file> [--fixed]
 *       Replay the corpus against the emulator build under test
 *       (seeded-bugs build by default; --fixed simulates the patched
 *       emulator and must report zero differences).
 */
#include <cstdio>
#include <cstring>
#include <fstream>

#include "pokeemu/corpus.h"

using namespace pokeemu;

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: %s generate|check <corpus> [...]\n",
                     argv[0]);
        return 2;
    }
    const std::string mode = argv[1];
    const std::string path = argv[2];

    if (mode == "generate") {
        PipelineOptions options;
        options.max_instructions =
            argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3]))
                     : 60;
        options.max_paths_per_insn =
            argc > 4 ? static_cast<u64>(std::atoi(argv[4])) : 24;
        for (std::size_t i = 0; i < arch::insn_table().size(); ++i)
            options.instruction_filter.push_back(static_cast<int>(i));
        Pipeline pipeline(options);
        pipeline.explore_and_generate();
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        save_corpus(out, pipeline.tests());
        std::printf("saved %zu tests to %s\n",
                    pipeline.tests().size(), path.c_str());
        return 0;
    }

    if (mode == "check") {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", path.c_str());
            return 1;
        }
        const auto tests = load_corpus(in);
        const bool fixed =
            argc > 3 && std::strcmp(argv[3], "--fixed") == 0;
        const lofi::BugConfig bugs =
            fixed ? lofi::BugConfig::none() : lofi::BugConfig{};
        const ExecutionTotals stats = replay_corpus(tests, bugs);
        std::printf("replayed %llu tests against the %s build:\n",
                    static_cast<unsigned long long>(stats.tests_executed),
                    fixed ? "patched" : "buggy");
        std::printf("  lofi differences: %llu\n",
                    static_cast<unsigned long long>(stats.lofi_diffs));
        std::printf("  hifi differences: %llu\n",
                    static_cast<unsigned long long>(stats.hifi_diffs));
        if (stats.lofi_diffs) {
            std::printf("%s",
                        stats.lofi_clusters.to_string().c_str());
        }
        if (fixed && stats.lofi_diffs != 0) {
            std::fprintf(stderr,
                         "regression: the patched build still "
                         "differs!\n");
            return 1;
        }
        return 0;
    }

    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
}
