/**
 * @file
 * Quickstart: path-exploration lifting end to end for one instruction,
 * reproducing the paper's running example (push %eax, Figure 5).
 *
 *   1. Explore the Hi-Fi emulator's implementation of push %eax over
 *      the symbolic machine state (paper §3.3, Figure 1(2)).
 *   2. Turn each explored path into a test program (Figure 1(3), §4).
 *   3. Run every test on the Hi-Fi emulator, the Lo-Fi emulator, and
 *      the hardware oracle (Figure 1(4), §5).
 *   4. Compare the final states (Figure 1(5), §6).
 */
#include <cstdio>

#include "explore/state_explorer.h"
#include "harness/filter.h"
#include "harness/runner.h"
#include "testgen/testgen.h"

using namespace pokeemu;

int
main()
{
    // The test instruction: push %eax encoded as ff f0, exactly as in
    // the paper's Figure 5.
    u8 bytes[arch::kMaxInsnLength] = {0xff, 0xf0};
    arch::DecodedInsn insn;
    if (arch::decode(bytes, sizeof bytes, insn) !=
        arch::DecodeStatus::Ok) {
        std::fprintf(stderr, "decode failed\n");
        return 1;
    }
    std::printf("test instruction: %s\n\n",
                arch::to_string(insn).c_str());

    // --- Stage 2: machine-state-space exploration. ---
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    std::printf("descriptor-load summary: %llu paths folded "
                "(paper: Bochs' cache update had 23)\n",
                static_cast<unsigned long long>(summary.paths));

    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);
    std::printf("\n%s\n", spec.to_string().c_str());

    explore::StateExploreOptions options;
    options.max_paths = 64;
    explore::StateExploreResult explored =
        explore_instruction(insn, spec, &summary, options);
    std::printf("explored %llu paths (complete coverage: %s)\n\n",
                static_cast<unsigned long long>(explored.stats.paths),
                explored.stats.complete ? "yes" : "no");

    // --- Stage 3 + 4 + 5 per path. ---
    harness::TestRunner runner;
    unsigned differences = 0;
    for (std::size_t i = 0; i < explored.paths.size(); ++i) {
        const explore::ExploredPath &path = explored.paths[i];
        testgen::GenResult gen = testgen::generate_test_program(
            insn, path.assignment, spec, explored.pool);
        if (gen.status != testgen::GenStatus::Ok) {
            std::printf("path %zu: generation failed\n", i);
            continue;
        }
        std::printf("--- path %zu (halt 0x%x, %u gadgets) ---\n%s", i,
                    path.halt_code, gen.program.gadget_count,
                    gen.program.to_string().c_str());

        const harness::ThreeWayResult result =
            runner.run(gen.program.code);
        const arch::SnapshotDiff lofi_diff = arch::diff_snapshots(
            result.lofi.snapshot, result.hw.snapshot);
        const arch::SnapshotDiff hifi_diff = arch::diff_snapshots(
            result.hifi.snapshot, result.hw.snapshot);
        std::printf("    hw:   exception=%s\n",
                    result.hw.snapshot.cpu.exception.present()
                        ? std::to_string(
                              result.hw.snapshot.cpu.exception.vector)
                              .c_str()
                        : "none");
        if (lofi_diff.empty() && hifi_diff.empty()) {
            std::printf("    all three backends agree\n\n");
            continue;
        }
        ++differences;
        if (!lofi_diff.empty()) {
            std::printf("    lofi differs from hardware:\n%s",
                        lofi_diff.to_string().c_str());
        }
        if (!hifi_diff.empty()) {
            std::printf("    hifi differs from hardware:\n%s",
                        hifi_diff.to_string().c_str());
        }
        std::printf("\n");
    }
    std::printf("=> %u of %zu tests triggered behaviour differences\n",
                differences, explored.paths.size());
    return 0;
}
