/**
 * @file
 * Multi-instruction-sequence lifting — the paper's §7 future work
 * made concrete: "In practice, however, emulators may themselves
 * compose individual instructions incorrectly, especially in the case
 * of QEMU, which performs dynamic binary translation for
 * multi-instruction sequences."
 *
 * This example explores instruction *pairs* jointly (flag producer +
 * conditional consumer; stack writer + stack consumer; segment load +
 * access through it), lifts each joint path into a sequence test
 * program, and three-way compares. Joint exploration constrains the
 * *relation* between the instructions (e.g. jz's direction is driven
 * by the preceding subtraction's operands, not by a free ZF bit).
 */
#include <cstdio>

#include "explore/state_explorer.h"
#include "harness/filter.h"
#include "harness/runner.h"
#include "testgen/testgen.h"

using namespace pokeemu;

namespace {

arch::DecodedInsn
decode_insn(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    if (arch::decode(buf.data(), buf.size(), insn) !=
        arch::DecodeStatus::Ok) {
        std::fprintf(stderr, "bad encoding in example\n");
        std::exit(1);
    }
    return insn;
}

} // namespace

int
main()
{
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    const std::vector<
        std::pair<const char *, std::vector<arch::DecodedInsn>>>
        pairs = {
            {"sub eax,ecx ; jz",
             {decode_insn({0x29, 0xc8}), decode_insn({0x74, 0x10})}},
            {"push eax ; pop ebx",
             {decode_insn({0x50}), decode_insn({0x5b})}},
            {"mov ds,ax ; mov [ebx],cl",
             {decode_insn({0x8e, 0xd8}), decode_insn({0x88, 0x0b})}},
            {"leave ; ret",
             {decode_insn({0xc9}), decode_insn({0xc3})}},
            {"cmpxchg [ebx],ecx ; jz",
             {decode_insn({0x0f, 0xb1, 0x0b}),
              decode_insn({0x74, 0x04})}},
        };

    harness::TestRunner runner;
    for (const auto &[name, insns] : pairs) {
        explore::StateExploreOptions options;
        options.max_paths = 48;
        explore::StateExploreResult explored =
            explore_sequence(insns, spec, &summary, options);

        unsigned generated = 0, lofi_diffs = 0, hifi_diffs = 0,
                 diverged = 0;
        for (const auto &path : explored.paths) {
            if (path.halt_code == hifi::kHaltDiverged)
                ++diverged;
            const testgen::GenResult gen =
                testgen::generate_sequence_test_program(
                    insns, path.assignment, spec, explored.pool);
            if (gen.status != testgen::GenStatus::Ok)
                continue;
            ++generated;
            const harness::ThreeWayResult r =
                runner.run(gen.program.code);
            if (!arch::diff_snapshots(r.lofi.snapshot, r.hw.snapshot)
                     .empty()) {
                ++lofi_diffs;
            }
            if (!arch::diff_snapshots(r.hifi.snapshot, r.hw.snapshot)
                     .empty()) {
                ++hifi_diffs;
            }
        }
        std::printf(
            "%-28s %3llu joint paths (%u branch-diverged), %u tests: "
            "lofi diffs %u, hifi diffs %u%s\n",
            name,
            static_cast<unsigned long long>(explored.stats.paths),
            diverged, generated, lofi_diffs, hifi_diffs,
            explored.stats.complete ? "" : " (capped)");
    }
    std::printf("\n(joint paths couple the instructions: the branch "
                "direction after sub is decided by the operand "
                "relation, the pop reads exactly what the push wrote, "
                "and the store goes through the freshly loaded "
                "descriptor)\n");
    return 0;
}
