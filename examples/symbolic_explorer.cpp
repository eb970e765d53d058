/**
 * @file
 * Developer tool: symbolically explore a single instruction and dump
 * every path — its outcome classification, the minimized test state
 * (which bits of the machine state matter and what they must be), and
 * the generated initializer. Give it instruction bytes in hex.
 *
 * Usage: symbolic_explorer [hex bytes...]    (default: 0f b4 03 = lfs)
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "explore/state_explorer.h"
#include "testgen/testgen.h"

using namespace pokeemu;

int
main(int argc, char **argv)
{
    u8 bytes[arch::kMaxInsnLength] = {0x0f, 0xb4, 0x03};
    if (argc > 1) {
        std::memset(bytes, 0, sizeof bytes);
        for (int i = 1; i < argc && i <= 15; ++i)
            bytes[i - 1] = static_cast<u8>(
                std::strtoul(argv[i], nullptr, 16));
    }
    arch::DecodedInsn insn;
    if (arch::decode(bytes, sizeof bytes, insn) !=
        arch::DecodeStatus::Ok) {
        std::fprintf(stderr, "not a valid instruction\n");
        return 1;
    }
    std::printf("instruction: %s\n", arch::to_string(insn).c_str());

    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    explore::StateExploreOptions options;
    options.max_paths = 128;
    explore::StateExploreResult result =
        explore_instruction(insn, spec, &summary, options);
    std::printf("%llu paths, complete=%s, %llu solver queries\n\n",
                static_cast<unsigned long long>(result.stats.paths),
                result.stats.complete ? "yes" : "no",
                static_cast<unsigned long long>(
                    result.stats.solver_queries));

    const arch::CpuState &base = spec.baseline_cpu();
    u8 base_image[arch::layout::kCpuStateSize];
    arch::pack_cpu_state(base, base_image);

    for (std::size_t i = 0; i < result.paths.size(); ++i) {
        const explore::ExploredPath &path = result.paths[i];
        std::printf("path %zu: ", i);
        if (path.halt_code == hifi::kHaltOk)
            std::printf("completes normally");
        else if (path.halt_code == hifi::kHaltStop)
            std::printf("halts");
        else
            std::printf("raises exception vector %u",
                        path.halt_code & 0xff);
        std::printf(" (%llu semantic steps)\n",
                    static_cast<unsigned long long>(path.steps));

        // Dump the minimized test state: only bits that differ from
        // the baseline (paper Figure 5(a)).
        for (const auto &var : result.pool.all()) {
            const auto loc = spec.locate(var->name());
            if (!loc)
                continue;
            const u8 value = static_cast<u8>(
                path.assignment.get(var->var_id()) & loc->mask);
            const u8 baseline =
                (loc->kind == explore::VarLocation::Kind::CpuByte
                     ? base_image[loc->addr]
                     : spec.baseline_ram()[loc->addr]) &
                loc->mask;
            if (value != baseline) {
                std::printf("    %-16s : 0x%02x (baseline 0x%02x)\n",
                            var->name().c_str(), value, baseline);
            }
        }
        testgen::GenResult gen = testgen::generate_test_program(
            insn, path.assignment, spec, result.pool);
        if (gen.status == testgen::GenStatus::Ok) {
            std::printf("  initializer (%u gadgets):\n%s",
                        gen.program.gadget_count,
                        gen.program.to_string().c_str());
        }
        std::printf("\n");
    }
    return 0;
}
