/**
 * @file
 * Tests for multi-instruction-sequence exploration (the paper's §7
 * "Multiple-Instruction Sequences" extension).
 */
#include <gtest/gtest.h>

#include <set>

#include "explore/state_explorer.h"
#include "arch/paging.h"
#include "harness/runner.h"
#include "hifi/hifi_emulator.h"
#include "ir/eval.h"
#include "testgen/testgen.h"

namespace pokeemu {
namespace {

namespace layout = arch::layout;

arch::DecodedInsn
decode_insn(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    EXPECT_EQ(arch::decode(buf.data(), buf.size(), insn),
              arch::DecodeStatus::Ok);
    return insn;
}

struct Env
{
    symexec::VarPool summary_pool;
    symexec::Summary summary;
    explore::StateSpec spec;

    Env()
        : summary(hifi::summarize_descriptor_load(summary_pool)),
          spec(testgen::baseline_cpu_state(), &summary)
    {
    }
};

Env &
env()
{
    static Env instance;
    return instance;
}

TEST(Sequence, ComposedProgramRunsConcretely)
{
    // inc eax ; inc eax: the composed semantics must add two when
    // interpreted concretely on the Hi-Fi emulator's state image.
    const std::vector<arch::DecodedInsn> insns = {
        decode_insn({0x40}), decode_insn({0x40})};
    const ir::Program program =
        hifi::build_sequence_semantics(insns);

    hifi::HiFiEmulator emu;
    arch::CpuState start = testgen::baseline_cpu_state();
    start.gpr[arch::kEax] = 10;
    emu.reset(start, testgen::baseline_ram_after_init().to_bytes());
    const ir::RunResult r = ir::run_concrete(program, emu);
    ASSERT_EQ(r.status, ir::RunStatus::Halted);
    EXPECT_EQ(hifi::halt_base_code(r.halt_code), hifi::kHaltOk);
    EXPECT_EQ(hifi::halt_insn_index(r.halt_code), 1u);
    EXPECT_EQ(emu.cpu().gpr[arch::kEax], 12u);
    EXPECT_EQ(emu.cpu().eip, start.eip + 2);
}

TEST(Sequence, FaultTaggedWithInstructionIndex)
{
    // mov ecx, [ebx] after unmapping: the second instruction faults.
    const std::vector<arch::DecodedInsn> insns = {
        decode_insn({0x40}),       // inc eax
        decode_insn({0x8b, 0x0b}), // mov ecx, [ebx]
    };
    const ir::Program program =
        hifi::build_sequence_semantics(insns);

    hifi::HiFiEmulator emu;
    arch::CpuState start = testgen::baseline_cpu_state();
    start.gpr[arch::kEbx] = 0x300000;
    std::vector<u8> ram = testgen::baseline_ram_after_init().to_bytes();
    ram[layout::kPhysPageTable + 4 * 0x300] &= ~arch::kPtePresent;
    emu.reset(start, ram);
    const ir::RunResult r = ir::run_concrete(program, emu);
    ASSERT_EQ(r.status, ir::RunStatus::Halted);
    EXPECT_EQ(hifi::halt_base_code(r.halt_code),
              hifi::halt_exception_code(arch::kExcPf));
    EXPECT_EQ(hifi::halt_insn_index(r.halt_code), 1u);
    // The first instruction's effect is committed.
    EXPECT_EQ(emu.cpu().gpr[arch::kEax],
              testgen::baseline_cpu_state().gpr[arch::kEax] + 1);
}

TEST(Sequence, BranchDivergenceDetected)
{
    // jz +2 ; inc eax: on the taken path the sequence diverges.
    const std::vector<arch::DecodedInsn> insns = {
        decode_insn({0x74, 0x02}), // jz +2
        decode_insn({0x40}),       // inc eax
    };
    const ir::Program program =
        hifi::build_sequence_semantics(insns);

    hifi::HiFiEmulator emu;
    arch::CpuState start = testgen::baseline_cpu_state();
    start.eflags |= arch::kFlagZf;
    emu.reset(start, testgen::baseline_ram_after_init().to_bytes());
    ir::RunResult r = ir::run_concrete(program, emu);
    ASSERT_EQ(r.status, ir::RunStatus::Halted);
    EXPECT_EQ(r.halt_code, hifi::kHaltDiverged);

    start.eflags &= ~arch::kFlagZf;
    emu.reset(start, testgen::baseline_ram_after_init().to_bytes());
    r = ir::run_concrete(program, emu);
    EXPECT_EQ(hifi::halt_base_code(r.halt_code), hifi::kHaltOk);
}

TEST(Sequence, ExplorationCoversJointPathSpace)
{
    // sub eax, ecx ; jz rel8 — the flag producer and the consumer
    // explored jointly: both ZF outcomes must appear, driven by the
    // relation between EAX and ECX (not by a free ZF bit).
    const std::vector<arch::DecodedInsn> insns = {
        decode_insn({0x29, 0xc8}), // sub eax, ecx
        decode_insn({0x74, 0x10}), // jz +16
    };
    explore::StateExploreOptions options;
    options.max_paths = 16;
    explore::StateExploreResult r = explore_sequence(
        insns, env().spec, &env().summary, options);
    EXPECT_TRUE(r.stats.complete);
    // Both jz directions complete the pair normally (jz is the final
    // instruction, so there is no divergence exit); the joint
    // exploration must produce at least the taken and not-taken
    // variants, with ZF *derived from the subtraction* — i.e. the test
    // states must include both EAX == ECX and EAX != ECX.
    ASSERT_GE(r.paths.size(), 2u);
    auto reg_of = [&](const explore::ExploredPath &p,
                      const char *reg) {
        u32 v = 0;
        for (unsigned i = 0; i < 4; ++i) {
            v |= static_cast<u32>(
                     p.assignment.get(
                         r.pool
                             .get(std::string("gpr_") + reg + "_b" +
                                      std::to_string(i),
                                  8)
                             ->var_id()) &
                     0xff)
                 << (8 * i);
        }
        return v;
    };
    bool saw_equal = false, saw_unequal = false;
    for (const auto &p : r.paths) {
        if (hifi::halt_base_code(p.halt_code) != hifi::kHaltOk)
            continue;
        EXPECT_EQ(hifi::halt_insn_index(p.halt_code), 1u);
        if (reg_of(p, "eax") == reg_of(p, "ecx"))
            saw_equal = true;
        else
            saw_unequal = true;
    }
    EXPECT_TRUE(saw_equal);
    EXPECT_TRUE(saw_unequal);
}

TEST(Sequence, GeneratedPairTestsRunThreeWay)
{
    // Full loop: explore a pair, generate sequence tests, run them on
    // all backends; with all Lo-Fi bugs fixed there must be no
    // differences (composition is faithful end to end).
    const std::vector<arch::DecodedInsn> insns = {
        decode_insn({0x01, 0x08}), // add [eax], ecx
        decode_insn({0x74, 0x04}), // jz +4
    };
    explore::StateExploreOptions options;
    options.max_paths = 24;
    explore::StateExploreResult r = explore_sequence(
        insns, env().spec, &env().summary, options);
    ASSERT_GE(r.paths.size(), 3u);

    harness::TestRunner::Config cfg;
    cfg.bugs = lofi::BugConfig::none();
    harness::TestRunner runner(cfg);
    u64 ran = 0;
    for (const auto &path : r.paths) {
        const testgen::GenResult gen =
            testgen::generate_sequence_test_program(
                insns, path.assignment, env().spec, r.pool);
        ASSERT_EQ(gen.status, testgen::GenStatus::Ok);
        const auto result = runner.run(gen.program.code);
        EXPECT_TRUE(arch::diff_snapshots(result.hifi.snapshot,
                                         result.hw.snapshot)
                        .empty());
        EXPECT_TRUE(arch::diff_snapshots(result.lofi.snapshot,
                                         result.hw.snapshot)
                        .empty());
        ++ran;
    }
    EXPECT_GE(ran, 3u);
}

TEST(Sequence, PairFindsLoFiBugsToo)
{
    // leave ; inc eax with the seeded Lo-Fi bugs on: the pair tests
    // still expose the leave atomicity difference.
    const std::vector<arch::DecodedInsn> insns = {
        decode_insn({0xc9}), // leave
        decode_insn({0x40}), // inc eax
    };
    explore::StateExploreOptions options;
    options.max_paths = 24;
    explore::StateExploreResult r = explore_sequence(
        insns, env().spec, &env().summary, options);

    harness::TestRunner runner;
    u64 diffs = 0;
    for (const auto &path : r.paths) {
        const testgen::GenResult gen =
            testgen::generate_sequence_test_program(
                insns, path.assignment, env().spec, r.pool);
        if (gen.status != testgen::GenStatus::Ok)
            continue;
        const auto result = runner.run(gen.program.code);
        if (!arch::diff_snapshots(result.lofi.snapshot,
                                  result.hw.snapshot)
                 .empty()) {
            ++diffs;
        }
    }
    EXPECT_GT(diffs, 0u);
}

} // namespace
} // namespace pokeemu
