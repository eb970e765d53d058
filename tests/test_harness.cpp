/** @file Unit tests for the difference-analysis harness. */
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/filter.h"
#include "harness/runner.h"
#include "testgen/baseline.h"

namespace pokeemu::harness {
namespace {

namespace layout = arch::layout;

/** Snapshot memory of @p n zero bytes, nothing written. */
arch::RamView
zero_ram(std::size_t n)
{
    return arch::RamView(arch::make_ram_image(std::vector<u8>(n, 0)));
}

/** Snapshot memory: @p base with @p writes applied by a run. */
arch::RamView
written_ram(const arch::RamImage &base,
            std::initializer_list<std::pair<u32, u8>> writes)
{
    arch::GuestRam ram;
    ram.reset(base);
    for (const auto &[addr, value] : writes)
        ram.write8(addr, value);
    arch::RamView view;
    ram.snapshot_into(view);
    return view;
}

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

TEST(Filter, UndefinedMaskPerClass)
{
    EXPECT_EQ(undefined_flags_mask(arch::Op::ShiftRm32Imm8),
              arch::kFlagAf | arch::kFlagOf);
    EXPECT_EQ(undefined_flags_mask(arch::Op::Grp3DivRm32),
              arch::kStatusFlags);
    EXPECT_EQ(undefined_flags_mask(arch::Op::AluRm32R32), 0u);
}

TEST(Filter, PureUndefinedFlagDiffIsRemoved)
{
    const arch::DecodedInsn insn = decode_insn({0xc1, 0xe0, 0x04});
    arch::Snapshot a, b;
    a.cpu.eflags = arch::kFlagFixed1;
    b.cpu.eflags = arch::kFlagFixed1 | arch::kFlagAf | arch::kFlagOf;
    a.ram = zero_ram(16);
    b.ram = a.ram;
    const auto diff = arch::diff_snapshots(a, b);
    ASSERT_FALSE(diff.empty());
    const auto filtered = filter_undefined(insn, a, b, diff);
    EXPECT_TRUE(filtered.fully_filtered());
}

TEST(Filter, DefinedFlagDiffSurvives)
{
    const arch::DecodedInsn insn = decode_insn({0xc1, 0xe0, 0x04});
    arch::Snapshot a, b;
    a.cpu.eflags = arch::kFlagFixed1;
    b.cpu.eflags = arch::kFlagFixed1 | arch::kFlagZf; // ZF is defined.
    a.ram = zero_ram(16);
    b.ram = a.ram;
    const auto filtered =
        filter_undefined(insn, a, b, arch::diff_snapshots(a, b));
    EXPECT_FALSE(filtered.remaining.empty());
}

TEST(Filter, BsfZeroSourceDestIgnored)
{
    // bsf edx, eax with ZF set on both sides: the edx diff is
    // undefined behaviour.
    const arch::DecodedInsn insn = decode_insn({0x0f, 0xbc, 0xd0});
    arch::Snapshot a, b;
    a.cpu.eflags = b.cpu.eflags = arch::kFlagFixed1 | arch::kFlagZf;
    a.cpu.gpr[arch::kEdx] = 7;
    b.cpu.gpr[arch::kEdx] = 0;
    a.ram = zero_ram(16);
    b.ram = a.ram;
    const auto filtered =
        filter_undefined(insn, a, b, arch::diff_snapshots(a, b));
    EXPECT_TRUE(filtered.fully_filtered());
}

TEST(Cluster, ClassifiesSeededRootCauses)
{
    arch::Snapshot hw, other;
    const arch::RamImage zeros =
        arch::make_ram_image(std::vector<u8>(arch::kPhysMemSize, 0));
    hw.ram = arch::RamView(zeros);
    other.ram = hw.ram;

    // leave with both sides faulting but different ESP.
    {
        arch::Snapshot a = other, b = hw;
        a.cpu.exception.vector = arch::kExcPf;
        b.cpu.exception.vector = arch::kExcPf;
        a.cpu.gpr[arch::kEsp] = 0x1004;
        b.cpu.gpr[arch::kEsp] = 0x2000;
        const auto insn = decode_insn({0xc9});
        const auto diff = arch::diff_snapshots(a, b);
        EXPECT_EQ(classify_difference(insn, diff, a, b),
                  "atomicity-violation-leave");
    }
    // iret with different CR2.
    {
        arch::Snapshot a = other, b = hw;
        a.cpu.exception.vector = arch::kExcPf;
        b.cpu.exception.vector = arch::kExcPf;
        a.cpu.cr2 = 0x300ffc;
        b.cpu.cr2 = 0x300ff8;
        const auto insn = decode_insn({0xcf});
        const auto diff = arch::diff_snapshots(a, b);
        EXPECT_EQ(classify_difference(insn, diff, a, b),
                  "iret-pop-order");
    }
    // One side #GP, other executes.
    {
        arch::Snapshot a = other, b = hw;
        b.cpu.exception.vector = arch::kExcGp;
        b.cpu.exception.has_error_code = true;
        a.ram = written_ram(zeros, {{0x100, 0xab}});
        const auto insn = decode_insn({0x89, 0x08});
        const auto diff = arch::diff_snapshots(a, b);
        EXPECT_EQ(classify_difference(insn, diff, a, b),
                  "segment-limits-and-rights-not-enforced");
    }
    // rdmsr: #GP vs executes.
    {
        arch::Snapshot a = other, b = hw;
        b.cpu.exception.vector = arch::kExcGp;
        b.cpu.exception.has_error_code = true;
        const auto insn = decode_insn({0x0f, 0x32});
        const auto diff = arch::diff_snapshots(a, b);
        EXPECT_EQ(classify_difference(insn, diff, a, b),
                  "rdmsr-no-gp-on-invalid-msr");
    }
    // Accessed flag: GDT byte + cached access only.
    {
        arch::Snapshot a = other, b = hw;
        b.ram = written_ram(zeros, {{layout::kPhysGdt + 8 * 3 + 5, 0x93}});
        a.ram = written_ram(zeros, {{layout::kPhysGdt + 8 * 3 + 5, 0x92}});
        b.cpu.seg[arch::kDs].access = 0x93;
        a.cpu.seg[arch::kDs].access = 0x92;
        const auto insn = decode_insn({0x8e, 0xd8}); // mov ds, ax
        const auto diff = arch::diff_snapshots(a, b);
        EXPECT_EQ(classify_difference(insn, diff, a, b),
                  "segment-accessed-flag-not-set");
    }
}

TEST(Cluster, AccumulatesAndSorts)
{
    RootCauseClusterer clusterer;
    arch::Snapshot a, b;
    a.ram = zero_ram(16);
    b.ram = a.ram;
    b.cpu.exception.vector = arch::kExcGp;
    b.cpu.exception.has_error_code = true;
    const auto insn = decode_insn({0x89, 0x08});
    const auto diff = arch::diff_snapshots(a, b);
    for (u64 t = 0; t < 3; ++t)
        clusterer.add(t, insn, diff, a, b);
    EXPECT_EQ(clusterer.total(), 3u);
    const auto clusters = clusterer.clusters();
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0].count, 3u);
    EXPECT_TRUE(clusters[0].mnemonics.count("mov"));
    EXPECT_NE(clusterer.to_string().find("segment-limits"),
              std::string::npos);
}

TEST(Runner, TrivialHltTestAgreesEverywhere)
{
    TestRunner runner;
    const std::vector<u8> program = {0xf4}; // hlt
    const ThreeWayResult r = runner.run(program);
    EXPECT_FALSE(r.hifi.timed_out);
    EXPECT_FALSE(r.lofi.timed_out);
    EXPECT_FALSE(r.hw.timed_out);
    EXPECT_TRUE(
        arch::diff_snapshots(r.hifi.snapshot, r.hw.snapshot).empty());
    EXPECT_TRUE(
        arch::diff_snapshots(r.lofi.snapshot, r.hw.snapshot).empty());
}

TEST(Runner, VmmCountsTraps)
{
    TestRunner runner;
    runner.run({0xf4});                   // hlt
    runner.run({0xcd, 0x20, 0xf4});       // int 0x20 -> exception trap
    EXPECT_EQ(runner.vmm().tests_run(), 2u);
    EXPECT_EQ(runner.vmm().halt_traps(), 1u);
    EXPECT_EQ(runner.vmm().exception_traps(), 1u);
}

} // namespace
} // namespace pokeemu::harness
