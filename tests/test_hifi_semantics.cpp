/**
 * @file
 * Direct unit tests of instruction semantics: craft a machine state,
 * run one instruction on the Hi-Fi emulator (IR interpretation) and on
 * the hardware model, and assert the exact architectural result. The
 * differential fuzz in test_backends.cpp covers breadth; these pin
 * down specific documented behaviours, especially flag results.
 */
#include <gtest/gtest.h>

#include "arch/descriptors.h"
#include "arch/paging.h"
#include "backend/direct_cpu.h"
#include "hifi/hifi_emulator.h"
#include "testgen/baseline.h"

namespace pokeemu {
namespace {

namespace layout = arch::layout;
using arch::CpuState;

/** Fixture: run one instruction from a tweaked baseline state. */
class Semantics : public ::testing::Test
{
  protected:
    CpuState state = testgen::baseline_cpu_state();
    std::vector<u8> ram = testgen::baseline_ram_after_init().to_bytes();

    /** Install @p code at the test address and run it on both the
     *  Hi-Fi emulator and the hardware model; assert they agree and
     *  return the final state. */
    CpuState
    run(std::initializer_list<u8> code, u64 max_insns = 4)
    {
        // Chained runs reuse the previous final state: rewind it onto
        // the new test code.
        state.halted = 0;
        state.eip = layout::kPhysTestCode;
        state.exception = arch::ExceptionInfo{};
        std::vector<u8> program(code);
        program.push_back(0xf4); // hlt
        const arch::RamImage image = arch::make_ram_image(ram);

        hifi::HiFiEmulator hifi_emu(
            {/*hifi_far_fetch_order=*/false, nullptr});
        hifi_emu.reset(state, image, layout::kPhysTestCode, program);
        hifi_emu.run(max_insns);

        backend::Behavior hw_behavior = backend::hardware_behavior();
        hw_behavior.shift_clears_af = true; // Align with the Hi-Fi IR.
        backend::DirectCpu hw(hw_behavior);
        hw.reset(state, image, layout::kPhysTestCode, program);
        hw.run(max_insns);

        const auto diff =
            arch::diff_snapshots(hifi_emu.snapshot(), hw.snapshot());
        EXPECT_TRUE(diff.empty()) << diff.to_string();
        ram = hw.snapshot().ram.to_bytes();
        return hw.cpu();
    }
};

TEST_F(Semantics, AddComputesFlags)
{
    state.gpr[arch::kEax] = 0x7fffffff;
    state.gpr[arch::kEcx] = 1;
    const CpuState out = run({0x01, 0xc8}); // add eax, ecx
    EXPECT_EQ(out.gpr[arch::kEax], 0x80000000u);
    EXPECT_TRUE(out.eflags & arch::kFlagOf);
    EXPECT_TRUE(out.eflags & arch::kFlagSf);
    EXPECT_FALSE(out.eflags & arch::kFlagCf);
    EXPECT_FALSE(out.eflags & arch::kFlagZf);
    EXPECT_TRUE(out.eflags & arch::kFlagAf); // 0xf + 1 carries.
}

TEST_F(Semantics, SubSetsBorrowAndZero)
{
    state.gpr[arch::kEax] = 5;
    state.gpr[arch::kEcx] = 7;
    CpuState out = run({0x29, 0xc8}); // sub eax, ecx
    EXPECT_EQ(out.gpr[arch::kEax], 0xfffffffeu);
    EXPECT_TRUE(out.eflags & arch::kFlagCf);

    state.gpr[arch::kEax] = 7;
    state.gpr[arch::kEcx] = 7;
    out = run({0x29, 0xc8});
    EXPECT_EQ(out.gpr[arch::kEax], 0u);
    EXPECT_TRUE(out.eflags & arch::kFlagZf);
    EXPECT_TRUE(out.eflags & arch::kFlagPf);
}

TEST_F(Semantics, AdcUsesIncomingCarry)
{
    state.eflags |= arch::kFlagCf;
    state.gpr[arch::kEax] = 1;
    state.gpr[arch::kEcx] = 2;
    const CpuState out = run({0x11, 0xc8}); // adc eax, ecx
    EXPECT_EQ(out.gpr[arch::kEax], 4u);
}

TEST_F(Semantics, IncPreservesCarry)
{
    state.eflags |= arch::kFlagCf;
    state.gpr[arch::kEbx] = 0xffffffff;
    const CpuState out = run({0x43}); // inc ebx
    EXPECT_EQ(out.gpr[arch::kEbx], 0u);
    EXPECT_TRUE(out.eflags & arch::kFlagCf) << "inc must keep CF";
    EXPECT_TRUE(out.eflags & arch::kFlagZf);
    EXPECT_FALSE(out.eflags & arch::kFlagOf);
}

TEST_F(Semantics, EightBitRegistersAreHighLow)
{
    state.gpr[arch::kEax] = 0x11223344;
    // mov ah, 0x99
    CpuState out = run({0xb4, 0x99});
    EXPECT_EQ(out.gpr[arch::kEax], 0x11229944u);
    // add al, ah -> al = 0x44 + 0x99 = 0xdd
    state = out;
    out = run({0x00, 0xe0});
    EXPECT_EQ(out.gpr[arch::kEax] & 0xff, 0xddu);
}

TEST_F(Semantics, PushWritesAndDecrements)
{
    state.gpr[arch::kEax] = 0xdeadbeef;
    const u32 esp0 = state.gpr[arch::kEsp];
    const CpuState out = run({0x50}); // push eax
    EXPECT_EQ(out.gpr[arch::kEsp], esp0 - 4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(ram[esp0 - 4 + i]) << (8 * i);
    EXPECT_EQ(v, 0xdeadbeefu);
}

TEST_F(Semantics, PopEspGetsThePoppedValue)
{
    // push imm32; pop esp: ESP must end up as the pushed value, not
    // incremented.
    const CpuState out = run({0x68, 0x78, 0x56, 0x34, 0x12, 0x5c}, 8);
    EXPECT_EQ(out.gpr[arch::kEsp], 0x12345678u);
}

TEST_F(Semantics, MulSetsCarryOnOverflow)
{
    state.gpr[arch::kEax] = 0x10000;
    state.gpr[arch::kEbx] = 0x10000;
    const CpuState out = run({0xf7, 0xe3}); // mul ebx
    EXPECT_EQ(out.gpr[arch::kEax], 0u);
    EXPECT_EQ(out.gpr[arch::kEdx], 1u);
    EXPECT_TRUE(out.eflags & arch::kFlagCf);
    EXPECT_TRUE(out.eflags & arch::kFlagOf);
}

TEST_F(Semantics, DivComputesQuotientRemainder)
{
    state.gpr[arch::kEdx] = 0;
    state.gpr[arch::kEax] = 100;
    state.gpr[arch::kEbx] = 7;
    const CpuState out = run({0xf7, 0xf3}); // div ebx
    EXPECT_EQ(out.gpr[arch::kEax], 14u);
    EXPECT_EQ(out.gpr[arch::kEdx], 2u);
    EXPECT_EQ(out.exception.vector, arch::kExcNone);
}

TEST_F(Semantics, DivByZeroFaults)
{
    state.gpr[arch::kEbx] = 0;
    const CpuState out = run({0xf7, 0xf3});
    EXPECT_EQ(out.exception.vector, arch::kExcDe);
    // EAX untouched (fault before commit).
    EXPECT_EQ(out.gpr[arch::kEax], state.gpr[arch::kEax]);
}

TEST_F(Semantics, DivOverflowFaults)
{
    state.gpr[arch::kEdx] = 10;
    state.gpr[arch::kEax] = 0;
    state.gpr[arch::kEbx] = 2;
    const CpuState out = run({0xf7, 0xf3}); // quotient > 2^32.
    EXPECT_EQ(out.exception.vector, arch::kExcDe);
}

TEST_F(Semantics, IdivSignedTruncation)
{
    // -7 / 2 = -3 rem -1 (truncation toward zero).
    state.gpr[arch::kEdx] = 0xffffffff;
    state.gpr[arch::kEax] = static_cast<u32>(-7);
    state.gpr[arch::kEbx] = 2;
    const CpuState out = run({0xf7, 0xfb}); // idiv ebx
    EXPECT_EQ(out.gpr[arch::kEax], static_cast<u32>(-3));
    EXPECT_EQ(out.gpr[arch::kEdx], static_cast<u32>(-1));
}

TEST_F(Semantics, ShlShiftsAndSetsCarry)
{
    state.gpr[arch::kEax] = 0xc0000001;
    const CpuState out = run({0xc1, 0xe0, 0x01}); // shl eax, 1
    EXPECT_EQ(out.gpr[arch::kEax], 0x80000002u);
    EXPECT_TRUE(out.eflags & arch::kFlagCf);
    // OF for count 1: CF != new MSB -> 1 != 1 -> false... CF=1, MSB=1.
    EXPECT_FALSE(out.eflags & arch::kFlagOf);
}

TEST_F(Semantics, ShiftCountZeroLeavesFlags)
{
    state.eflags |= arch::kFlagCf | arch::kFlagOf | arch::kFlagZf;
    state.gpr[arch::kEax] = 5;
    state.gpr[arch::kEcx] = 0; // CL = 0.
    const CpuState out = run({0xd3, 0xe0}); // shl eax, cl
    EXPECT_EQ(out.gpr[arch::kEax], 5u);
    EXPECT_TRUE(out.eflags & arch::kFlagCf);
    EXPECT_TRUE(out.eflags & arch::kFlagOf);
    EXPECT_TRUE(out.eflags & arch::kFlagZf);
}

TEST_F(Semantics, RolRotatesThroughWidth)
{
    state.gpr[arch::kEax] = 0x80000001;
    const CpuState out = run({0xc1, 0xc0, 0x04}); // rol eax, 4
    EXPECT_EQ(out.gpr[arch::kEax], 0x00000018u);
    EXPECT_FALSE(out.eflags & arch::kFlagZf & 0) << "rotates keep ZF";
}

TEST_F(Semantics, SarPreservesSign)
{
    state.gpr[arch::kEax] = 0x80000000;
    const CpuState out = run({0xc1, 0xf8, 0x1f}); // sar eax, 31
    EXPECT_EQ(out.gpr[arch::kEax], 0xffffffffu);
}

TEST_F(Semantics, StringMovsRespectsDirectionFlag)
{
    // Forward copy.
    ram[0x200100] = 0xaa;
    state.gpr[arch::kEsi] = 0x200100;
    state.gpr[arch::kEdi] = 0x200200;
    CpuState out = run({0xa4}); // movsb
    EXPECT_EQ(ram[0x200200], 0xaa);
    EXPECT_EQ(out.gpr[arch::kEsi], 0x200101u);
    EXPECT_EQ(out.gpr[arch::kEdi], 0x200201u);

    // Backward copy (DF set).
    state.eflags |= arch::kFlagDf;
    out = run({0xa4});
    EXPECT_EQ(out.gpr[arch::kEsi], 0x2000ffu);
    EXPECT_EQ(out.gpr[arch::kEdi], 0x2001ffu);
}

TEST_F(Semantics, RepStosFillsAndRepeCmpsStops)
{
    state.gpr[arch::kEax] = 0x55;
    state.gpr[arch::kEcx] = 8;
    state.gpr[arch::kEdi] = 0x200300;
    CpuState out = run({0xf3, 0xaa}); // rep stosb
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ram[0x200300 + i], 0x55);
    EXPECT_EQ(out.gpr[arch::kEcx], 0u);
    EXPECT_EQ(out.gpr[arch::kEdi], 0x200308u);

    // repe cmpsb stops at the first mismatch.
    for (int i = 0; i < 8; ++i) {
        ram[0x200400 + i] = static_cast<u8>(i < 3 ? 7 : 9);
        ram[0x200500 + i] = 7;
    }
    state = testgen::baseline_cpu_state();
    state.gpr[arch::kEsi] = 0x200400;
    state.gpr[arch::kEdi] = 0x200500;
    state.gpr[arch::kEcx] = 8;
    out = run({0xf3, 0xa6}); // repe cmpsb
    EXPECT_EQ(out.gpr[arch::kEcx], 8u - 4u); // Stops after element 3.
    EXPECT_FALSE(out.eflags & arch::kFlagZf);
}

TEST_F(Semantics, CmovOnlyMovesWhenConditionHolds)
{
    state.gpr[arch::kEax] = 1;
    state.gpr[arch::kEbx] = 99;
    state.eflags |= arch::kFlagZf;
    CpuState out = run({0x0f, 0x44, 0xc3}); // cmovz eax, ebx
    EXPECT_EQ(out.gpr[arch::kEax], 99u);

    state.eflags &= ~arch::kFlagZf;
    out = run({0x0f, 0x44, 0xc3});
    EXPECT_EQ(out.gpr[arch::kEax], 1u);
}

TEST_F(Semantics, SetccWritesBoolean)
{
    state.eflags |= arch::kFlagCf;
    const CpuState out = run({0x0f, 0x92, 0xc2}); // setb dl
    EXPECT_EQ(out.gpr[arch::kEdx] & 0xff, 1u);
}

TEST_F(Semantics, JccTakenAndNotTaken)
{
    state.eflags |= arch::kFlagZf;
    // jz +1 ; hlt ; inc eax ; hlt  -> jumps over the first hlt.
    std::copy_n(
        std::initializer_list<u8>{0x74, 0x01, 0xf4, 0x40, 0xf4}.begin(),
        5, ram.begin() + layout::kPhysTestCode);
    CpuState out = run({0x74, 0x01, 0xf4, 0x40, 0xf4}, 8);
    EXPECT_EQ(out.gpr[arch::kEax], state.gpr[arch::kEax] + 1);
}

TEST_F(Semantics, CallPushesReturnAndRetReturns)
{
    // call +1; hlt; hlt  -> call skips a byte, ret comes back... keep
    // simple: call to a ret, then hlt.
    // Layout: call rel32(=1) ; hlt ; ret
    const CpuState out =
        run({0xe8, 0x01, 0x00, 0x00, 0x00, 0xf4, 0xc3}, 8);
    // ret jumps back to the hlt after the call.
    EXPECT_EQ(out.eip, layout::kPhysTestCode + 6);
    EXPECT_EQ(out.gpr[arch::kEsp], state.gpr[arch::kEsp]);
}

TEST_F(Semantics, BswapReversesBytes)
{
    state.gpr[arch::kEdx] = 0x11223344;
    const CpuState out = run({0x0f, 0xca}); // bswap edx
    EXPECT_EQ(out.gpr[arch::kEdx], 0x44332211u);
}

TEST_F(Semantics, BtSetsCarryAndBtsSetsBit)
{
    state.gpr[arch::kEax] = 0x4;
    state.gpr[arch::kEcx] = 2;
    CpuState out = run({0x0f, 0xa3, 0xc8}); // bt eax, ecx
    EXPECT_TRUE(out.eflags & arch::kFlagCf);

    state.gpr[arch::kEcx] = 5;
    out = run({0x0f, 0xab, 0xc8}); // bts eax, ecx
    EXPECT_EQ(out.gpr[arch::kEax], 0x24u);
}

TEST_F(Semantics, BtMemoryAddressesBeyondDword)
{
    // bt [0x200600], ebx with ebx = 37: tests bit 5 of byte at +4.
    ram[0x200604] = 0x20;
    state.gpr[arch::kEbx] = 37;
    const CpuState out =
        run({0x0f, 0xa3, 0x1d, 0x00, 0x06, 0x20, 0x00});
    EXPECT_TRUE(out.eflags & arch::kFlagCf);
}

TEST_F(Semantics, MovzxMovsxExtendCorrectly)
{
    state.gpr[arch::kEbx] = 0x80;
    CpuState out = run({0x0f, 0xb6, 0xc3}); // movzx eax, bl
    EXPECT_EQ(out.gpr[arch::kEax], 0x80u);
    out = run({0x0f, 0xbe, 0xc3}); // movsx eax, bl
    EXPECT_EQ(out.gpr[arch::kEax], 0xffffff80u);
}

TEST_F(Semantics, XaddExchangesAndAdds)
{
    state.gpr[arch::kEax] = 3;
    state.gpr[arch::kEbx] = 4;
    const CpuState out = run({0x0f, 0xc1, 0xc3}); // xadd ebx, eax
    EXPECT_EQ(out.gpr[arch::kEbx], 7u);
    EXPECT_EQ(out.gpr[arch::kEax], 4u);
}

TEST_F(Semantics, CmpxchgBothPaths)
{
    // Equal: [mem] <- src.
    ram[0x200700] = 0x11;
    state.gpr[arch::kEax] = 0x11;
    state.gpr[arch::kEcx] = 0x22;
    state.gpr[arch::kEbx] = 0x200700;
    CpuState out = run({0x0f, 0xb0, 0x0b}); // cmpxchg [ebx], cl
    EXPECT_EQ(ram[0x200700], 0x22);
    EXPECT_TRUE(out.eflags & arch::kFlagZf);

    // Not equal: AL <- [mem].
    ram[0x200700] = 0x33;
    out = run({0x0f, 0xb0, 0x0b});
    EXPECT_EQ(out.gpr[arch::kEax] & 0xff, 0x33u);
    EXPECT_FALSE(out.eflags & arch::kFlagZf);
}

TEST_F(Semantics, LahfSahfRoundTrip)
{
    state.eflags =
        (state.eflags & ~0xd5u) | arch::kFlagCf | arch::kFlagSf;
    CpuState out = run({0x9f}); // lahf
    const u32 ah = (out.gpr[arch::kEax] >> 8) & 0xff;
    EXPECT_EQ(ah & 0xd5, (state.eflags & 0xd5));
    EXPECT_TRUE(ah & 0x02);

    state = out;
    state.eflags &= ~arch::kFlagCf; // Perturb, then restore via sahf.
    out = run({0x9e});
    EXPECT_TRUE(out.eflags & arch::kFlagCf);
}

TEST_F(Semantics, PushfdPopfdMask)
{
    const CpuState out =
        run({0x68, 0xd5, 0xff, 0x04, 0x00, 0x9d}, 4); // push/popfd
    // 0x4ffd5 & popfd mask 0x47fd5 -> all status+DF+IOPL+NT+AC bits.
    EXPECT_EQ(out.eflags & 0x47fd5u, 0x47fd5u & 0x4ffd5u);
    // Reserved bit 15 (0x8000) must not leak in.
    EXPECT_FALSE(out.eflags & 0x8000u);
}

TEST_F(Semantics, IretSameLevelReturn)
{
    // Build a frame: eflags, cs, eip on the stack (pushed downward).
    const u32 esp = state.gpr[arch::kEsp] - 12;
    auto put32 = [&](u32 a, u32 v) {
        for (int i = 0; i < 4; ++i)
            ram[a + i] = static_cast<u8>(v >> (8 * i));
    };
    put32(esp, 0x00205000);           // new EIP
    put32(esp + 4, testgen::kCodeSelector);
    put32(esp + 8, 0x2 | arch::kFlagCf);
    ram[0x205000] = 0xf4; // hlt at the target.
    state.gpr[arch::kEsp] = esp;
    const CpuState out = run({0xcf}, 4); // iret
    EXPECT_EQ(out.eip, 0x00205001u); // After the target's hlt.
    EXPECT_TRUE(out.eflags & arch::kFlagCf);
    EXPECT_EQ(out.gpr[arch::kEsp], esp + 12);
    EXPECT_EQ(out.exception.vector, arch::kExcNone);
}

TEST_F(Semantics, SgdtSidtStoreBaseAndLimit)
{
    const CpuState out = run(
        {0x0f, 0x01, 0x05, 0x00, 0x08, 0x20, 0x00}); // sgdt [0x200800]
    (void)out;
    const u32 limit = ram[0x200800] | (ram[0x200801] << 8);
    u32 base = 0;
    for (int i = 0; i < 4; ++i)
        base |= static_cast<u32>(ram[0x200802 + i]) << (8 * i);
    EXPECT_EQ(limit, state.gdtr.limit);
    EXPECT_EQ(base, state.gdtr.base);
}

TEST_F(Semantics, CpuidVendorString)
{
    state.gpr[arch::kEax] = 0;
    const CpuState out = run({0x0f, 0xa2});
    EXPECT_EQ(out.gpr[arch::kEbx], 0x656b6f50u); // "Poke"
    EXPECT_EQ(out.gpr[arch::kEdx], 0x76554d45u); // "EMUv"
    EXPECT_EQ(out.gpr[arch::kEcx], 0x36387856u); // "VX86"
}

TEST_F(Semantics, MsrReadWriteRoundTrip)
{
    // wrmsr 0x175 <- 0x1234; rdmsr.
    const CpuState out = run({0xb9, 0x75, 0x01, 0x00, 0x00,  // mov ecx
                              0xb8, 0x34, 0x12, 0x00, 0x00,  // mov eax
                              0x0f, 0x30,                    // wrmsr
                              0x0f, 0x32},                   // rdmsr
                             8);
    EXPECT_EQ(out.msr.sysenter_esp, 0x1234u);
    EXPECT_EQ(out.gpr[arch::kEax], 0x1234u);
    EXPECT_EQ(out.gpr[arch::kEdx], 0u);
}

TEST_F(Semantics, SegmentOverridePrefixIsHonored)
{
    // Give FS a nonzero base via a descriptor, then read through it.
    arch::Descriptor d = arch::make_flat_descriptor(0x93);
    d.base = 0x100;
    d.granularity = true;
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    ram[0x200900 + 0x100] = 0x77;
    state.gpr[arch::kEbx] = 0x200900;
    const CpuState out = run({0xb8, 0x18, 0x00, 0x00, 0x00, // mov eax
                              0x8e, 0xe0,                   // mov fs,ax
                              0x64, 0x8a, 0x0b},            // mov cl,fs:[ebx]
                             8);
    EXPECT_EQ(out.gpr[arch::kEcx] & 0xff, 0x77u);
}

TEST_F(Semantics, ExpandDownSegmentLimits)
{
    // Expand-down data segment with limit 0xfff: offsets <= 0xfff
    // fault, offsets above are fine.
    arch::Descriptor d;
    d.base = 0;
    d.limit_raw = 0xfff;
    d.access = 0x97; // Present, data, expand-down, writable, accessed.
    d.granularity = false;
    d.db = true;
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    state.gpr[arch::kEbx] = 0x200a00; // <= 0xfff? No: above limit, OK
                                      // ... 0x200a00 > 0xfff: valid.
    CpuState out = run({0xb8, 0x18, 0x00, 0x00, 0x00, // mov eax, 0x18
                        0x8e, 0xd8,                   // mov ds, ax
                        0x88, 0x0b},                  // mov [ebx], cl
                       8);
    EXPECT_EQ(out.exception.vector, arch::kExcNone);

    state.gpr[arch::kEbx] = 0x800; // Inside [0, limit]: faults.
    out = run({0xb8, 0x18, 0x00, 0x00, 0x00, 0x8e, 0xd8, 0x88, 0x0b},
              8);
    EXPECT_EQ(out.exception.vector, arch::kExcGp);
}

TEST_F(Semantics, WriteToReadOnlyPageFaultsWithWp)
{
    state.cr0 |= arch::kCr0Wp;
    ram[layout::kPhysPageTable + 4 * 0x300] &= ~arch::kPteRw;
    state.gpr[arch::kEbx] = 0x300000;
    const CpuState out = run({0x88, 0x0b}); // mov [ebx], cl
    EXPECT_EQ(out.exception.vector, arch::kExcPf);
    EXPECT_EQ(out.cr2, 0x300000u);
    EXPECT_EQ(out.exception.error_code,
              arch::kPfErrPresent | arch::kPfErrWrite);
}

TEST_F(Semantics, FarJmpReloadsCs)
{
    // Install a code descriptor with base 0x1000 at GDT entry 3 and
    // jump far to 0x18:0x200100. The hlt then sits at linear
    // 0x1000 + 0x200100.
    arch::Descriptor d = arch::make_flat_descriptor(0x9b);
    d.base = 0x1000;
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    ram[0x201100] = 0xf4; // hlt at the landing site (0x1000+0x200100).
    const CpuState out = run(
        {0xea, 0x00, 0x01, 0x20, 0x00, 0x18, 0x00}, 4);
    EXPECT_EQ(out.exception.vector, arch::kExcNone);
    EXPECT_EQ(out.seg[arch::kCs].selector, 0x18);
    EXPECT_EQ(out.seg[arch::kCs].base, 0x1000u);
    EXPECT_EQ(out.eip, 0x200101u); // After the landing hlt.
    // Accessed bit set in the GDT.
    EXPECT_TRUE(ram[layout::kPhysGdt + 8 * 3 + 5] & 1);
}

TEST_F(Semantics, FarJmpChecksDescriptor)
{
    // Data descriptor as a far-jump target: #GP(selector).
    arch::Descriptor d = arch::make_flat_descriptor(0x93);
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    CpuState out = run({0xea, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00});
    EXPECT_EQ(out.exception.vector, arch::kExcGp);
    EXPECT_EQ(out.exception.error_code, 0x18u);

    // Not-present code descriptor: #NP(selector).
    d = arch::make_flat_descriptor(0x1b); // Code, not present.
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    out = run({0xea, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00});
    EXPECT_EQ(out.exception.vector, arch::kExcNp);

    // DPL 3 nonconforming with CPL 0: #GP.
    d = arch::make_flat_descriptor(0xfb); // P, DPL3, code.
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    out = run({0xea, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00});
    EXPECT_EQ(out.exception.vector, arch::kExcGp);

    // Target offset beyond the segment limit: #GP(0).
    d = arch::make_flat_descriptor(0x9b);
    d.granularity = false;
    d.limit_raw = 0x10;
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    out = run({0xea, 0x00, 0x01, 0x00, 0x00, 0x18, 0x00});
    EXPECT_EQ(out.exception.vector, arch::kExcGp);
    EXPECT_EQ(out.exception.error_code, 0u);

    // Null selector: #GP(0).
    out = run({0xea, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
    EXPECT_EQ(out.exception.vector, arch::kExcGp);
    EXPECT_EQ(out.exception.error_code, 0u);
}

TEST_F(Semantics, CallFarPushesCsAndReturnAddress)
{
    arch::Descriptor d = arch::make_flat_descriptor(0x9b);
    arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * 3]);
    ram[0x205000] = 0xf4; // hlt at the target.
    const u32 esp0 = state.gpr[arch::kEsp];
    const CpuState out = run(
        {0x9a, 0x00, 0x50, 0x20, 0x00, 0x18, 0x00}, 4);
    EXPECT_EQ(out.exception.vector, arch::kExcNone);
    EXPECT_EQ(out.seg[arch::kCs].selector, 0x18);
    EXPECT_EQ(out.gpr[arch::kEsp], esp0 - 8);
    auto read32 = [&](u32 a) {
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(ram[a + i]) << (8 * i);
        return v;
    };
    EXPECT_EQ(read32(esp0 - 4), testgen::kCodeSelector); // Old CS.
    EXPECT_EQ(read32(esp0 - 8), layout::kPhysTestCode + 7);
}

TEST_F(Semantics, PhysicalMemoryWrapsAtFourMegabytes)
{
    // An access whose page maps to the last frame and whose offset
    // pushes bytes past 4 MiB must wrap to physical 0.
    state.gpr[arch::kEbx] = 0x3ffffe;
    state.gpr[arch::kEcx] = 0xaabbccdd;
    const CpuState out = run({0x89, 0x0b}); // mov [ebx], ecx
    EXPECT_EQ(out.exception.vector, arch::kExcNone);
    EXPECT_EQ(ram[0x3ffffe], 0xdd);
    EXPECT_EQ(ram[0x3fffff], 0xcc);
    EXPECT_EQ(ram[0], 0xbb);
    EXPECT_EQ(ram[1], 0xaa);
}

} // namespace
} // namespace pokeemu
