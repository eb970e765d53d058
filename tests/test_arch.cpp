/** @file Unit tests for the VX86 architecture layer. */
#include <gtest/gtest.h>

#include <cstring>

#include "arch/assembler.h"
#include "arch/decoder.h"
#include "arch/descriptors.h"
#include "arch/layout.h"
#include "arch/paging.h"
#include "arch/snapshot.h"
#include "support/rng.h"

namespace pokeemu::arch {
namespace {

TEST(State, PackUnpackRoundTrip)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        CpuState c;
        for (auto &r : c.gpr)
            r = static_cast<u32>(rng.next());
        c.eip = static_cast<u32>(rng.next());
        c.eflags = static_cast<u32>(rng.next());
        c.cr0 = static_cast<u32>(rng.next());
        c.cr2 = static_cast<u32>(rng.next());
        c.cr3 = static_cast<u32>(rng.next());
        c.cr4 = static_cast<u32>(rng.next());
        c.gdtr = {static_cast<u32>(rng.next()),
                  static_cast<u16>(rng.next())};
        c.idtr = {static_cast<u32>(rng.next()),
                  static_cast<u16>(rng.next())};
        for (auto &s : c.seg) {
            s.selector = static_cast<u16>(rng.next());
            s.base = static_cast<u32>(rng.next());
            s.limit = static_cast<u32>(rng.next());
            s.access = static_cast<u8>(rng.next());
            s.db = static_cast<u8>(rng.next() & 1);
        }
        c.msr.sysenter_cs = static_cast<u32>(rng.next());
        c.msr.sysenter_esp = static_cast<u32>(rng.next());
        c.msr.sysenter_eip = static_cast<u32>(rng.next());
        c.exception.vector = static_cast<u8>(rng.next());
        c.exception.error_code = static_cast<u32>(rng.next());
        c.exception.has_error_code = rng.flip();
        c.halted = rng.flip() ? 1 : 0;

        u8 image[layout::kCpuStateSize];
        pack_cpu_state(c, image);
        EXPECT_EQ(unpack_cpu_state(image), c);
    }
}

TEST(Descriptors, EncodeDecodeRoundTrip)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        Descriptor d;
        d.base = static_cast<u32>(rng.next());
        d.limit_raw = static_cast<u32>(rng.next()) & 0xfffff;
        d.access = static_cast<u8>(rng.next());
        d.granularity = rng.flip();
        d.db = rng.flip();
        u8 bytes[8];
        encode_descriptor(d, bytes);
        const Descriptor back = decode_descriptor(bytes);
        EXPECT_EQ(back.base, d.base);
        EXPECT_EQ(back.limit_raw, d.limit_raw);
        EXPECT_EQ(back.access, d.access);
        EXPECT_EQ(back.granularity, d.granularity);
        EXPECT_EQ(back.db, d.db);
    }
}

TEST(Descriptors, EffectiveLimit)
{
    Descriptor d = make_flat_descriptor(0x93);
    EXPECT_EQ(d.effective_limit(), 0xffffffffu);
    d.granularity = false;
    d.limit_raw = 0x12345;
    EXPECT_EQ(d.effective_limit(), 0x12345u);
}

/** A zero kPhysMemSize image: page walks run on a GuestRam. */
RamImage
zero_image()
{
    return make_ram_image(std::vector<u8>(kPhysMemSize, 0));
}

void
put32(GuestRam &ram, u32 a, u32 v)
{
    for (u32 i = 0; i < 4; ++i)
        ram.write8(a + i, static_cast<u8>(v >> (8 * i)));
}

TEST(Paging, LinearMapTranslates)
{
    GuestRam ram;
    ram.reset(zero_image());
    // PD entry 0 -> PT at 0x2000; PT entry i -> frame i.
    put32(ram, 0x1000, 0x2000 | kPtePresent | kPteRw | kPteUser);
    for (u32 i = 0; i < 1024; ++i)
        put32(ram, 0x2000 + 4 * i,
              (i << 12) | kPtePresent | kPteRw | kPteUser);

    auto tr = translate_linear(ram, 0x1000, 0x1234, {false, false},
                               false, true);
    ASSERT_TRUE(tr.ok);
    EXPECT_EQ(tr.phys, 0x1234u);
    // Accessed bits set by the walk.
    EXPECT_TRUE(ram.read8(0x1000) & kPteAccessed);
    EXPECT_TRUE(ram.read8(0x2004) & kPteAccessed);

    // Write marks dirty.
    tr = translate_linear(ram, 0x1000, 0x5678, {true, false}, false,
                          true);
    ASSERT_TRUE(tr.ok);
    EXPECT_TRUE(ram.read8(0x2000 + 4 * 5) & kPteDirty);
}

TEST(Paging, NotPresentFaults)
{
    GuestRam ram;
    ram.reset(zero_image());
    auto tr = translate_linear(ram, 0x1000, 0x1234, {false, false},
                               false, true);
    EXPECT_FALSE(tr.ok);
    EXPECT_EQ(tr.pf_error, 0u); // Not-present, read, supervisor.
}

TEST(Paging, WriteProtectRespectsWp)
{
    GuestRam ram;
    ram.reset(zero_image());
    put32(ram, 0x1000, 0x2000 | kPtePresent | kPteRw | kPteUser);
    // Read-only page 0.
    put32(ram, 0x2000, 0x0000 | kPtePresent | kPteUser);

    // Supervisor write, WP=0: allowed.
    auto tr = translate_linear(ram, 0x1000, 0x10, {true, false}, false,
                               true);
    EXPECT_TRUE(tr.ok);
    // Supervisor write, WP=1: #PF with P|W error bits.
    tr = translate_linear(ram, 0x1000, 0x10, {true, false}, true,
                          true);
    EXPECT_FALSE(tr.ok);
    EXPECT_EQ(tr.pf_error, kPfErrPresent | kPfErrWrite);
}

// ---------------------------------------------------------------------
// Decoder.
// ---------------------------------------------------------------------

DecodedInsn
decode_ok(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(kMaxInsnLength, 0);
    DecodedInsn insn;
    EXPECT_EQ(decode(buf.data(), buf.size(), insn), DecodeStatus::Ok);
    return insn;
}

TEST(Decoder, PushEaxFigure5)
{
    // The paper's Figure 5 test instruction: push %eax as ff f0.
    DecodedInsn insn = decode_ok({0xff, 0xf0});
    EXPECT_EQ(insn.desc->op, Op::PushRm32);
    EXPECT_EQ(insn.length, 2);
    EXPECT_EQ(insn.mod, 3);
    EXPECT_EQ(insn.rm, 0u);
    // And the canonical one-byte form.
    insn = decode_ok({0x50});
    EXPECT_EQ(insn.desc->op, Op::PushR32);
    EXPECT_EQ(insn.desc->aux, 0);
}

TEST(Decoder, ModrmForms)
{
    // add [eax], ecx
    DecodedInsn insn = decode_ok({0x01, 0x08});
    EXPECT_EQ(insn.desc->op, Op::AluRm32R32);
    EXPECT_TRUE(insn.is_memory_operand());
    EXPECT_EQ(insn.reg, 1u);
    EXPECT_EQ(insn.rm, 0u);

    // add [ebp+0x12], ecx -> mod=1 disp8
    insn = decode_ok({0x01, 0x4d, 0x12});
    EXPECT_EQ(insn.mod, 1u);
    EXPECT_EQ(insn.disp, 0x12u);
    EXPECT_EQ(insn.length, 3u);

    // add [0x00208055], ecx -> mod=0 rm=5 disp32
    insn = decode_ok({0x01, 0x0d, 0x55, 0x80, 0x20, 0x00});
    EXPECT_EQ(insn.disp, 0x00208055u);
    EXPECT_EQ(insn.length, 6u);

    // SIB: add [eax + ecx*4], edx
    insn = decode_ok({0x01, 0x14, 0x88});
    EXPECT_TRUE(insn.has_sib);
    EXPECT_EQ(insn.base, 0u);
    EXPECT_EQ(insn.index, 1u);
    EXPECT_EQ(insn.scale, 2u);

    // Negative disp8 sign-extends.
    insn = decode_ok({0x01, 0x4d, 0xfc});
    EXPECT_EQ(insn.disp, 0xfffffffcu);
}

TEST(Decoder, GroupSubOpcodes)
{
    DecodedInsn insn = decode_ok({0x80, 0xc8, 0x01}); // or al, 1
    EXPECT_EQ(insn.desc->op, Op::Grp1Rm8Imm8);
    EXPECT_EQ(static_cast<AluKind>(insn.desc->aux), AluKind::Or);

    insn = decode_ok({0xf7, 0xf8}); // idiv eax
    EXPECT_EQ(insn.desc->op, Op::Grp3IdivRm32);

    // ff /7 is undefined.
    DecodedInsn bad;
    u8 buf[15] = {0xff, 0xf8};
    EXPECT_EQ(decode(buf, sizeof buf, bad), DecodeStatus::Invalid);
}

TEST(Decoder, Prefixes)
{
    DecodedInsn insn = decode_ok({0x2e, 0x8b, 0x00}); // mov eax,cs:[eax]
    EXPECT_EQ(insn.seg_override, kCs);

    insn = decode_ok({0xf0, 0x01, 0x08}); // lock add [eax], ecx
    EXPECT_TRUE(insn.lock);

    insn = decode_ok({0xf3, 0xa4}); // rep movsb
    EXPECT_TRUE(insn.rep);

    // Too many prefixes.
    u8 buf[15] = {0x26, 0x26, 0x26, 0x26, 0x26, 0x90};
    DecodedInsn bad;
    EXPECT_EQ(decode(buf, sizeof buf, bad), DecodeStatus::Invalid);
}

DecodeStatus
decode_status(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(kMaxInsnLength, 0);
    DecodedInsn insn;
    return decode(buf.data(), buf.size(), insn);
}

TEST(Decoder, PrefixLegality)
{
    // lock with register destination: invalid.
    EXPECT_EQ(decode_status({0xf0, 0x01, 0xc8}), DecodeStatus::Invalid);
    // lock on a non-lockable instruction (mov): invalid.
    EXPECT_EQ(decode_status({0xf0, 0x89, 0x08}), DecodeStatus::Invalid);
    // rep on non-string: invalid.
    EXPECT_EQ(decode_status({0xf3, 0x90}), DecodeStatus::Invalid);
    // repne on movs: invalid (only cmps/scas).
    EXPECT_EQ(decode_status({0xf2, 0xa4}), DecodeStatus::Invalid);
    // repne on cmpsb: valid.
    EXPECT_EQ(decode_status({0xf2, 0xa6}), DecodeStatus::Ok);
}

TEST(Decoder, AliasEncodings)
{
    // Shift group /6 is the undocumented SHL alias.
    DecodedInsn insn = decode_ok({0xc0, 0xf0, 0x03}); // "shl al, 3"
    EXPECT_TRUE(insn.desc->is_alias);
    EXPECT_EQ(static_cast<ShiftKind>(insn.desc->aux),
              ShiftKind::ShlAlias);
    // F6 /1 is the undocumented TEST alias.
    insn = decode_ok({0xf6, 0xc8, 0x55});
    EXPECT_TRUE(insn.desc->is_alias);
}

TEST(Decoder, SregConstraints)
{
    u8 buf[15] = {};
    DecodedInsn insn;
    // mov cs, ax: invalid.
    buf[0] = 0x8e;
    buf[1] = 0xc8; // reg = 1 = CS
    EXPECT_EQ(decode(buf, 15, insn), DecodeStatus::Invalid);
    // mov sreg6, ax: invalid.
    buf[1] = 0xf0; // reg = 6
    EXPECT_EQ(decode(buf, 15, insn), DecodeStatus::Invalid);
    // mov ss, ax: fine.
    buf[1] = 0xd0; // reg = 2 = SS
    EXPECT_EQ(decode(buf, 15, insn), DecodeStatus::Ok);
}

TEST(Decoder, TwoByteOpcodes)
{
    DecodedInsn insn = decode_ok({0x0f, 0xb4, 0x00}); // lfs eax,[eax]
    EXPECT_EQ(insn.desc->op, Op::Lfs);
    insn = decode_ok({0x0f, 0x01, 0x15, 0, 0x7f, 0, 0}); // lgdt
    EXPECT_EQ(insn.desc->op, Op::Lgdt);
    insn = decode_ok({0x0f, 0x32}); // rdmsr
    EXPECT_EQ(insn.desc->op, Op::Rdmsr);
    // lgdt with register operand: invalid.
    u8 buf[15] = {0x0f, 0x01, 0xd0};
    DecodedInsn bad;
    EXPECT_EQ(decode(buf, 15, bad), DecodeStatus::Invalid);
}

TEST(Decoder, TooLongInstruction)
{
    // 4 prefixes + c7 05 disp32 imm32 = 4 + 2 + 4 + 4 = 14: fine.
    u8 ok_buf[15] = {0x26, 0x2e, 0x36, 0x3e, 0xc7, 0x05,
                     1, 2, 3, 4, 5, 6, 7, 8};
    DecodedInsn insn;
    EXPECT_EQ(decode(ok_buf, 15, insn), DecodeStatus::Ok);
    EXPECT_EQ(insn.length, 14u);
    // 0f ba /4 with 4 prefixes: 4+2+modrm+disp32+imm8 = 12: also ok;
    // but an artificial overrun via truncated buffer reports TooLong.
    u8 trunc[4] = {0xc7, 0x05, 1, 2};
    EXPECT_EQ(decode(trunc, 4, insn), DecodeStatus::TooLong);
}

TEST(Assembler, RoundTripsThroughDecoder)
{
    Assembler a(0x1000);
    a.mov_r32_imm32(kEax, 0x12345678);
    a.mov_sreg_r16(kSs, kEax);
    a.mov_mem_imm32(0x00208055, 0xdeadbeef);
    a.mov_mem_imm8(0x00208055, 0x13);
    a.mov_mem_r32(0x1234, kEdx);
    a.mov_r32_mem(kEcx, 0x1234);
    a.push_imm32(7);
    a.push_r32(kEbx);
    a.pop_r32(kEsi);
    a.pushfd();
    a.popfd();
    a.lgdt(0x7f00);
    a.lidt(0x7f08);
    a.mov_cr_r32(0, kEax);
    a.mov_r32_cr(kEax, 3);
    a.wrmsr();
    a.nop();
    a.jmp_abs(0x2000);
    a.hlt();

    // Decode the whole stream; every instruction must decode Ok and
    // lengths must chain exactly.
    const std::vector<u8> &code = a.bytes();
    std::size_t pos = 0;
    int count = 0;
    while (pos < code.size()) {
        u8 buf[kMaxInsnLength] = {};
        const std::size_t n =
            std::min<std::size_t>(kMaxInsnLength, code.size() - pos);
        std::memcpy(buf, code.data() + pos, n);
        DecodedInsn insn;
        ASSERT_EQ(decode(buf, kMaxInsnLength, insn), DecodeStatus::Ok)
            << "at offset " << pos;
        pos += insn.length;
        ++count;
    }
    EXPECT_EQ(pos, code.size());
    EXPECT_EQ(count, 19);
}

TEST(Assembler, JmpAbsRelocation)
{
    Assembler a(0x1000);
    a.nop();
    a.jmp_abs(0x2000);
    DecodedInsn insn;
    u8 buf[kMaxInsnLength] = {};
    std::memcpy(buf, a.bytes().data() + 1, a.bytes().size() - 1);
    ASSERT_EQ(decode(buf, kMaxInsnLength, insn), DecodeStatus::Ok);
    // Target = insn_end + rel = (0x1001 + 5) + imm.
    EXPECT_EQ(0x1001 + 5 + insn.imm, 0x2000u);
}

TEST(Snapshot, DiffFindsFieldAndMemoryChanges)
{
    GuestRam ram;
    ram.reset(zero_image());
    Snapshot a, b;
    ram.snapshot_into(a.ram);
    b.ram = a.ram;
    EXPECT_TRUE(diff_snapshots(a, b).empty());

    b.cpu.gpr[kEax] = 42;
    ram.write8(0x1234, 1);
    ram.write8(0x1235, 2);
    ram.snapshot_into(b.ram);
    SnapshotDiff d = diff_snapshots(a, b);
    EXPECT_FALSE(d.empty());
    ASSERT_EQ(d.cpu.size(), 1u);
    EXPECT_EQ(d.cpu[0].field, "eax");
    EXPECT_EQ(d.mem_total, 2u);
    EXPECT_NE(d.to_string().find("eax"), std::string::npos);
}

TEST(InsnTable, LookupConsistency)
{
    // Every row must be findable through lookup_insn.
    const auto &table = insn_table();
    EXPECT_GT(table.size(), 250u);
    for (std::size_t i = 0; i < table.size(); ++i) {
        const InsnDesc &d = table[i];
        const u8 reg =
            d.group_reg >= 0 ? static_cast<u8>(d.group_reg) : 0;
        const int found = lookup_insn(d.opcode, reg);
        ASSERT_GE(found, 0);
        // Grouped opcodes resolve to the row with that reg value.
        if (d.group_reg >= 0) {
            EXPECT_EQ(found, static_cast<int>(i));
        }
    }
    // All rows of one opcode agree on has_modrm.
    for (const InsnDesc &d : table) {
        EXPECT_EQ(first_entry(d.opcode)->has_modrm, d.has_modrm)
            << d.mnemonic;
    }
}

} // namespace
} // namespace pokeemu::arch
