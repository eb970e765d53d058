/**
 * @file
 * Backend tests: IR-decoder/table-decoder agreement, identical
 * baseline boot on all three backends, Hi-Fi vs hardware differential
 * execution on random instruction streams, one targeted test per
 * seeded Lo-Fi bug (failure injection, paper §6.2), and fetch and
 * decode faults on all three backends.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "arch/assembler.h"
#include "arch/paging.h"
#include "arch/descriptors.h"
#include "backend/direct_cpu.h"
#include "hifi/decoder_ir.h"
#include "hifi/hifi_emulator.h"
#include "ir/eval.h"
#include "lofi/lofi_emulator.h"
#include "support/rng.h"
#include "testgen/baseline.h"

namespace pokeemu {
namespace {

namespace layout = arch::layout;
using arch::CpuState;
using arch::Snapshot;

/** Maps the decoder scratch region for concrete IR-decoder runs. */
class BufMemory : public ir::ConcreteMemory
{
  public:
    std::array<u8, 0x100> data{};

    u64
    load(u32 addr, unsigned size) override
    {
        assert(addr >= layout::kInsnBufBase &&
               addr + size <= layout::kInsnBufBase + data.size());
        u64 v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<u64>(
                     data[addr - layout::kInsnBufBase + i])
                 << (8 * i);
        return v;
    }

    void
    store(u32 addr, unsigned size, u64 value) override
    {
        assert(addr >= layout::kInsnBufBase &&
               addr + size <= layout::kInsnBufBase + data.size());
        for (unsigned i = 0; i < size; ++i)
            data[addr - layout::kInsnBufBase + i] =
                static_cast<u8>(value >> (8 * i));
    }
};

/** What the IR decoder made of a 15-byte buffer: its halt code and
 *  the number of bytes it consumed (decoder_scratch::kPos). */
struct IrDecode
{
    u32 code = 0;
    u32 consumed = 0;
};

IrDecode
ir_decode(const ir::Program &decoder, const u8 *bytes)
{
    BufMemory mem;
    std::memcpy(mem.data.data(), bytes, arch::kMaxInsnLength);
    const ir::RunResult r = ir::run_concrete(decoder, mem);
    EXPECT_EQ(r.status, ir::RunStatus::Halted);
    return {r.halt_code,
            static_cast<u32>(mem.load(hifi::decoder_scratch::kPos, 4))};
}

/// @name What one Hi-Fi step makes of a fetch: a table row (>= 0) or
/// the fault it raises; kPanic when the IR-decoder step's cross-check
/// against arch::decode fails.
/// @{
constexpr int kFetchFault = -1;
constexpr int kGpFault = -2;
constexpr int kUdFault = -3;
constexpr int kPanic = -4;
/// @}

/** A step that decodes with the explored IR decoder on the
 *  zero-padded fetch: its halt code, then its position against the
 *  bytes fetched, then arch::decode as a cross-check. @p ir is the IR
 *  decoder's result on that buffer. */
int
ir_step_verdict(const IrDecode &ir, const u8 *buf, unsigned avail)
{
    const bool fetch_fault = avail < arch::kMaxInsnLength;
    if (ir.code == hifi::kDecodeTooLong ||
        (ir.consumed > avail && fetch_fault)) {
        return fetch_fault ? kFetchFault : kGpFault;
    }
    if (ir.code == hifi::kDecodeInvalid)
        return kUdFault;
    arch::DecodedInsn insn;
    if (arch::decode(buf, avail, insn) != arch::DecodeStatus::Ok ||
        insn.table_index != static_cast<int>(ir.code)) {
        return kPanic;
    }
    return insn.table_index;
}

/** The replay step's decode (arch::fetch_insn): arch::decode alone. */
int
table_step_verdict(const u8 *buf, unsigned avail)
{
    arch::DecodedInsn insn;
    switch (arch::decode(buf, avail, insn)) {
      case arch::DecodeStatus::Ok:
        return insn.table_index;
      case arch::DecodeStatus::Invalid:
        return kUdFault;
      case arch::DecodeStatus::TooLong:
        break;
    }
    return avail < arch::kMaxInsnLength ? kFetchFault : kGpFault;
}

/**
 * Stage 1 explores the IR decoder; replay decodes with arch::decode.
 * Both steps must reach the same verdict on every input, at full
 * availability and at every fetch cut short inside the bytes the IR
 * decoder consumed; at full availability a decoded row's length must
 * also be what the IR decoder consumed.
 */
TEST(DecoderIr, AgreesWithTableDecoderOnRandomBytes)
{
    const ir::Program decoder = hifi::build_decoder_program();
    constexpr unsigned kFull = arch::kMaxInsnLength;
    std::vector<std::array<u8, kFull>> inputs;

    Rng rng(2024);
    for (int trial = 0; trial < 4000; ++trial) {
        std::array<u8, kFull> buf{};
        if (trial % 2 == 0) {
            // Fully random bytes.
            for (auto &b : buf)
                b = static_cast<u8>(rng.next());
        } else {
            // Structured: random table row's opcode plus random tail.
            const auto &table = arch::insn_table();
            const arch::InsnDesc &d =
                table[rng.below(table.size())];
            unsigned p = 0;
            if (rng.below(4) == 0) {
                const u8 prefixes[] = {0x26, 0x2e, 0x36, 0x3e, 0x64,
                                       0x65, 0xf0, 0xf2, 0xf3};
                buf[p++] = prefixes[rng.below(9)];
            }
            if (d.opcode >= 0x100)
                buf[p++] = 0x0f;
            buf[p++] = static_cast<u8>(d.opcode & 0xff);
            for (; p < kFull; ++p)
                buf[p] = static_cast<u8>(rng.next());
        }
        inputs.push_back(buf);
    }
    // Every 1- and 2-byte prefix, with a zero tail and with a seeded
    // random tail.
    Rng tails(2025);
    for (unsigned prefix_len = 1; prefix_len <= 2; ++prefix_len) {
        for (u32 prefix = 0; prefix < (1u << (8 * prefix_len));
             ++prefix) {
            for (const bool random_tail : {false, true}) {
                std::array<u8, kFull> buf{};
                for (unsigned i = 0; i < prefix_len; ++i)
                    buf[i] = static_cast<u8>(prefix >> (8 * i));
                for (unsigned i = prefix_len; random_tail && i < kFull;
                     ++i) {
                    buf[i] = static_cast<u8>(tails.next());
                }
                inputs.push_back(buf);
            }
        }
    }

    u64 checked = 0, mismatches = 0;
    const auto expect_same = [&](const std::array<u8, kFull> &input,
                                 unsigned avail, int ir_verdict,
                                 int verdict) {
        ++checked;
        if (ir_verdict == verdict || ++mismatches > 10)
            return;
        std::string hex;
        for (u8 b : input) {
            char text[4];
            std::snprintf(text, sizeof text, "%02x ", b);
            hex += text;
        }
        ADD_FAILURE() << "bytes " << hex << "avail " << avail
                      << ": IR-decoder step " << ir_verdict
                      << ", table-decoder step " << verdict;
    };
    for (const std::array<u8, kFull> &input : inputs) {
        const IrDecode full = ir_decode(decoder, input.data());
        expect_same(input, kFull,
                    ir_step_verdict(full, input.data(), kFull),
                    table_step_verdict(input.data(), kFull));
        arch::DecodedInsn insn;
        if (arch::decode(input.data(), kFull, insn) ==
                arch::DecodeStatus::Ok &&
            insn.length != full.consumed && ++mismatches <= 10) {
            ADD_FAILURE() << arch::to_string(insn) << ": length "
                          << unsigned{insn.length} << ", IR decoder "
                          << full.consumed;
        }
        for (unsigned avail = 0;
             avail < std::min(full.consumed, kFull); ++avail) {
            // The fetch stopped at a fault; the rest stays zero.
            std::array<u8, kFull> buf{};
            std::memcpy(buf.data(), input.data(), avail);
            expect_same(input, avail,
                        ir_step_verdict(ir_decode(decoder, buf.data()),
                                        buf.data(), avail),
                        table_step_verdict(buf.data(), avail));
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << checked << " verdicts";
}

// ---------------------------------------------------------------------
// Baseline boot.
// ---------------------------------------------------------------------

TEST(Baseline, AllBackendsReachTheSameState)
{
    const CpuState reset = testgen::make_reset_state();
    const std::vector<u8> image = testgen::make_baseline_ram();

    backend::DirectCpu hw(backend::hardware_behavior());
    hw.reset(reset, image);
    EXPECT_EQ(hw.run(1024), backend::StopReason::Halted);

    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    lofi.reset(reset, image);
    EXPECT_EQ(lofi.run(1024), backend::StopReason::Halted);

    hifi::HiFiEmulator hifi_emu;
    hifi_emu.reset(reset, image);
    EXPECT_EQ(hifi_emu.run(1024), hifi::StopReason::Halted);

    const auto d1 = arch::diff_snapshots(hw.snapshot(),
                                         lofi.snapshot());
    EXPECT_TRUE(d1.empty()) << d1.to_string();
    const auto d2 = arch::diff_snapshots(hw.snapshot(),
                                         hifi_emu.snapshot());
    EXPECT_TRUE(d2.empty()) << d2.to_string();

    // And the cached baseline state matches the booted one.
    const CpuState &base = testgen::baseline_cpu_state();
    EXPECT_EQ(base.cr0, arch::kCr0Pe | arch::kCr0Pg);
    EXPECT_EQ(base.cr3, layout::kPhysPageDir);
    EXPECT_EQ(base.eip, layout::kPhysTestCode);
    EXPECT_EQ(base.gpr[arch::kEsp], layout::kBaselineEsp);
    EXPECT_EQ(base.eflags, testgen::kBaselineEflags);
    EXPECT_EQ(base.seg[arch::kSs].selector, testgen::kStackSelector);
}

// ---------------------------------------------------------------------
// Hi-Fi vs hardware differential execution.
// ---------------------------------------------------------------------

/** Options that align the Hi-Fi emulator with the hardware model so
 *  random differential streams must agree exactly. */
hifi::SemanticsOptions
aligned_hifi_options()
{
    hifi::SemanticsOptions o;
    o.hifi_far_fetch_order = false;
    return o;
}

backend::Behavior
aligned_hw_behavior()
{
    backend::Behavior b = backend::hardware_behavior();
    b.shift_clears_af = true; // Match the Hi-Fi IR's AF choice.
    return b;
}

/** One differential trial: same state/image/budget on both backends. */
void
run_differential(const CpuState &start, const std::vector<u8> &image,
                 u64 budget, const char *label)
{
    backend::DirectCpu hw(aligned_hw_behavior());
    hw.reset(start, image);
    hw.run(budget);

    hifi::HiFiEmulator emu(aligned_hifi_options());
    emu.reset(start, image);
    emu.run(budget);

    const auto diff = arch::diff_snapshots(hw.snapshot(),
                                           emu.snapshot());
    EXPECT_TRUE(diff.empty())
        << label << "\n"
        << diff.to_string() << "hw:\n"
        << arch::to_string(hw.cpu()) << "hifi:\n"
        << arch::to_string(emu.cpu());
}

TEST(Differential, RandomByteStreams)
{
    Rng rng(77);
    for (int trial = 0; trial < 60; ++trial) {
        CpuState start = testgen::baseline_cpu_state();
        std::vector<u8> image = testgen::baseline_ram_after_init().to_bytes();
        for (unsigned r = 0; r < arch::kNumGprs; ++r) {
            if (r != arch::kEsp)
                start.gpr[r] = static_cast<u32>(rng.next());
        }
        for (int i = 0; i < 64; ++i)
            image[layout::kPhysTestCode + i] =
                static_cast<u8>(rng.next());
        run_differential(start, image, 16,
                         ("random trial " + std::to_string(trial))
                             .c_str());
    }
}

TEST(Differential, StructuredInstructionStreams)
{
    Rng rng(99);
    const auto &table = arch::insn_table();
    for (int trial = 0; trial < 120; ++trial) {
        CpuState start = testgen::baseline_cpu_state();
        std::vector<u8> image = testgen::baseline_ram_after_init().to_bytes();
        for (unsigned r = 0; r < arch::kNumGprs; ++r) {
            if (r != arch::kEsp)
                start.gpr[r] = static_cast<u32>(
                    rng.flip() ? rng.next()
                               : rng.below(0x400000));
        }
        // Random-but-plausible flags.
        start.eflags = (start.eflags & ~0xcd5u) |
                       (static_cast<u32>(rng.next()) & 0xcd5);

        unsigned pos = 0;
        u8 *code = &image[layout::kPhysTestCode];
        for (int k = 0; k < 10 && pos < 100; ++k) {
            const arch::InsnDesc &d = table[rng.below(table.size())];
            u8 buf[arch::kMaxInsnLength] = {};
            unsigned p = 0;
            if (d.opcode >= 0x100)
                buf[p++] = 0x0f;
            buf[p++] = static_cast<u8>(d.opcode & 0xff);
            if (d.has_modrm) {
                u8 modrm = static_cast<u8>(rng.next());
                if (d.group_reg >= 0) {
                    modrm = static_cast<u8>(
                        (modrm & ~0x38) | (d.group_reg << 3));
                }
                buf[p++] = modrm;
            }
            for (; p < arch::kMaxInsnLength; ++p)
                buf[p] = static_cast<u8>(rng.next());
            arch::DecodedInsn insn;
            if (arch::decode(buf, sizeof buf, insn) !=
                arch::DecodeStatus::Ok) {
                continue;
            }
            if (pos + insn.length > 100)
                break;
            std::memcpy(code + pos, insn.bytes, insn.length);
            pos += insn.length;
        }
        code[pos] = 0xf4; // hlt terminator.
        run_differential(start, image, 12,
                         ("structured trial " + std::to_string(trial))
                             .c_str());
    }
}

// ---------------------------------------------------------------------
// Seeded Lo-Fi bugs: each individually observable (failure injection).
// ---------------------------------------------------------------------

/** Run a test program image on a backend from the baseline state. */
Snapshot
run_on(backend::DirectCpu &cpu, const CpuState &start,
       const std::vector<u8> &image, u64 budget = 256)
{
    cpu.reset(start, image);
    cpu.run(budget);
    return cpu.snapshot();
}

/** Build an image whose test program is @p assemble's output + hlt. */
template <typename Fn>
std::vector<u8>
test_image(Fn assemble)
{
    arch::Assembler a(layout::kPhysTestCode);
    assemble(a);
    a.hlt();
    std::vector<u8> image = testgen::baseline_ram_after_init().to_bytes();
    std::copy(a.bytes().begin(), a.bytes().end(),
              image.begin() + layout::kPhysTestCode);
    return image;
}

void
unmap_page(std::vector<u8> &image, u32 vpage)
{
    const u32 pte = layout::kPhysPageTable + 4 * (vpage & 0x3ff);
    image[pte] &= ~arch::kPtePresent;
}

/** Point @p vpage's PTE at physical page @p frame, keeping its flags. */
void
remap_page(std::vector<u8> &image, u32 vpage, u32 frame)
{
    const u32 pte = layout::kPhysPageTable + 4 * (vpage & 0x3ff);
    for (unsigned i = 1; i < 4; ++i) {
        const u8 mask = static_cast<u8>(arch::kPteFrameMask >> (8 * i));
        image[pte + i] = static_cast<u8>((image[pte + i] & ~mask) |
                                         ((frame >> (8 * i)) & mask));
    }
}

TEST(SeededBugs, LeaveNonAtomicCorruptsEsp)
{
    // EBP points into an unmapped page: hardware leaves ESP intact on
    // the #PF; the Lo-Fi emulator has already updated it (paper §6.2).
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEbp, 0x300000);
        a.raw({0xc9}); // leave
    });
    unmap_page(image, 0x300);
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    const Snapshot s_lofi = run_on(lofi, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s_lofi.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s_hw.cpu.gpr[arch::kEsp], layout::kBaselineEsp);
    EXPECT_EQ(s_lofi.cpu.gpr[arch::kEsp], 0x300004u);
}

TEST(SeededBugs, CmpxchgSkipsWriteCheck)
{
    // Destination on a read-only page with CR0.WP set and a failing
    // compare: hardware still faults (it always writes back); the
    // Lo-Fi emulator silently updates EAX (paper §6.2).
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEax, 0x11111111);
        a.mov_r32_imm32(arch::kEbx, 0x300000);
        a.mov_r32_imm32(arch::kEcx, 0x22222222);
        a.raw({0x0f, 0xb1, 0x0b}); // cmpxchg [ebx], ecx
    });
    // Make page 0x300 read-only; put a known value there.
    image[layout::kPhysPageTable + 4 * 0x300] &= ~arch::kPteRw;
    image[0x300000] = 0x99;
    CpuState start = testgen::baseline_cpu_state();
    start.cr0 |= arch::kCr0Wp;

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    const Snapshot s_lofi = run_on(lofi, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s_hw.cpu.gpr[arch::kEax], 0x11111111u);
    EXPECT_EQ(s_lofi.cpu.exception.vector, arch::kExcNone);
    EXPECT_EQ(s_lofi.cpu.gpr[arch::kEax], 0x99u);
}

TEST(SeededBugs, IretPopOrderChangesFaultAddress)
{
    // Stack slots straddle an unmapped/mapped page boundary: the pop
    // order determines which address faults first (paper §6.2 explains
    // why random testing misses this).
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEsp, 0x300ff8);
        a.raw({0xcf}); // iret
    });
    unmap_page(image, 0x300); // esp and esp+4 unmapped; esp+8 mapped.
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    const Snapshot s_lofi = run_on(lofi, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s_lofi.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s_hw.cpu.cr2, 0x300ff8u);   // Innermost first.
    EXPECT_EQ(s_lofi.cpu.cr2, 0x300ffcu); // Outermost first.
}

TEST(SeededBugs, RdmsrInvalidMsr)
{
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEcx, 0x999);
        a.mov_r32_imm32(arch::kEax, 0x12345678);
        a.raw({0x0f, 0x32}); // rdmsr
    });
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    const Snapshot s_lofi = run_on(lofi, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcGp);
    EXPECT_EQ(s_lofi.cpu.exception.vector, arch::kExcNone);
    EXPECT_EQ(s_lofi.cpu.gpr[arch::kEax], 0u);
}

TEST(SeededBugs, AliasEncodingRejected)
{
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEax, 1);
        a.raw({0xc0, 0xf0, 0x03}); // shl al, 3 via the /6 alias.
    });
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    const Snapshot s_lofi = run_on(lofi, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcNone);
    EXPECT_EQ(s_hw.cpu.gpr[arch::kEax] & 0xff, 8u);
    EXPECT_EQ(s_lofi.cpu.exception.vector, arch::kExcUd);
}

TEST(SeededBugs, SegmentLimitNotEnforced)
{
    // Load DS from a descriptor with limit 0, then write past it:
    // hardware raises #GP, the Lo-Fi emulator writes happily.
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEax, 0x18); // GDT entry 3.
        a.mov_sreg_r16(arch::kDs, arch::kEax);
        a.mov_mem_imm8(0x100, 0xab);
    });
    arch::Descriptor d;
    d.base = 0;
    d.limit_raw = 0; // One byte only.
    d.access = 0x93;
    d.granularity = false;
    d.db = true;
    arch::encode_descriptor(d, &image[layout::kPhysGdt + 8 * 3]);
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    const Snapshot s_lofi = run_on(lofi, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcGp);
    EXPECT_EQ(s_lofi.cpu.exception.vector, arch::kExcNone);
    EXPECT_EQ(s_lofi.ram[0x100], 0xab);
    EXPECT_NE(s_hw.ram[0x100], 0xab);
}

TEST(SeededBugs, AccessedFlagNotSet)
{
    // Load DS from a fresh descriptor whose accessed bit is clear:
    // hardware sets it in the GDT, the Lo-Fi emulator does not.
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEax, 0x18);
        a.mov_sreg_r16(arch::kDs, arch::kEax);
    });
    arch::Descriptor d = arch::make_flat_descriptor(0x92); // Not accessed.
    arch::encode_descriptor(d, &image[layout::kPhysGdt + 8 * 3]);
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu lofi(lofi::behavior_from_bugs({}));
    const Snapshot s_lofi = run_on(lofi, start, image);

    EXPECT_EQ(s_hw.ram[layout::kPhysGdt + 8 * 3 + 5] & 1, 1);
    EXPECT_EQ(s_lofi.ram[layout::kPhysGdt + 8 * 3 + 5] & 1, 0);
}

TEST(SeededBugs, HiFiFarFetchOrderDiffersFromHardware)
{
    // lfs with the offset dword mapped and the selector word unmapped:
    // hardware (offset first) faults at the selector; the Bochs-order
    // Hi-Fi (selector first) faults at the selector too — so use the
    // converse: offset unmapped, selector mapped.
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEbx, 0x300ffc);
        a.raw({0x0f, 0xb4, 0x0b}); // lfs ecx, [ebx]
    });
    unmap_page(image, 0x300); // Offset at 0x300ffc unmapped;
                              // selector at 0x301000 mapped.
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);

    hifi::HiFiEmulator emu; // Default: Bochs fetch order.
    emu.reset(start, image);
    emu.run(256);
    const Snapshot s_hifi = emu.snapshot();

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s_hifi.cpu.exception.vector, arch::kExcPf);
    // Both fault on the offset page eventually, but the hardware
    // faults before reading the selector page while the Hi-Fi order
    // reads the selector page first — observable via the accessed bit
    // of the selector's page table entry.
    const u32 pte_301 = layout::kPhysPageTable + 4 * 0x301;
    EXPECT_FALSE(s_hw.ram[pte_301] & arch::kPteAccessed);
    EXPECT_TRUE(s_hifi.ram[pte_301] & arch::kPteAccessed);
}

// ---------------------------------------------------------------------
// Fetch and decode faults: Hi-Fi, hardware and an unbugged Lo-Fi agree
// on instructions that do not decode or straddle a fetch boundary.
// ---------------------------------------------------------------------

/** Run @p start on @p image on all three backends; Hi-Fi and
 *  BugConfig::none() Lo-Fi must end in hardware's snapshot, which is
 *  returned. */
Snapshot
run_three_way(const CpuState &start, const std::vector<u8> &image)
{
    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);

    lofi::LoFiEmulator lofi_emu(lofi::BugConfig::none());
    lofi_emu.reset(start, image);
    lofi_emu.run(256);
    const auto d_lofi = arch::diff_snapshots(s_hw, lofi_emu.snapshot());
    EXPECT_TRUE(d_lofi.empty()) << "lofi:\n" << d_lofi.to_string();

    hifi::HiFiEmulator hifi_emu;
    hifi_emu.reset(start, image);
    EXPECT_EQ(hifi_emu.run(256), hifi::StopReason::Exception);
    const auto d_hifi = arch::diff_snapshots(s_hw, hifi_emu.snapshot());
    EXPECT_TRUE(d_hifi.empty()) << "hifi:\n" << d_hifi.to_string();
    return s_hw;
}

TEST(FetchDecodeFaults, InvalidOpcodeRaisesUd)
{
    // 0f 0b (ud2) is outside the subset.
    const Snapshot s = run_three_way(
        testgen::baseline_cpu_state(),
        test_image([](arch::Assembler &a) { a.raw({0x0f, 0x0b}); }));
    EXPECT_EQ(s.cpu.exception.vector, arch::kExcUd);
    EXPECT_FALSE(s.cpu.exception.has_error_code);
    EXPECT_EQ(s.cpu.eip, layout::kPhysTestCode);
}

TEST(FetchDecodeFaults, PrefixRunLongerThan15Bytes)
{
    // The subset accepts at most arch::kMaxPrefixes prefixes, so a run
    // of sixteen is refused with #UD at its fifth byte, before the
    // 15-byte limit could raise #GP.
    const Snapshot s = run_three_way(
        testgen::baseline_cpu_state(),
        test_image([](arch::Assembler &a) {
            for (int i = 0; i < 16; ++i)
                a.raw({0x26});
            a.raw({0x90});
        }));
    EXPECT_EQ(s.cpu.exception.vector, arch::kExcUd);
    EXPECT_EQ(s.cpu.eip, layout::kPhysTestCode);
}

TEST(FetchDecodeFaults, InstructionCrossingCsLimitRaisesGp)
{
    // nop retires; mov eax, imm32 then has three of its five bytes
    // inside the code segment.
    CpuState start = testgen::baseline_cpu_state();
    ASSERT_EQ(start.seg[arch::kCs].base, 0u);
    start.seg[arch::kCs].limit = start.eip + 3;
    const Snapshot s = run_three_way(
        start, test_image([](arch::Assembler &a) {
            a.raw({0x90});
            a.mov_r32_imm32(arch::kEax, 0x12345678);
        }));
    EXPECT_EQ(s.cpu.exception.vector, arch::kExcGp);
    EXPECT_TRUE(s.cpu.exception.has_error_code);
    EXPECT_EQ(s.cpu.exception.error_code, 0u);
    EXPECT_EQ(s.cpu.eip, layout::kPhysTestCode + 1);
}

TEST(FetchDecodeFaults, InstructionStraddlingUnmappedPageRaisesPf)
{
    // nop fits in the last three mapped bytes and retires; mov eax,
    // imm32 then has two bytes on the mapped page and three on the
    // unmapped one after it.
    const u32 next_page = layout::kPhysTestCode + 0x1000;
    const u32 at = next_page - 3;
    std::vector<u8> image = testgen::baseline_ram_after_init().to_bytes();
    const u8 code[] = {0x90, 0xb8, 0x78, 0x56, 0x34, 0x12};
    std::copy(std::begin(code), std::end(code), image.begin() + at);
    unmap_page(image, next_page >> 12);
    CpuState start = testgen::baseline_cpu_state();
    start.eip = at;
    const Snapshot s = run_three_way(start, image);
    EXPECT_EQ(s.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s.cpu.cr2, next_page);
    EXPECT_EQ(s.cpu.eip, at + 1);
}

TEST(FetchDecodeFaults, InstructionStraddlingRemappedPageReadsItsFrame)
{
    // mov eax, imm32 starts in the last two bytes of the code page and
    // ends on the next page, which is mapped to frame 0x300000; ud2
    // follows there. All three backends share one fetch, so agreement
    // cannot catch a fetch that reads the first page's frame twice:
    // check the values themselves.
    const u32 next_page = layout::kPhysTestCode + 0x1000;
    const u32 at = next_page - 2;
    const u32 frame = 0x300000;
    std::vector<u8> image = testgen::baseline_ram_after_init().to_bytes();
    image[at] = 0xb8;
    image[at + 1] = 0x78;
    const u8 rest[] = {0x56, 0x34, 0x12, 0x0f, 0x0b};
    std::copy(std::begin(rest), std::end(rest), image.begin() + frame);
    remap_page(image, next_page >> 12, frame);
    CpuState start = testgen::baseline_cpu_state();
    start.eip = at;
    const Snapshot s = run_three_way(start, image);
    EXPECT_EQ(s.cpu.gpr[arch::kEax], 0x12345678u);
    EXPECT_EQ(s.cpu.exception.vector, arch::kExcUd);
    EXPECT_EQ(s.cpu.eip, next_page + 3);
}

} // namespace
} // namespace pokeemu
