#include "testgen/baseline.h"

#include "arch/assembler.h"
#include "arch/descriptors.h"
#include "arch/paging.h"
#include "backend/direct_cpu.h"

namespace pokeemu::testgen {

namespace layout = arch::layout;

namespace {

/** Scratch addresses for the lgdt/lidt pseudo-descriptors. */
constexpr u32 kGdtPtrAddr = 0x7f00;
constexpr u32 kIdtPtrAddr = 0x7f08;

void
put32(std::vector<u8> &ram, u32 addr, u32 v)
{
    ram[addr] = static_cast<u8>(v);
    ram[addr + 1] = static_cast<u8>(v >> 8);
    ram[addr + 2] = static_cast<u8>(v >> 16);
    ram[addr + 3] = static_cast<u8>(v >> 24);
}

void
put16(std::vector<u8> &ram, u32 addr, u16 v)
{
    ram[addr] = static_cast<u8>(v);
    ram[addr + 1] = static_cast<u8>(v >> 8);
}

} // namespace

namespace {

std::vector<u8> build_baseline_ram();

} // namespace

const arch::RamImage &
baseline_ram_template()
{
    // The image is immutable; build once (tests run by the thousand
    // and a rebuild per test dominates runtime).
    static const arch::RamImage image =
        arch::make_ram_image(build_baseline_ram());
    return image;
}

std::vector<u8>
make_baseline_ram()
{
    return *baseline_ram_template();
}

namespace {

std::vector<u8>
build_baseline_ram()
{
    std::vector<u8> ram(arch::kPhysMemSize, 0);

    // Page directory: every PDE points at the single page table, so
    // the 4-GiB virtual space maps onto the 4-MiB physical memory,
    // repeating every 4 MiB (paper §4.1).
    for (u32 i = 0; i < 1024; ++i) {
        put32(ram, layout::kPhysPageDir + 4 * i,
              layout::kPhysPageTable | arch::kPtePresent |
                  arch::kPteRw | arch::kPteUser);
    }
    // Page table: linear map of the 4-MiB physical memory, all pages
    // readable/writable and user-accessible.
    for (u32 i = 0; i < 1024; ++i) {
        put32(ram, layout::kPhysPageTable + 4 * i,
              (i << 12) | arch::kPtePresent | arch::kPteRw |
                  arch::kPteUser);
    }

    // IDT: 256 interrupt gates to the halting handler stub. Delivery
    // is abstracted identically on every backend (see DESIGN.md), but
    // the table contents are real data that tests may read or clobber.
    for (u32 v = 0; v < 256; ++v) {
        const u32 e = layout::kPhysIdt + 8 * v;
        put16(ram, e, static_cast<u16>(layout::kPhysHandlerStub));
        put16(ram, e + 2, kCodeSelector);
        ram[e + 4] = 0;
        ram[e + 5] = 0x8e; // Present, DPL0, 32-bit interrupt gate.
        put16(ram, e + 6,
              static_cast<u16>(layout::kPhysHandlerStub >> 16));
    }

    // GDT: null, flat code (1), flat data (2), flat stack data (10).
    // Accessed bits are pre-set so that baseline segment loads do not
    // modify the table (keeps the Lo-Fi accessed-flag bug visible only
    // on test-created descriptors, not as whole-run background noise).
    auto put_desc = [&](unsigned index, u8 access) {
        arch::Descriptor d = arch::make_flat_descriptor(access);
        arch::encode_descriptor(d, &ram[layout::kPhysGdt + 8 * index]);
    };
    put_desc(1, 0x9b);  // code, readable, accessed.
    put_desc(2, 0x93);  // data, writable, accessed.
    put_desc(10, 0x93); // stack data, writable, accessed.

    // lgdt/lidt operands.
    put16(ram, kGdtPtrAddr, layout::kGdtEntries * 8 - 1);
    put32(ram, kGdtPtrAddr + 2, layout::kPhysGdt);
    put16(ram, kIdtPtrAddr, 256 * 8 - 1);
    put32(ram, kIdtPtrAddr + 2, layout::kPhysIdt);

    // Halting handler stub.
    ram[layout::kPhysHandlerStub] = 0xf4; // hlt

    // Baseline initializer code.
    arch::Assembler a(layout::kPhysBaselineCode);
    a.lgdt(kGdtPtrAddr);
    a.lidt(kIdtPtrAddr);
    a.mov_r32_imm32(arch::kEax, layout::kPhysPageDir);
    a.mov_cr_r32(3, arch::kEax);
    a.mov_r32_imm32(arch::kEax, arch::kCr0Pe | arch::kCr0Pg);
    a.mov_cr_r32(0, arch::kEax);
    a.mov_r32_imm32(arch::kEax, kDataSelector);
    a.mov_sreg_r16(arch::kDs, arch::kEax);
    a.mov_sreg_r16(arch::kEs, arch::kEax);
    a.mov_sreg_r16(arch::kFs, arch::kEax);
    a.mov_sreg_r16(arch::kGs, arch::kEax);
    a.mov_r32_imm32(arch::kEax, kStackSelector);
    a.mov_sreg_r16(arch::kSs, arch::kEax);
    a.mov_r32_imm32(arch::kEsp, layout::kBaselineEsp);
    a.push_imm32(kBaselineEflags);
    a.popfd();
    // Scrub the scratch register so the baseline state is neutral.
    a.mov_r32_imm32(arch::kEax, 0);
    a.jmp_abs(layout::kPhysTestCode);
    const std::vector<u8> &code = a.bytes();
    std::copy(code.begin(), code.end(),
              ram.begin() + layout::kPhysBaselineCode);

    // Default test program: halt immediately.
    ram[layout::kPhysTestCode] = 0xf4;
    return ram;
}

} // namespace

arch::CpuState
make_reset_state()
{
    arch::CpuState c;
    c.eip = layout::kPhysBaselineCode;
    c.eflags = arch::kFlagFixed1;
    c.cr0 = arch::kCr0Pe;
    c.gpr[arch::kEsp] = 0x7000;

    const arch::Descriptor code = arch::make_flat_descriptor(0x9b);
    const arch::Descriptor data = arch::make_flat_descriptor(0x93);
    c.seg[arch::kCs] = arch::make_segment_reg(kCodeSelector, code);
    for (unsigned s : {arch::kDs, arch::kEs, arch::kSs, arch::kFs,
                       arch::kGs}) {
        c.seg[s] = arch::make_segment_reg(kDataSelector, data);
    }
    return c;
}

namespace {

struct BaselineResult
{
    arch::CpuState cpu;
    arch::RamView ram;
};

const BaselineResult &
baseline_result()
{
    static const BaselineResult result = [] {
        backend::DirectCpu hw(backend::hardware_behavior());
        hw.reset(make_reset_state(), baseline_ram_template(), 0, {});
        // Run the initializer: it ends by jumping to the default test
        // program, whose hlt stops execution.
        const auto stop = hw.run(1024);
        if (stop != backend::StopReason::Halted)
            // Construction-time invariant shared by every unit of
            // work, not attributable to one. lint: allow-panic
            panic("baseline initializer did not halt cleanly");
        BaselineResult r{hw.cpu(), hw.snapshot().ram};
        // The state we hand to exploration is the state at the test
        // program's entry: un-halt and rewind EIP onto the test code.
        r.cpu.halted = 0;
        r.cpu.eip = layout::kPhysTestCode;
        return r;
    }();
    return result;
}

} // namespace

const arch::CpuState &
baseline_cpu_state()
{
    return baseline_result().cpu;
}

const arch::RamView &
baseline_ram_after_init()
{
    return baseline_result().ram;
}

std::vector<u8>
make_test_image(const std::vector<u8> &test_program)
{
    std::vector<u8> ram = make_baseline_ram();
    assert(layout::kPhysTestCode + test_program.size() <= ram.size());
    std::copy(test_program.begin(), test_program.end(),
              ram.begin() + layout::kPhysTestCode);
    return ram;
}

} // namespace pokeemu::testgen
