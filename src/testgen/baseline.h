/**
 * @file
 * Baseline-state initialization (paper §4.1).
 *
 * The baseline is "a minimalist execution environment necessary for
 * successfully running all possible tests": 32-bit protected mode with
 * paging enabled, a flat GDT, a 4-GiB-to-4-MiB linearly repeating page
 * table, and an IDT whose handlers halt. Following the paper, the
 * descriptor tables and page tables are part of the bootable image
 * (data), and a short baseline-initializer code sequence loads them
 * and enables paging; the test program is appended at
 * layout::kPhysTestCode.
 *
 * Layout choices mirror the paper's example (Figure 5): the stack
 * segment is GDT entry 10 (selector 0x50), so generated tests that
 * poke "gdt 10" look exactly like the paper's.
 */
#ifndef POKEEMU_TESTGEN_BASELINE_H
#define POKEEMU_TESTGEN_BASELINE_H

#include <vector>

#include "arch/guest_ram.h"
#include "arch/layout.h"
#include "arch/state.h"

namespace pokeemu::testgen {

/// @name Baseline selectors.
/// @{
constexpr u16 kCodeSelector = 0x08; ///< GDT entry 1.
constexpr u16 kDataSelector = 0x10; ///< GDT entry 2.
constexpr u16 kStackSelector = 0x50; ///< GDT entry 10 (as in Fig. 5).
/// @}

/** EFLAGS established by the baseline initializer. */
constexpr u32 kBaselineEflags = 0x202; // IF=1 + fixed bit.

/**
 * The bootable memory image: GDT/IDT/page tables as data, the halting
 * handler stub, the baseline initializer code, and a lone hlt at the
 * test-code address (tests overwrite it).
 */
std::vector<u8> make_baseline_ram();

/**
 * The baseline image as the process-wide shared base every test run
 * resets onto (arch::GuestRam). Built once; never written.
 */
const arch::RamImage &baseline_ram_template();

/**
 * CPU state as the boot loader leaves it: protected mode, flat
 * segments, paging off, EIP at the baseline initializer.
 */
arch::CpuState make_reset_state();

/**
 * The machine state after the baseline initializer has run, computed
 * once by executing the initializer on the hardware model. This is
 * the concrete state the exploration stage uses (paper §3.3.1) and
 * the state every backend must reach identically (asserted by tests).
 */
const arch::CpuState &baseline_cpu_state();

/**
 * Physical memory after the baseline initializer has run: the shared
 * template (baseline_ram_template) plus the pages the initializer
 * wrote.
 */
const arch::RamView &baseline_ram_after_init();

/**
 * Build a full bootable image with @p test_program installed at
 * layout::kPhysTestCode.
 */
std::vector<u8> make_test_image(const std::vector<u8> &test_program);

} // namespace pokeemu::testgen

#endif // POKEEMU_TESTGEN_BASELINE_H
