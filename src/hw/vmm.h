/**
 * @file
 * The hardware oracle behind a VMM-style harness (the paper's
 * KVM-based setup, §5.2).
 *
 * The paper runs tests on a real Intel Core i5 supervised by a
 * modified KVM: guest instructions execute natively, and the VMM
 * intercepts traps (exceptions, halts, interrupts) after the baseline
 * is initialized, snapshots the guest CPU + physical memory, and can
 * reset the guest between tests without rebooting the machine. Here
 * the "hardware" is the golden DirectCpu model (DESIGN.md §2) and the
 * Vmm provides the same supervision interface: trap classification,
 * snapshot-on-stop, and cheap guest reset across many tests.
 */
#ifndef POKEEMU_HW_VMM_H
#define POKEEMU_HW_VMM_H

#include "backend/direct_cpu.h"

namespace pokeemu::hw {

/** What the VMM intercepted to end a test (paper §5.2 trap classes). */
enum class TrapKind : u8 {
    Halt,       ///< Guest executed hlt.
    Exception,  ///< A fault would be injected into the guest.
    Timeout,    ///< Budget exhausted (runaway guard).
};

struct GuestRun
{
    TrapKind trap = TrapKind::Timeout;
    arch::Snapshot snapshot;
    u64 insns_executed = 0;
};

/** See file comment. */
class Vmm
{
  public:
    Vmm() : guest_(backend::hardware_behavior()) {}

    /**
     * Reset the guest to @p cpu and to memory @p base with @p code
     * installed at @p code_addr (backend::DirectCpu::reset), run until
     * a trap, and snapshot into @p out's reusable buffers. Many tests
     * can be run back-to-back on the same Vmm (the paper's "multiple
     * tests can be run without having to reset the machine
     * physically"); on one base, a reset copies back only the pages
     * the last test wrote.
     */
    void run_test_into(const arch::CpuState &cpu,
                       const arch::RamImage &base, u32 code_addr,
                       std::span<const u8> code, u64 max_insns,
                       GuestRun &out);

    /// @name Supervision statistics.
    /// @{
    u64 tests_run() const { return tests_; }
    u64 halt_traps() const { return halts_; }
    u64 exception_traps() const { return exceptions_; }
    /// @}

    /** Enable cycle accounting on the guest (timing/cost_model.h);
     *  per-run totals then ride along in GuestRun::snapshot. */
    void set_cycle_accounting(bool on)
    {
        guest_.set_cycle_accounting(on);
    }

  private:
    backend::DirectCpu guest_;
    u64 tests_ = 0;
    u64 halts_ = 0;
    u64 exceptions_ = 0;
};

} // namespace pokeemu::hw

#endif // POKEEMU_HW_VMM_H
