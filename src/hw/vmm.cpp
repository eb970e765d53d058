#include "hw/vmm.h"

namespace pokeemu::hw {

void
Vmm::run_test_into(const arch::CpuState &cpu, const arch::RamImage &base,
                   u32 code_addr, std::span<const u8> code, u64 max_insns,
                   GuestRun &out)
{
    ++tests_;
    guest_.reset(cpu, base, code_addr, code);
    switch (guest_.run(max_insns)) {
      case backend::StopReason::Halted:
        out.trap = TrapKind::Halt;
        ++halts_;
        break;
      case backend::StopReason::Exception:
        out.trap = TrapKind::Exception;
        ++exceptions_;
        break;
      case backend::StopReason::InsnLimit:
        out.trap = TrapKind::Timeout;
        break;
    }
    guest_.snapshot_into(out.snapshot);
    out.insns_executed = guest_.insn_count();
}

} // namespace pokeemu::hw
