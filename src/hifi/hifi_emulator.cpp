#include "hifi/hifi_emulator.h"

#include "arch/fetch.h"

namespace pokeemu::hifi {

namespace layout = arch::layout;

HiFiEmulator::HiFiEmulator(SemanticsOptions options) : options_(options) {}

HiFiEmulator::~HiFiEmulator() = default;

void
HiFiEmulator::reset(const arch::CpuState &cpu, const arch::RamImage &base,
                    u32 code_addr, std::span<const u8> code)
{
    arch::pack_cpu_state(cpu, state_.data());
    ram_.reset(base, code_addr, code);
    insn_count_ = 0;
    cycles_ = 0;
}

void
HiFiEmulator::reset(const arch::CpuState &cpu, const std::vector<u8> &ram)
{
    reset(cpu, arch::make_ram_image(ram), 0, {});
}

void
HiFiEmulator::charge(const arch::DecodedInsn &insn, u32 halt_code)
{
    if (!cycle_accounting_)
        return;
    cycles_ += timing::cost_model().cost_for(insn).charge(
        (halt_code & kHaltException) != 0);
}

void
HiFiEmulator::charge_fault_path()
{
    if (cycle_accounting_)
        cycles_ += timing::kFaultPathCycles;
}

u8 *
HiFiEmulator::resolve(u32 addr)
{
    if (addr >= layout::kCpuBase &&
        addr < layout::kCpuBase + layout::kCpuStateSize) {
        return state_.data() + (addr - layout::kCpuBase);
    }
    if (addr >= layout::kInsnBufBase &&
        addr < layout::kInsnBufBase + scratch_.size()) {
        return scratch_.data() + (addr - layout::kInsnBufBase);
    }
    panic("HiFiEmulator: IR access outside mapped regions");
}

u64
HiFiEmulator::load(u32 addr, unsigned size)
{
    // Guest physical accesses wrap modulo the memory size per byte
    // (all backends implement the same wrap rule; GuestRam applies it).
    u64 v = 0;
    for (unsigned i = 0; i < size; ++i) {
        const u8 byte = addr >= layout::kGuestPhysBase
            ? ram_.read8(addr - layout::kGuestPhysBase + i)
            : *resolve(addr + i);
        v |= static_cast<u64>(byte) << (8 * i);
    }
    return v;
}

void
HiFiEmulator::store(u32 addr, unsigned size, u64 value)
{
    for (unsigned i = 0; i < size; ++i) {
        const u8 byte = static_cast<u8>(value >> (8 * i));
        if (addr >= layout::kGuestPhysBase)
            ram_.write8(addr - layout::kGuestPhysBase + i, byte);
        else
            *resolve(addr + i) = byte;
    }
}

arch::CpuState
HiFiEmulator::cpu() const
{
    return arch::unpack_cpu_state(state_.data());
}

arch::Snapshot
HiFiEmulator::snapshot() const
{
    arch::Snapshot out;
    snapshot_into(out);
    return out;
}

void
HiFiEmulator::snapshot_into(arch::Snapshot &out) const
{
    out.cpu = cpu();
    ram_.snapshot_into(out.ram);
    out.cycles = cycles_;
}

void
HiFiEmulator::record_exception(u8 vector, u32 error, bool has_error,
                               u32 cr2, bool set_cr2)
{
    arch::CpuState c = cpu();
    c.exception.vector = vector;
    c.exception.error_code = error;
    c.exception.has_error_code = has_error;
    if (set_cr2)
        c.cr2 = cr2;
    c.halted = 1;
    arch::pack_cpu_state(c, state_.data());
}

bool
HiFiEmulator::run_compiled(const arch::DecodedInsn &insn,
                           ir::RunResult &result)
{
    const CompiledEntry *entry = compiled_find(insn);
    if (entry == nullptr) {
        ++compiled_misses_;
        return false;
    }
    // Generic handlers read immediate/displacement values from the
    // param block (semantics scratch they do not otherwise use).
    if (entry->shape.params_ok) {
        store(param_block::kImm, 4, insn.imm);
        store(param_block::kDisp, 4, insn.disp);
    }
    result = entry->handler(*this, 1u << 22);
    ++compiled_hits_;
    return true;
}

bool
HiFiEmulator::step()
{
    arch::CpuState c = cpu();
    if (c.halted)
        return false;

    // --- Fetch and decode (arch/fetch.h): harness code, as in the
    // paper where exploration starts after fetch+decode. The table
    // decoder agrees with the explored IR decoder (hifi/decoder_ir.h)
    // by test. ---
    arch::DecodedInsn insn;
    if (const auto fault = arch::fetch_insn(ram_, c, true, true, insn)) {
        record_exception(fault->vector, fault->error_code,
                         fault->has_error_code, fault->cr2,
                         fault->set_cr2);
        charge_fault_path();
        return false;
    }

    // --- Compiled dispatch (hifi/compiled.h). Handlers are generated
    // under compiled_build_options(); only dispatch when this
    // emulator's options agree on the behavioral knobs, and fall back
    // to the interpreter on a table miss. ---
    ir::RunResult result;
    if (options_.compiled != CompiledExec::On ||
        !options_.hifi_far_fetch_order ||
        options_.descriptor_summary != nullptr ||
        !run_compiled(insn, result)) {
        const std::string_view key(
            reinterpret_cast<const char *>(insn.bytes), insn.length);
        auto it = semantics_cache_.find(key);
        if (it == semantics_cache_.end()) {
            it = semantics_cache_
                     .emplace(key, build_semantics(insn, options_))
                     .first;
        }
        result = ir::run_concrete(it->second, *this);
    }
    // Out of statement budget (a very long rep): the instruction does
    // not retire and run() reports a timeout.
    if (result.status == ir::RunStatus::StepLimit)
        return false;
    if (result.status != ir::RunStatus::Halted)
        panic("hifi semantics did not halt");
    ++insn_count_;
    charge(insn, result.halt_code);
    return true;
}

StopReason
HiFiEmulator::run(u64 max_insns)
{
    for (u64 i = 0; i < max_insns; ++i) {
        if (!step()) {
            const arch::CpuState c = cpu();
            if (!c.halted)
                return StopReason::InsnLimit;
            return c.exception.present() ? StopReason::Exception
                                         : StopReason::Halted;
        }
    }
    return StopReason::InsnLimit;
}

} // namespace pokeemu::hifi
