/**
 * @file
 * A direct (non-IR) VX86 executor: the common core of the Lo-Fi
 * emulator (lofi/) and the hardware model (hw/).
 *
 * Unlike the Hi-Fi emulator — which interprets IR programs and is the
 * artifact the symbolic explorer walks — this is an ordinary C++
 * switch interpreter. Every behaviour the paper's evaluation found to
 * differ between QEMU, Bochs and hardware (§6.2) is an explicit knob
 * in Behavior, so the hardware model runs with the "hardware" setting
 * and the Lo-Fi emulator seeds the QEMU-class bugs. Having the knobs
 * in one shared core means each bug is a *single, auditable
 * divergence point*, while the Hi-Fi emulator remains a genuinely
 * independent implementation for cross-validation.
 *
 * Instruction fetch and decode are arch::fetch_insn, shared with the
 * Hi-Fi emulator; the segment-check and A/D-bit knobs reach the fetch
 * too. There is no translation cache: every step fetches and decodes.
 *
 * Atomicity discipline: each instruction executes against a working
 * copy of the CPU state; guest faults are thrown as arch::GuestFault
 * after all checks and before RAM writes (string instructions commit
 * per iteration, which is architectural). The seeded non-atomicity
 * bugs deliberately mutate the working copy before a faultable access.
 */
#ifndef POKEEMU_BACKEND_DIRECT_CPU_H
#define POKEEMU_BACKEND_DIRECT_CPU_H

#include "arch/decoder.h"
#include "arch/snapshot.h"

namespace pokeemu::backend {

/** How documented-undefined flag/dest cases are resolved. */
enum class UndefFlagStyle : u8 {
    Hardware, ///< The hardware model's choices.
    LoFi,     ///< The Lo-Fi emulator's divergent choices.
};

/** Divergence knobs; defaults are the hardware behaviour. */
struct Behavior
{
    /** Enforce segment limit/type/null checks on data accesses. */
    bool enforce_segment_checks = true;
    /** leave: read the saved EBP before modifying ESP. */
    bool leave_atomic = true;
    /** cmpxchg: verify destination writability before any update. */
    bool cmpxchg_checks_write_first = true;
    /** iret: pop EIP,CS,EFLAGS innermost-first (hardware order). */
    bool iret_pop_inner_first = true;
    /** l[e,d,s,f,g]s: fetch offset before selector (hardware order). */
    bool far_fetch_offset_first = true;
    /** rdmsr/wrmsr of an unknown MSR raises #GP(0). */
    bool rdmsr_gp_on_invalid = true;
    /** Segment loads set the descriptor's accessed bit in memory. */
    bool set_descriptor_accessed = true;
    /** Accept undocumented alias encodings (shift /6, F6 /1). */
    bool accept_alias_encodings = true;
    /** Shifts leave AF unchanged (hardware); the Hi-Fi emulator's
     *  Bochs-like behaviour clears it instead. */
    bool shift_clears_af = false;
    UndefFlagStyle undef_flags = UndefFlagStyle::Hardware;

    /// @name Injectable defects (defects::catalogue()). All default to
    /// the faithful behaviour; both hardware_behavior() and the stock
    /// Lo-Fi configuration (lofi::behavior_from_bugs) leave them off,
    /// so only mutation-derived variant backends ever see them.
    /// @{
    /** Compute 8-bit ALU flags at 32-bit width (wrong CF/OF/SF/ZF on
     *  byte adds, subs and logic ops). */
    bool alu8_flags_wide = false;
    /** Page walks set PTE/PDE accessed and dirty bits (hardware).
     *  Off models an emulator whose soft-MMU forgets them. */
    bool set_pte_accessed_dirty = true;
    /** Segment-limit comparison off by one: the last valid byte of a
     *  segment faults (and one past an expand-down limit is let in). */
    bool seg_limit_off_by_one = false;
    /** wrmsr stores only the low 16 bits of EAX. */
    bool wrmsr_truncate_16 = false;
    /// @}

    /** Accumulate per-run cycle totals (timing/cost_model.h) into
     *  snapshots. Off by default: accounting is opt-in per campaign
     *  (--timing), and a zero total keeps reports byte-identical to
     *  the timing-off output. */
    bool cycle_accounting = false;

    /// @name Injectable timing defects (pose64-style: architectural
    /// results stay right while cycle totals go wrong). Only charged
    /// when cycle_accounting is on.
    /// @{
    /** Every charge halved — the pose64 2x systematic undercount.
     *  Costs are even by construction (timing/cost_model.h), so the
     *  halving is exact and clusters at cycles-2x-under. */
    bool half_cycle_accounting = false;
    /** Per-memory-access cost never accumulated. */
    bool mem_access_cost_dropped = false;
    /// @}

    bool operator==(const Behavior &) const = default;
};

/** The hardware model's configuration (all defaults). */
Behavior hardware_behavior();

/** Why execution stopped (mirrors hifi::StopReason). */
enum class StopReason : u8 { Halted, Exception, InsnLimit };

/** See file comment. */
class DirectCpu
{
  public:
    explicit DirectCpu(Behavior behavior);

    /**
     * Load CPU state, reset guest memory onto @p base and install
     * @p code at @p code_addr (arch::GuestRam::reset).
     */
    void reset(const arch::CpuState &cpu, const arch::RamImage &base,
               u32 code_addr, std::span<const u8> code);

    /** Load CPU state and a full physical-memory image. */
    void reset(const arch::CpuState &cpu, const std::vector<u8> &ram);

    /** Execute one instruction; false when already stopped. */
    bool step();

    StopReason run(u64 max_insns = 1u << 20);

    const arch::CpuState &cpu() const { return cpu_; }

    arch::Snapshot
    snapshot() const
    {
        arch::Snapshot out;
        snapshot_into(out);
        return out;
    }

    /** Snapshot into a reusable buffer (copies the written pages). */
    void snapshot_into(arch::Snapshot &out) const;

    u64 insn_count() const { return insn_count_; }

    /// @name Cycle accounting (timing/cost_model.h).
    /// @{
    void set_cycle_accounting(bool on) { behavior_.cycle_accounting = on; }
    u64 cycle_count() const { return cycles_; }
    /// @}

  private:
    /** Per-step working state: registers are committed at the end of
     *  the instruction (or at the fault point, for the seeded
     *  non-atomicity bugs and string progress). */
    struct Work
    {
        arch::CpuState c;
    };

    /// @name Memory through segmentation + paging.
    /// @{
    u32 seg_check(const Work &w, unsigned seg, u32 offset,
                  unsigned size, bool write) const;
    u32 translate(const Work &w, u32 linear, bool write);
    u64 read_mem(Work &w, unsigned seg, u32 offset, unsigned size);
    void write_mem(Work &w, unsigned seg, u32 offset, unsigned size,
                   u64 value);
    /** Check + translate for write; returns the physical address. */
    u32 prepare_write(Work &w, unsigned seg, u32 offset, unsigned size);
    void write_phys(u32 phys, unsigned size, u64 value);
    u64 read_phys(u32 phys, unsigned size) const;
    /// @}

    /// @name Register / flag helpers.
    /// @{
    u64 get_reg(const Work &w, unsigned r, unsigned width) const;
    void set_reg(Work &w, unsigned r, unsigned width, u64 value);
    void set_flags_szp(Work &w, u64 res, unsigned width, u32 extra_set,
                       u32 extra_clear);
    void flags_add(Work &w, u64 a, u64 b, u64 cin, unsigned width);
    void flags_sub(Work &w, u64 a, u64 b, u64 bin, unsigned width);
    void flags_logic(Work &w, u64 res, unsigned width);
    bool cond_cc(const Work &w, unsigned cc) const;
    /// @}

    /// @name Operand helpers.
    /// @{
    u32 effective_address(const Work &w,
                          const arch::DecodedInsn &insn) const;
    unsigned effective_segment(const arch::DecodedInsn &insn) const;
    u64 read_rm(Work &w, const arch::DecodedInsn &insn, unsigned width);
    void write_rm(Work &w, const arch::DecodedInsn &insn,
                  unsigned width, u64 value);
    /// @}

    void push32(Work &w, u32 value);
    u32 pop32(Work &w);

    /** Full-check segment load (mov sreg, pop ss, far loads). */
    void load_segment(Work &w, unsigned seg, u16 selector);

    void execute(Work &w, const arch::DecodedInsn &insn);

    /// @name Cycle charging (one call per retirement attempt).
    /// @{
    /** Charge the (row, operand form) cost — plus the fault surcharge
     *  when the semantics faulted — with timing defects applied. */
    void charge(int table_index, bool mem_form, bool faulted);
    /** Flat pre-semantics fault-path charge (fetch starvation,
     *  undecodable bytes, rejected alias). */
    void charge_fault_path();
    /// @}

    Behavior behavior_;
    arch::CpuState cpu_;
    arch::GuestRam ram_;
    u64 insn_count_ = 0;
    u64 cycles_ = 0;
};

} // namespace pokeemu::backend

#endif // POKEEMU_BACKEND_DIRECT_CPU_H
