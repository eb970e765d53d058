/**
 * @file
 * The Lo-Fi emulator (QEMU analog): the direct executor
 * (backend/direct_cpu.h) with a configurable set of seeded fidelity
 * bugs — exactly the §6.2 root causes the paper's evaluation
 * uncovered in QEMU 0.14. It models QEMU's bugs, not its speed: like
 * the other backends it fetches and decodes every instruction it runs
 * (arch/fetch.h), with no translation cache. Each bug is individually
 * toggleable so the pipeline's ability to find, filter, and cluster
 * them can be tested (and so a "fixed" emulator can be validated with
 * the same test suite, as the paper advocates).
 */
#ifndef POKEEMU_LOFI_LOFI_EMULATOR_H
#define POKEEMU_LOFI_LOFI_EMULATOR_H

#include "backend/direct_cpu.h"
#include "support/fault.h"

namespace pokeemu::lofi {

/** The seeded QEMU-class bugs (paper §6.2), all on by default. */
struct BugConfig
{
    /** Segment limit/type/null checks skipped on data accesses ("does
     *  not enforce segment limits and rights with the majority of
     *  instructions"). */
    bool no_segment_checks = true;
    /** leave updates ESP before the (faultable) stack read. */
    bool leave_nonatomic = true;
    /** cmpxchg checks write permission only on the equal path and
     *  updates the accumulator before detecting the fault. */
    bool cmpxchg_nonatomic = true;
    /** iret pops stack items outermost-to-innermost. */
    bool iret_pop_order = true;
    /** rdmsr/wrmsr of an unknown MSR does not raise #GP. */
    bool rdmsr_no_gp = true;
    /** Segment loads do not set the descriptor's accessed flag. */
    bool no_accessed_flag = true;
    /** Undocumented alias encodings (shift /6, F6 /1) are rejected. */
    bool reject_valid_encodings = true;
    /** Documented-undefined flags resolved differently from hardware
     *  (shift OF for count > 1, mul/div flags, bsf/bsr destination). */
    bool undef_flags_divergence = true;

    /// @name Injectable defects (defects::catalogue()). Off by
    /// default: the stock Lo-Fi emulator does not ship these — only
    /// mutation-derived variant backends turn them on, so existing
    /// reports and path sets are unchanged.
    /// @{
    /** 8-bit ALU flags computed at 32-bit width. */
    bool flags_wrong_width = false;
    /** Far pointer loads fetch the selector before the offset
     *  (reordered paired memory accesses). */
    bool far_fetch_selector_first = false;
    /** Page walks do not set PTE/PDE accessed and dirty bits. */
    bool pte_accessed_dirty_dropped = false;
    /** Segment-limit comparison off by one. */
    bool seg_limit_off_by_one = false;
    /** wrmsr stores only the low 16 bits of EAX. */
    bool wrmsr_truncated = false;
    /// @}

    /// @name Injectable timing defects (pose64-style: architectural
    /// state stays right, cycle totals go wrong; detected only as
    /// TimingDivergence). Off by default like the other defects.
    /// @{
    /** Every cycle charge halved (the pose64 2x undercount). */
    bool half_cycle_accounting = false;
    /** Per-memory-access cost never accumulated. */
    bool mem_access_cost_dropped = false;
    /// @}

    /** All bugs fixed (the "patched emulator" configuration). */
    static BugConfig none();

    bool operator==(const BugConfig &) const = default;
};

/** Translate the bug configuration to backend behaviour knobs. */
backend::Behavior behavior_from_bugs(const BugConfig &bugs);

/**
 * Containment-exercising misbehaviour classes (defects::catalogue()).
 * Unlike BugConfig defects — which produce wrong-but-well-formed
 * results the pipeline should *detect* — these make the variant
 * backend fail as a process: the harness must *contain* them
 * per-unit (quarantine at Stage::Backend) so the defect matrix
 * degrades gracefully instead of dying.
 */
enum class Misbehavior : u8 {
    None,            ///< The stock, well-behaved backend.
    Crash,           ///< run() throws entering its dispatch loop.
    Hang,            ///< run() ignores the cap; watchdog must trip.
    CorruptSnapshot, ///< snapshot_into() emits a short RAM dump.
};

const char *misbehavior_name(Misbehavior m);

/**
 * See file comment. Thin facade over the direct backend configured
 * with the bug knobs, plus the containment misbehaviours.
 */
class LoFiEmulator
{
  public:
    explicit LoFiEmulator(const BugConfig &bugs = BugConfig{},
                          Misbehavior misbehavior = Misbehavior::None)
        : cpu_(behavior_from_bugs(bugs)), misbehavior_(misbehavior)
    {
    }

    /** See backend::DirectCpu::reset. */
    void
    reset(const arch::CpuState &cpu, const arch::RamImage &base,
          u32 code_addr, std::span<const u8> code)
    {
        cpu_.reset(cpu, base, code_addr, code);
    }

    void
    reset(const arch::CpuState &cpu, const std::vector<u8> &ram)
    {
        cpu_.reset(cpu, ram);
    }

    /**
     * Run up to @p max_insns instructions. An optional per-run
     * watchdog bounds the backend itself (instruction budget, plus an
     * optional wall clock as a non-deterministic safety net): a
     * misbehaving variant that ignores the cap is stopped with a
     * FaultError(BackendHang) instead of stalling the campaign.
     */
    backend::StopReason run(u64 max_insns = 1u << 20,
                            support::Deadline *watchdog = nullptr);

    arch::Snapshot snapshot() const { return cpu_.snapshot(); }

    void
    snapshot_into(arch::Snapshot &out) const
    {
        cpu_.snapshot_into(out);
        // The corrupting variant drops the top half of its RAM dump;
        // harness::TestRunner validates snapshot shape and quarantines
        // the unit as FaultClass::SnapshotCorrupt.
        if (misbehavior_ == Misbehavior::CorruptSnapshot) {
            std::vector<u8> bytes = out.ram.to_bytes();
            bytes.resize(bytes.size() / 2);
            out.ram = arch::RamView(arch::make_ram_image(std::move(bytes)));
        }
    }
    const arch::CpuState &cpu() const { return cpu_.cpu(); }
    u64 insn_count() const { return cpu_.insn_count(); }
    Misbehavior misbehavior() const { return misbehavior_; }

    /// @name Cycle accounting (timing/cost_model.h).
    /// @{
    void set_cycle_accounting(bool on) { cpu_.set_cycle_accounting(on); }
    u64 cycle_count() const { return cpu_.cycle_count(); }
    /// @}

  private:
    /** Instructions per watchdog charge; small enough that a hung
     *  backend is caught promptly, large enough to stay off the hot
     *  path (one Deadline::consume per 64 instructions). */
    static constexpr u64 kWatchdogChunk = 64;

    backend::DirectCpu cpu_;
    Misbehavior misbehavior_ = Misbehavior::None;
};

} // namespace pokeemu::lofi

#endif // POKEEMU_LOFI_LOFI_EMULATOR_H
