/**
 * @file
 * The Hi-Fi emulator (Bochs analog): a faithful interpreter whose
 * per-instruction semantics are the same IR programs the symbolic
 * explorer walks — what you explore is what you run.
 *
 * Concrete execution interprets those programs against the machine-
 * state byte image and guest physical RAM (paper §2: "Bochs is an
 * interpreter"; §5.1 emulator execution with halt/exception
 * interception). Instruction fetch (CS limit check + page walk) is
 * the hand-written harness part, as in the paper where exploration
 * starts after fetch/decode; all three backends share it
 * (arch/fetch.h). Stage 1 explores the decoder as an IR program
 * (hifi/decoder_ir.h); replay decodes each fetched instruction once
 * with the table decoder (arch/decoder.h), whose agreement with that
 * program is tested (DecoderIr.AgreesWithTableDecoderOnRandomBytes).
 */
#ifndef POKEEMU_HIFI_HIFI_EMULATOR_H
#define POKEEMU_HIFI_HIFI_EMULATOR_H

#include <map>
#include <string>

#include "arch/snapshot.h"
#include "hifi/compiled.h"
#include "hifi/semantics.h"
#include "ir/eval.h"

namespace pokeemu::hifi {

/** Why execution stopped. */
enum class StopReason : u8 {
    Halted,     ///< hlt executed.
    Exception,  ///< A fault was recorded (abstract halting handler).
    /** Runaway guard: the instruction budget, or one instruction's
     *  IR statement budget, ran out. */
    InsnLimit,
};

/** See file comment. */
class HiFiEmulator : public ir::ConcreteMemory
{
  public:
    explicit HiFiEmulator(SemanticsOptions options = {});
    ~HiFiEmulator() override;

    /**
     * Load CPU state, reset guest memory onto @p base and install
     * @p code at @p code_addr (arch::GuestRam::reset).
     */
    void reset(const arch::CpuState &cpu, const arch::RamImage &base,
               u32 code_addr, std::span<const u8> code);

    /** Load CPU state and a full physical-memory image. */
    void reset(const arch::CpuState &cpu, const std::vector<u8> &ram);

    /**
     * Execute one instruction. Returns false when it did not retire
     * one: already stopped, a fault was recorded, or its semantics ran
     * out of their statement budget (the CPU is then left unhalted,
     * mid-instruction).
     */
    bool step();

    /** Run until hlt/exception or @p max_insns. */
    StopReason run(u64 max_insns = 1u << 20);

    /** Current CPU state (unpacked from the byte image). */
    arch::CpuState cpu() const;

    arch::Snapshot snapshot() const;

    /** Snapshot into a reusable buffer (copies the written pages). */
    void snapshot_into(arch::Snapshot &out) const;

    /** Instructions retired since reset. */
    u64 insn_count() const { return insn_count_; }

    /** Cycles charged since reset (timing/cost_model.h); 0 unless
     *  cycle accounting is on. */
    u64 cycle_count() const { return cycles_; }

    /** Charge cycles per retired instruction and fault path (off by
     *  default; see backend::DirectCpu::set_cycle_accounting). */
    void set_cycle_accounting(bool on) { cycle_accounting_ = on; }

    /// @name Compiled-semantics dispatch accounting (since
    /// construction; SemanticsOptions::compiled selects the mode).
    /// @{
    u64 compiled_hits() const { return compiled_hits_; }
    u64 compiled_misses() const { return compiled_misses_; }
    /// @}

    /// @name ir::ConcreteMemory (the IR address space).
    /// @{
    u64 load(u32 addr, unsigned size) override;
    void store(u32 addr, unsigned size, u64 value) override;
    /// @}

  private:
    void record_exception(u8 vector, u32 error, bool has_error,
                          u32 cr2, bool set_cr2);
    /** Host byte of a CPU-state or scratch address. */
    u8 *resolve(u32 addr);

    /** Run @p insn's generated handler into @p result if one matches.
     *  Returns false on a table miss (caller falls back to the
     *  interpreter). */
    bool run_compiled(const arch::DecodedInsn &insn,
                      ir::RunResult &result);

    /// @name Cycle charging (mirrors DirectCpu::charge*: identical
    /// decisions for identical executions, so the backends' totals
    /// agree unless a timing defect is seeded).
    /// @{
    void charge(const arch::DecodedInsn &insn, u32 halt_code);
    void charge_fault_path();
    /// @}

    SemanticsOptions options_;
    std::array<u8, arch::layout::kCpuStateSize> state_{};
    /** Semantics scratch and the compiled handlers' param block. */
    std::array<u8, 0x100> scratch_{};
    arch::GuestRam ram_;
    /** Interpreter fallback: semantics by instruction bytes (at most
     *  15, held in the key's inline buffer). */
    std::map<std::string, ir::Program, std::less<>> semantics_cache_;
    u64 insn_count_ = 0;
    u64 cycles_ = 0;
    bool cycle_accounting_ = false;
    u64 compiled_hits_ = 0;
    u64 compiled_misses_ = 0;
};

} // namespace pokeemu::hifi

#endif // POKEEMU_HIFI_HIFI_EMULATOR_H
