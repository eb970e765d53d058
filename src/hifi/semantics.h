/**
 * @file
 * Hi-Fi emulator semantics: one IR program per decoded instruction.
 *
 * This is the analog of Bochs' per-instruction implementation code as
 * seen by FuzzBALL (paper §3.3): the program reads and writes the
 * machine-state byte image (arch/layout.h) and the guest physical
 * memory, performs the full protection checks (segment type/limit,
 * two-level page walk with A/D updates), computes flags branchlessly
 * (so flag math does not multiply paths), and ends in a Halt whose
 * code classifies the outcome:
 *     kHaltOk                normal completion
 *     kHaltException | vec   fault raised (state records vector/error)
 *     kHaltStop              hlt executed
 *
 * The builder has two knobs that mirror the paper:
 *  - an optional descriptor-load Summary (paper §3.3.2) used by
 *    segment-register loads instead of inlining the multi-path load;
 *  - the Hi-Fi fetch order for far-pointer loads (Bochs fetches the
 *    offset and selector in the opposite order from QEMU/hardware,
 *    paper §6.2) — seeded here so cross-validation can find it.
 */
#ifndef POKEEMU_HIFI_SEMANTICS_H
#define POKEEMU_HIFI_SEMANTICS_H

#include "analysis/optimize.h"
#include "arch/decoder.h"
#include "arch/layout.h"
#include "ir/stmt.h"
#include "symexec/summarize.h"

namespace pokeemu::hifi {

/// @name Halt-code classification.
/// @{
constexpr u32 kHaltOk = 0;
constexpr u32 kHaltStop = 1;             ///< hlt instruction.
constexpr u32 kHaltException = 0x100;    ///< | exception vector.

constexpr u32
halt_exception_code(u8 vector)
{
    return kHaltException | vector;
}
/// @}

/**
 * How HiFiEmulator executes semantics for concrete replay
 * (hifi/compiled.h): interpret the IR, or dispatch to the build-time
 * compiled handler (interpreter fallback for uncompiled encodings).
 */
enum class CompiledExec : u8 { Off, On };

/** Options controlling semantics generation. */
struct SemanticsOptions
{
    /**
     * Far-pointer loads (les/lds/lss/lfs/lgs) fetch offset-then-
     * selector when false (hardware/QEMU order) or selector-then-
     * offset when true (the Bochs order the paper observed).
     */
    bool hifi_far_fetch_order = true;

    /**
     * Pre-computed descriptor-load summary (paper §3.3.2). When set,
     * segment-register loads substitute the summary expressions
     * instead of exploring the descriptor parse inline.
     */
    const symexec::Summary *descriptor_summary = nullptr;

    /** Run the IR optimizer (analysis/optimize.h) over the built
     *  program. */
    analysis::OptMode opt = analysis::OptMode::Off;

    /** Concrete-replay execution mode (used by HiFiEmulator, not by
     *  the builder itself; carried here so one options struct threads
     *  through runner/pipeline/campaign). */
    CompiledExec compiled = CompiledExec::Off;

    /**
     * Internal (semgen / compiled dispatch): emit the instruction's
     * value immediate and displacement as loads from the parameter
     * block (param_block below) instead of baking the encoding's
     * constants into the program, so one generated handler serves
     * every encoding that shares the row's structural shape. Register
     * numbers, operand form, length and prefixes stay baked — only
     * *values* are parameterized. Never set by user-facing options;
     * with it false, built programs are byte-identical to before.
     */
    bool generic_params = false;
};

/**
 * Parameter block read by generic-params programs. Lives in the
 * instruction-buffer region just past the decoder scratch (+0x40..0x4b,
 * decoder_ir.h) inside HiFiEmulator's 0x100-byte scratch window.
 */
namespace param_block {
constexpr u32 kImm = arch::layout::kInsnBufBase + 0x60;  ///< 4 bytes.
constexpr u32 kDisp = arch::layout::kInsnBufBase + 0x64; ///< 4 bytes.
} // namespace param_block

/**
 * Build the semantics program for @p insn. EIP in the state image must
 * point at the instruction; the program advances or redirects it.
 */
ir::Program build_semantics(const arch::DecodedInsn &insn,
                            const SemanticsOptions &options = {});

/**
 * Build the standalone descriptor-load helper program used to compute
 * the summary (paper's segment-descriptor-cache example): it reads 8
 * descriptor bytes at layout::kInsnBufBase (inputs) and writes the
 * parsed cache fields plus a validity classification to fixed scratch
 * addresses; see summarize_descriptor_load().
 */
ir::Program build_descriptor_load_helper();

/**
 * Explore the helper and fold it into a Summary whose outputs are, in
 * order: base(4), limit(4), access(1), db(1), fault_class(1) where
 * fault_class is 0 = loadable, 1 = #GP (bad type), 2 = #NP (not
 * present).
 */
symexec::Summary
summarize_descriptor_load(symexec::VarPool &pool,
                          symexec::ExplorerConfig config = {});

/** Scratch addresses used by the descriptor-load helper. */
namespace desc_helper {
constexpr u32 kInputBytes = arch::layout::kInsnBufBase; ///< 8 bytes.
constexpr u32 kOutBase = 0x12000000;
constexpr u32 kOutLimit = 0x12000004;
constexpr u32 kOutAccess = 0x12000008;
constexpr u32 kOutDb = 0x12000009;
constexpr u32 kOutFault = 0x1200000a;
} // namespace desc_helper

} // namespace pokeemu::hifi

#endif // POKEEMU_HIFI_SEMANTICS_H
