/**
 * @file
 * Internal semantics-builder context shared by the per-instruction
 * generators (semantics_core.cpp / semantics_ops.cpp). Not part of the
 * public API.
 */
#ifndef POKEEMU_HIFI_CTX_H
#define POKEEMU_HIFI_CTX_H

#include <optional>
#include <set>
#include <vector>

#include "hifi/semantics.h"
#include "ir/builder.h"

namespace pokeemu::hifi {

using arch::DecodedInsn;
using arch::Gpr;
using arch::Seg;
using ir::ExprRef;
using ir::IrBuilder;
using ir::Label;
namespace E = ir::E;
namespace layout = arch::layout;

/** A translated-and-checked pending store (commit-after-checks). */
struct PreparedWrite
{
    ExprRef host_addr; ///< Address in the IR address space.
    unsigned size = 0;
};

/**
 * Builder context: wraps an IrBuilder with machine-state accessors,
 * fault plumbing, segmentation/paging checks, flag helpers, and the
 * per-Op generators. One instance builds one instruction's program.
 */
class Ctx
{
  public:
    Ctx(const DecodedInsn &insn, const SemanticsOptions &options);

    /** Generate everything and return the finished program. */
    ir::Program build();

  private:
    /// @name Raw state-image access.
    /// @{
    ExprRef ld8(u32 addr);
    ExprRef ld16(u32 addr);
    ExprRef ld32(u32 addr);
    void st8(u32 addr, const ExprRef &v);
    void st16(u32 addr, const ExprRef &v);
    void st32(u32 addr, const ExprRef &v);
    /// @}

    /// @name Registers and flags.
    /// @{
    ExprRef gpr(unsigned r);
    void set_gpr(unsigned r, const ExprRef &v);
    ExprRef gpr16(unsigned r);
    void set_gpr16(unsigned r, const ExprRef &v);
    /** 8-bit register per x86 encoding (AL..BH). */
    ExprRef gpr8(unsigned r);
    void set_gpr8(unsigned r, const ExprRef &v);
    /** Register operand of the instruction's width. */
    ExprRef reg_operand(unsigned r, unsigned width);
    void set_reg_operand(unsigned r, unsigned width, const ExprRef &v);
    ExprRef eflags();
    void set_eflags(const ExprRef &v);
    ExprRef flag(unsigned pos); ///< 1-bit.
    /// @}

    /// @name Segment-register cache fields.
    /// @{
    ExprRef seg_sel(unsigned s);
    ExprRef seg_base(unsigned s);
    ExprRef seg_limit(unsigned s);
    ExprRef seg_access(unsigned s);
    ExprRef seg_db(unsigned s);
    /// @}

    /// @name Fault plumbing.
    /// @{
    /**
     * Emit a jump to a fault block when @p cond holds. Pass
     * @p expect_decided when the caller knows the check folds constant
     * or is implied by an earlier identical check for this encoding
     * (re-checked segments, constant offsets): the emitted statements
     * then carry `lint: allow-*` markers acknowledging the ir_lint
     * findings the degenerate check produces.
     */
    void fault_if(const ExprRef &cond, u8 vector,
                  const ExprRef &error_code, bool has_error,
                  const ExprRef &cr2 = nullptr,
                  bool expect_decided = false);
    /** Unconditional fault (terminates this generator's path). */
    void fault_now(u8 vector, const ExprRef &error_code, bool has_error,
                   const ExprRef &cr2 = nullptr);
    /// @}

    /// @name Memory through segmentation + paging.
    /// @{
    /**
     * Segment-level checks for an access; returns the linear address.
     * Faults use #SS when @p s is the stack segment, else #GP.
     */
    ExprRef seg_check(unsigned s, const ExprRef &offset, unsigned size,
                      bool write);
    /** Page walk; returns the IR-space host address of the data. */
    ExprRef translate(const ExprRef &linear, bool write);
    ExprRef mem_read(unsigned s, const ExprRef &offset, unsigned size);
    PreparedWrite prepare_write(unsigned s, const ExprRef &offset,
                                unsigned size);
    void commit_write(const PreparedWrite &w, const ExprRef &value);
    /** One-step write (checks immediately before the store). */
    void mem_write(unsigned s, const ExprRef &offset, unsigned size,
                   const ExprRef &value);
    /// @}

    /// @name Encoding-value operands (immediate / displacement).
    /// Specialized mode (the default) returns the decoded encoding's
    /// constants — byte-identical to the pre-parameterization
    /// programs. Generic mode (opt_.generic_params, used only by the
    /// compiled-handler generator) returns expressions over the
    /// param-block loads emitted at the top of build().
    /// @{
    bool generic() const { return opt_.generic_params; }
    /** The 32-bit value immediate (insn_.imm). */
    ExprRef imm_v(unsigned width);
    /** imm's low byte sign-extended to @p width. */
    ExprRef imm_sext8_v(unsigned width);
    /** imm's low byte masked to a 5-bit shift count (width 8). */
    ExprRef shift_count_v();
    /** imm's low byte zero-extended to 32 (bt-family bit offset). */
    ExprRef imm_low8_32_v();
    /** The 32-bit displacement (insn_.disp). */
    ExprRef disp_v();
    /// @}

    /// @name Operand helpers.
    /// @{
    /** Effective address of the ModRM memory operand. */
    ExprRef effective_address();
    /** Segment used by the ModRM memory operand (override applied). */
    unsigned effective_segment() const;
    /** Read the r/m operand (register or memory). */
    ExprRef read_rm(unsigned width);
    /**
     * Prepare the r/m operand as a destination: returns current value;
     * call write_rm_commit to store the new one. For memory operands
     * the translation/checks happen here (atomic commit order).
     */
    ExprRef read_rm_for_write(unsigned width,
                              std::optional<PreparedWrite> &pw);
    void write_rm_commit(const std::optional<PreparedWrite> &pw,
                         unsigned width, const ExprRef &v);
    /// @}

    /// @name Flag computation (branchless).
    /// @{
    ExprRef parity(const ExprRef &res); ///< PF of low byte, 1-bit.
    struct FlagSet
    {
        ExprRef cf, pf, af, zf, sf, of; ///< 1-bit each; null = keep.
    };
    void write_flags(const FlagSet &f);
    FlagSet flags_logic(const ExprRef &res);
    FlagSet flags_add(const ExprRef &a, const ExprRef &b,
                      const ExprRef &carry_in);
    FlagSet flags_sub(const ExprRef &a, const ExprRef &b,
                      const ExprRef &borrow_in);
    /** Condition-code predicate (x86 cc encoding), 1-bit. */
    ExprRef cond_cc(unsigned cc);
    /// @}

    /// @name Stack helpers.
    /// @{
    void push32(const ExprRef &value);
    /** Read the top of stack without adjusting ESP. */
    ExprRef stack_read(const ExprRef &esp_offset, unsigned size);
    /// @}

    /// @name Control flow / completion.
    /// @{
    void commit_eip_advance();
    void set_eip(const ExprRef &target);
    void done(); ///< commit EIP advance + halt OK.
    /// @}

    /// @name Segment loading (mov sreg / pop ss / far loads).
    /// @{
    /**
     * Load segment register @p s from @p selector with full descriptor
     * checks; uses the summary when available (paper §3.3.2).
     */
    void load_segment(unsigned s, const ExprRef &selector);
    /// @}

    /// @name Per-Op generators.
    /// @{
    void gen();
    void gen_alu();
    void gen_inc_dec_push_pop();
    void gen_mov();
    void gen_test_xchg();
    void gen_jcc_setcc_cmov();
    void gen_stack_misc(); ///< pushfd/popfd/sahf/lahf/cwde/cdq.
    void gen_string();
    void gen_shift();
    void gen_control();    ///< ret/call/jmp/leave/iret/int.
    void gen_far_load();
    void gen_grp3();
    void gen_flagops();    ///< clc/stc/cmc/cli/sti/cld/std/hlt.
    void gen_system();     ///< lgdt/lidt/sgdt/sidt/mov cr/msr/cpuid...
    void gen_bitops();     ///< bt/bts/btr/btc/shld/shrd/bsf/bsr.
    void gen_mul_imul();
    void gen_cmpxchg_xadd();
    void gen_movzx_movsx();
    /// @}

    IrBuilder b_;
    const DecodedInsn &insn_;
    const SemanticsOptions &opt_;

    /** Param-block loads (generic mode only; null otherwise). Loaded
     *  once in the entry block so every use is dominated; the
     *  optimizer's DCE drops whichever a program never reads. */
    ExprRef imm_param_;
    ExprRef disp_param_;

    struct PendingFault
    {
        Label label;
        u8 vector;
        ExprRef error_code;
        bool has_error;
        ExprRef cr2;
        /** Guarding check is statically decided for this encoding, so
         *  the dispatch block may be dataflow-unreachable. */
        bool statically_dead = false;
    };
    std::vector<PendingFault> pending_faults_;
    void flush_faults();
    /** Segments already seg_check'ed in this program: a later check of
     *  the same segment is decided by the dataflow facts on every path
     *  where the first one passed. */
    std::set<unsigned> seg_checked_;
};

} // namespace pokeemu::hifi

#endif // POKEEMU_HIFI_CTX_H
