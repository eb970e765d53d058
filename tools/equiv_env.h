/**
 * @file
 * The translation-validation environment shared by ir_equiv and
 * semgen_check: the pipeline's Figure-3 state spec (initial bytes and
 * descriptor-loadability preconditions), EFLAGS compared under the
 * undefined-flags oracle, and — for rep/repne-prefixed programs, which
 * iterate on ECX — ECX pinned to at most 2 so the joint exploration is
 * exhaustive and the verdict is a proof over that bounded subspace.
 */
#ifndef POKEEMU_TOOLS_EQUIV_ENV_H
#define POKEEMU_TOOLS_EQUIV_ENV_H

#include "analysis/equiv.h"
#include "explore/state_spec.h"
#include "harness/filter.h"

namespace pokeemu::tools {

struct EquivEnv
{
    symexec::InitialByteFn initial;
    analysis::EquivOptions options;
    bool ecx_bounded = false; ///< A rep program: "proven (ecx<=2)".
};

/** The environment for validating @p insn's programs over @p pool. */
inline EquivEnv
equiv_env(const arch::DecodedInsn &insn, const explore::StateSpec &spec,
          symexec::VarPool &pool)
{
    namespace E = ir::E;
    EquivEnv env;
    env.options.preconditions = spec.preconditions(pool);
    env.options.eflags_addr = arch::layout::kEflagsAddr;
    env.options.eflags_ignore_mask =
        harness::undefined_flags_mask(insn.desc->op);
    env.initial = spec.initial_fn(pool);
    if (insn.rep || insn.repne) {
        // ECX's high bytes are zero and its low byte is at most 2 in
        // every validated initial state.
        env.ecx_bounded = true;
        const u32 ecx = arch::layout::gpr_addr(1);
        for (u32 k = 1; k < 4; ++k) {
            env.options.preconditions.push_back(
                E::eq(env.initial(ecx + k), E::constant(8, 0)));
        }
        env.options.preconditions.push_back(
            E::ule(env.initial(ecx), E::constant(8, 2)));
    }
    return env;
}

} // namespace pokeemu::tools

#endif // POKEEMU_TOOLS_EQUIV_ENV_H
