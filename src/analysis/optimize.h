/**
 * @file
 * IR-to-IR optimizer over semantics programs.
 *
 * optimize_program() runs a small pass pipeline to a fixpoint:
 *
 *  - const-branch folding: a CJmp whose condition is constant, or that
 *    the pure-mode dataflow facts (dataflow.h) decide for every
 *    initial state, becomes a Jmp; a decided-true or constant-true
 *    Assume is dropped (a decided-false one is *kept* — it carries the
 *    program's fault behavior). Because the engine mines Assume
 *    statements into its predicate environment, downstream decisions
 *    inherit assume-implied strengthening for free.
 *  - constant-address strengthening: a Load/Store address the facts
 *    prove constant on every path is rewritten to the literal,
 *    removing temp uses and the runtime concretization.
 *  - unreachable-code removal over the rebuilt CFG.
 *  - copy propagation / forward substitution through the folding E::
 *    factories: leaf right-hand sides (Const/Var/Temp) propagate to
 *    every eligible use; a single-use pure Assign is inlined into its
 *    use. A definition in a cycle-tainted block (dataflow.h) is only
 *    propagated within its own block — temps are statically single-
 *    assignment but dynamically reassigned in loops, so cross-block
 *    substitution is sound only where the defining block executes at
 *    most once per run.
 *  - dead-code elimination via the shared liveness fixpoints
 *    (liveness.h): dead Assigns, dead *constant-address* Loads (a
 *    symbolic load concretizes its address, which is observable to
 *    exploration, so it stays), and dead constant-address Stores.
 *    Comment statements are dropped altogether.
 *  - jump threading and fall-through cleanup.
 *
 * Soundness: every rewrite preserves the program's input/output
 * behavior — final memory state, halt code, and Assume-failure
 * behavior — for *all* initial states, because the dataflow facts are
 * computed in pure mode (fresh variables for every initial byte, no
 * preconditions). Path *structure* is not preserved: the optimized
 * program generally has fewer branches and concretization points, so
 * it must not be used where the decision-tree shape or the seeded
 * exploration stream matters (see OptMode). equiv.h provides the
 * matching translation validator that proves the equivalence per
 * program with the solver.
 */
#ifndef POKEEMU_ANALYSIS_OPTIMIZE_H
#define POKEEMU_ANALYSIS_OPTIMIZE_H

#include "analysis/cfg.h"
#include "ir/stmt.h"

namespace pokeemu::analysis {

/**
 * Whether built semantics programs are optimized (threaded from
 * pokeemu::PipelineOptions down through hifi::SemanticsOptions):
 *
 *  - Off: every consumer interprets the original builder output.
 *  - On: concrete replay (the hifi backend) and the compiled handlers
 *    run the optimized program. Stage-2 pipeline exploration always
 *    stays on the original IR so the decision tree, the seeded rng
 *    stream and the concretization choices — and therefore the
 *    generated tests — are bit-identical to Off.
 *
 * The optimizer is proven at build time, not per run: the ir_equiv_all
 * ctest validates every canonical row's summary build and
 * semgen_crosscheck_all validates every compiled unit (equiv.h).
 */
enum class OptMode : u8 { Off, On };

/** Knobs for one optimization run. */
struct OptConfig
{
    /**
     * Pass-pipeline iterations. Each round runs every pass once; the
     * pipeline stops early when a round changes nothing. Semantics
     * programs settle in two or three rounds.
     */
    unsigned max_rounds = 4;
};

/** What one optimization run did. */
struct OptStats
{
    u64 stmts_before = 0;     ///< All statements, Comments included.
    u64 stmts_after = 0;
    u64 exec_before = 0;      ///< Non-Comment statements.
    u64 exec_after = 0;
    u64 branches_folded = 0;  ///< CJmp -> Jmp rewrites.
    u64 assumes_dropped = 0;  ///< Decided/constant-true Assumes.
    u64 addrs_strengthened = 0; ///< Load/Store addrs made literal.
    u64 copies_propagated = 0;  ///< Uses replaced by a def's rhs.
    u64 dead_assigns = 0;
    u64 dead_loads = 0;       ///< Constant-address only.
    u64 dead_stores = 0;
    u64 unreachable_stmts = 0;
    u64 jumps_threaded = 0;   ///< Retargeted or dropped jumps.
    unsigned rounds = 0;      ///< Rounds that ran (incl. the no-op).

    /** Executable-statement reduction in [0, 1]. */
    double reduction() const
    {
        return exec_before == 0
            ? 0.0
            : 1.0 - static_cast<double>(exec_after) /
                    static_cast<double>(exec_before);
    }
};

/** An optimized program plus the accounting for reports. */
struct OptResult
{
    ir::Program program;
    OptStats stats;
};

/**
 * Optimize @p program. Precondition: verifier-clean (run_pipeline
 * reports no errors) — semantics builder output qualifies. The result
 * is verifier-clean again and equivalent to the input for every
 * initial state; `name` is preserved.
 */
OptResult optimize_program(const ir::Program &program,
                           const OptConfig &config = {});

} // namespace pokeemu::analysis

#endif // POKEEMU_ANALYSIS_OPTIMIZE_H
