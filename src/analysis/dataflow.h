/**
 * @file
 * Forward fixpoint dataflow over analysis::Cfg: per-statement facts the
 * explorer, the lint passes, and the harness filter consume.
 *
 * The engine symbolically executes every block over a *merged* abstract
 * state (one state per block, paths joined with per-edge choice
 * variables) and evaluates branch/assume conditions against the
 * known-bits/interval domain (domains.h) plus a set of predicates known
 * true on every path. Three consumers:
 *
 *  - symexec::PathExplorer: a CJmp/Assume condition whose Decision is
 *    AlwaysTrue/AlwaysFalse needs no solver feasibility probe — the
 *    paper's per-branch queries (§3.1.2) dominated exploration cost, so
 *    each decided statement saves one Unsat query per decision-tree
 *    node that reaches it (PruneMode, explorer.h).
 *  - analysis::run_pipeline lint passes: constant-condition branches,
 *    cross-block dead stores, redundant assumes, blocks unreachable
 *    under dataflow facts (passes.h).
 *  - analysis::flag_write_summary: the derived EFLAGS may/must-write
 *    oracle cross-checked against harness::undefined_flags_mask — the
 *    paper's hand-maintained undefined-flag filter (§6.2), machine-
 *    audited.
 *
 * Soundness: every fact over-approximates the set of concrete
 * executions. Loops are handled by widening unstable state slots to
 * stable fresh variables after a bounded number of rounds; because the
 * per-statement variables the analysis invents (unknown loads, join
 * choices, widened slots) are *reused* across loop iterations, branch
 * Decisions are only reported for statements in blocks not reachable
 * from a loop (cycle-tainted blocks get Decision::Unknown) — in
 * acyclic regions every invented variable stands for exactly one
 * dynamic value, so "this condition evaluates constant for all
 * valuations" transfers to the concrete exploration. Write summaries do
 * not rely on variable-binding uniqueness and stay valid everywhere.
 */
#ifndef POKEEMU_ANALYSIS_DATAFLOW_H
#define POKEEMU_ANALYSIS_DATAFLOW_H

#include <functional>
#include <optional>
#include <set>

#include "analysis/cfg.h"
#include "analysis/domains.h"

namespace pokeemu::analysis {

/**
 * How the explorer consumes Decisions (threaded from the pipeline down
 * through explore::StateExploreOptions into symexec::ExplorerConfig).
 *
 *  - Off: every feasibility probe is dispatched to the solver. Decided
 *    probes bypass the query memo so memo statistics are invariant
 *    across modes (their Unsat results could never be hit again — each
 *    probe's path condition is unique to its decision-tree node).
 *  - On: decided probes are answered by the dataflow fact: the tree
 *    node, seeded-rng draw, frontier-policy consultation and path
 *    condition evolve exactly as in Off — only the solver dispatch is
 *    skipped and counted in `solver_queries_avoided`.
 *
 * Soundness of the skipped probes is a test, not a mode: a gtest in
 * tests/test_dataflow.cpp explores the whole instruction table both
 * ways and requires identical paths and models.
 */
enum class PruneMode : u8 { Off, On };

/** Printable mode name, e.g. "on". */
const char *prune_mode_name(PruneMode mode);

/** Statically-known value of a CJmp/Assume condition. */
enum class Decision : u8 { Unknown, AlwaysFalse, AlwaysTrue };

/** Knobs for one analysis run. */
struct DataflowConfig
{
    /**
     * Initial contents of a memory byte, mirroring the explorer's
     * InitialByteFn (must be deterministic by address; evaluated at
     * most once per address). Null = "pure mode": the engine invents
     * one fresh 8-bit variable per byte, which is what the flags
     * oracle's structural unchanged-vs-written classification needs.
     */
    std::function<ir::ExprRef(u32)> initial_byte;

    /**
     * Conditions established before entry (the explorer's
     * preconditions). Seeded into the entry predicate set and mined
     * for variable-level facts.
     */
    std::vector<ir::ExprRef> assumes;

    /**
     * Fixpoint rounds before widening kicks in. Acyclic programs
     * converge in two rounds regardless; loops give up precision for
     * convergence after this many.
     */
    unsigned max_rounds_before_widen = 3;

    /** Hard round valve; exceeded -> facts report converged = false
     *  and every Decision stays Unknown. */
    unsigned max_rounds = 24;

    /**
     * Variable-id base for analysis-invented variables (initial bytes
     * in pure mode, unknown loads, join choices, widened slots). Must
     * not collide with the caller's VarPool ids.
     */
    u32 private_var_base = 1u << 30;
};

/** Per-unit may/must write summary over the byte-addressed state. */
struct WriteSummary
{
    /** Constant addresses some path writes. */
    std::set<u32> may_bytes;
    /** Constant addresses every Halt exit has overwritten. */
    std::set<u32> must_bytes;
    /** Some store ran through a non-constant address... */
    bool symbolic_store = false;
    /** ...landing somewhere in [clobber_lo, clobber_hi]. */
    u32 clobber_lo = 0;
    u32 clobber_hi = 0;

    bool may_write(u32 addr) const
    {
        if (symbolic_store && addr >= clobber_lo && addr <= clobber_hi)
            return true;
        return may_bytes.count(addr) != 0;
    }

    bool must_write(u32 addr) const
    {
        return must_bytes.count(addr) != 0;
    }
};

/** Everything one analysis run proves about a program. */
struct ProgramFacts
{
    /** False when the engine bailed (round valve, malformed CFG);
     *  consumers must then treat every fact as absent. */
    bool analyzed = false;
    /** Fixpoint reached within DataflowConfig::max_rounds. */
    bool converged = false;

    /** Per statement; Unknown for non-CJmp/Assume statements, for
     *  cycle-tainted blocks, and for dataflow-unreachable code. */
    std::vector<Decision> decisions;
    /** Statement executes on some abstract path (refines CFG
     *  reachability through decided branches). */
    std::vector<bool> stmt_reachable;
    /** Per block; see stmt_reachable. */
    std::vector<bool> block_reachable;
    /** Per block: reachable from a loop (Decisions suppressed). */
    std::vector<bool> cycle_tainted;
    /** Per statement: the Load/Store address when the analysis proves
     *  it constant on every path (weaker-than-syntactic: the raw
     *  address expression may mention temps). */
    std::vector<std::optional<u32>> const_addr;

    WriteSummary writes;

    /** Decided CJmp / Assume statement counts (reachable only). */
    u64 decided_cjmps = 0;
    u64 decided_assumes = 0;

    Decision decision(u32 stmt_index) const
    {
        return analyzed && stmt_index < decisions.size()
            ? decisions[stmt_index]
            : Decision::Unknown;
    }
};

/**
 * Run the engine over @p program. @p cfg must be Cfg::build(program)
 * of a verifier-clean program (same precondition as every lint pass).
 */
ProgramFacts analyze_program(const ir::Program &program, const Cfg &cfg,
                             const DataflowConfig &config = {});

/**
 * Derived EFLAGS write oracle for one semantics program.
 *
 * `may` / `must` are masks over EFLAGS bit positions: bit i is in
 * `may` when some completed execution can leave it different from its
 * initial value, and in `must` when every completed execution computes
 * it (a defined function of the inputs — never the conditionally-kept
 * initial bit). Instructions whose semantics keep a flag through an
 * ite(count == 0, old, computed) therefore land in may-but-not-must,
 * exactly the shape harness::undefined_flags_mask documents.
 *
 * "Completed" means Halt with code @p ok_halt_code (hifi::kHaltOk);
 * exits with a non-constant code are included conservatively. With no
 * completing exit, or when the analysis bailed, `capped` is set and
 * the masks are empty.
 */
struct FlagSummary
{
    u32 may = 0;
    u32 must = 0;
    u64 ok_exits = 0;
    /** The fixpoint converged; masks are meaningful when ok_exits>0. */
    bool analyzed = false;
    /** No usable summary: the analysis bailed or nothing completes. */
    bool capped = false;
};

/** The six status-flag positions (CF|PF|AF|ZF|SF|OF). */
constexpr u32 kStatusFlagsMask = 0x8d5;

FlagSummary flag_write_summary(const ir::Program &program,
                               u32 eflags_addr, u32 ok_halt_code = 0);

} // namespace pokeemu::analysis

#endif // POKEEMU_ANALYSIS_DATAFLOW_H
