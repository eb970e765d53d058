/**
 * @file
 * Online symbolic path exploration of IR programs — the core of the
 * FuzzBALL analog (paper §3.1).
 *
 * The explorer interprets a Program over symbolic state, one complete
 * path per run, restarting from the beginning until the decision tree
 * is exhausted or a path cap is reached (§3.1.2: re-execution instead
 * of state forking). Branch feasibility is decided with the bit-vector
 * solver, with two standing optimizations:
 *  - the direction supported by the current model is known feasible
 *    without a query;
 *  - the decision tree caches established (in)feasibility, so replayed
 *    prefixes never re-query.
 *
 * Symbolic load/store addresses are resolved per the statement's
 * ConcretizePolicy: SingleRandom picks one feasible value and pins it
 * (cached per tree edge so replays are deterministic); Exhaustive
 * binds the address one bit at a time, most significant first, through
 * ordinary decision-tree branches (§3.1.2 "Extension to Word-sized
 * Values", §3.3.2 "Indexing Memory and Tables").
 */
#ifndef POKEEMU_SYMEXEC_EXPLORER_H
#define POKEEMU_SYMEXEC_EXPLORER_H

#include <map>
#include <optional>

#include "analysis/dataflow.h"
#include "coverage/coverage.h"
#include "ir/stmt.h"
#include "solver/solver.h"
#include "support/fault.h"
#include "support/rng.h"
#include "symexec/decision_tree.h"
#include "symexec/memory.h"
#include "symexec/varpool.h"

namespace pokeemu::symexec {

/** Limits and seeds for one exploration. */
struct ExplorerConfig
{
    /** Maximum completed paths (the paper's per-instruction cap). */
    u64 max_paths = 8192;
    /** Per-path statement budget. */
    u64 max_steps = 1u << 22;
    /** Seed for random direction choices. */
    u64 seed = 1;
    /**
     * Side constraints added to every path condition before execution
     * (paper §3.3.1: "adding a side constraint that fixes the concrete
     * bits"). Must be satisfiable; paths contradicting them are
     * infeasible.
     */
    std::vector<ir::ExprRef> preconditions;
    /**
     * Whole-exploration budget (wall clock and/or interpreted
     * statements). When it expires the exploration stops gracefully:
     * paths completed so far are kept, `complete` stays false and
     * `deadline_expired` is set. Default: unlimited.
     */
    support::Deadline deadline{};
    /** Per-solver-query budget (0 = unlimited); an over-budget query
     *  throws FaultError(SolverTimeout) out of explore(). */
    u64 solver_query_ms = 0;
    u64 solver_query_steps = 0;
    /** Chaos hook threaded down to the solver (not owned). */
    support::FaultInjector *injector = nullptr;
    /** Query memo threaded down to the solver (not owned; null
     *  disables memoization). The caller is responsible for clearing
     *  it between units of work (QueryMemo::begin_unit). */
    solver::QueryMemo *memo = nullptr;
    /**
     * Block/edge coverage accounting for this program (not owned;
     * null disables both accounting and frontier scheduling). Updated
     * once per completed path; must be fresh (nothing covered) when
     * exploration starts so results stay a pure function of
     * (program, config).
     */
    coverage::CoverageMap *coverage = nullptr;
    /**
     * Frontier scheduling policy consulted at symbolic CJmp branches
     * whose directions are both still open (not owned; null keeps the
     * default seeded-random order). Requires `coverage`.
     */
    const coverage::FrontierPolicy *policy = nullptr;
    /**
     * Dataflow facts for `program` (not owned; null disables static
     * branch decisions). Must have been computed with
     * DataflowConfig::assumes equal to `preconditions` (or a subset),
     * or the decisions are not sound for this exploration.
     */
    const analysis::ProgramFacts *facts = nullptr;
    /**
     * What a statically-decided feasibility probe does (see
     * analysis::PruneMode). Decided probes never change which paths
     * are explored or in what order: the decision tree, the seeded
     * rng stream, frontier-policy consultations and the path
     * condition evolve identically in both modes — only the solver
     * dispatch for the probe differs.
     */
    analysis::PruneMode prune = analysis::PruneMode::On;
};

/** How one explored path terminated. */
enum class PathStatus : u8 { Halted, StepLimit };

/** Everything recorded about one completed execution path. */
struct PathInfo
{
    u64 index = 0;                 ///< 0-based completed-path counter.
    PathStatus status = PathStatus::Halted;
    u32 halt_code = 0;             ///< Halt result (status == Halted).
    /** Conjuncts of the path condition, in execution order. */
    std::vector<ir::ExprRef> path_condition;
    /** A satisfying assignment for the path condition. */
    solver::Assignment assignment;
    u64 steps = 0;                 ///< Statements executed on the path.
};

/** Aggregate results of an exploration. */
struct ExploreStats
{
    u64 paths = 0;            ///< Completed paths (callback count).
    u64 infeasible = 0;       ///< Prefixes abandoned at an Assume.
    u64 step_limited = 0;     ///< Paths that hit the step budget.
    bool complete = false;    ///< Decision tree exhausted under cap.
    bool deadline_expired = false; ///< Stopped by config.deadline.
    /** Why exploration stopped short of full path coverage (None when
     *  the tree was exhausted with no path cut short). A tree can be
     *  "complete" yet StepLimit-truncated: step-limited paths finish
     *  their leaf without exploring what lay beyond the budget. */
    coverage::TruncationReason truncation =
        coverage::TruncationReason::None;
    u64 solver_queries = 0;
    u64 solver_cache_hits = 0;   ///< Queries answered by the memo.
    u64 solver_cache_misses = 0; ///< Memo-eligible queries solved.
    /** Feasibility probes answered by a static Decision instead of a
     *  solver dispatch (prune On; always 0 when Off). The sum
     *  solver_queries + solver_queries_avoided is invariant across
     *  prune modes. */
    u64 solver_queries_avoided = 0;
    /** Statically-decided CJmp/Assume statements available to this
     *  exploration (a property of the facts, not of the paths). */
    u64 static_decisions = 0;
    u64 tree_nodes = 0;
    /** Coverage over the program's CFG (zeros when config.coverage
     *  was null). */
    u64 covered_blocks = 0;
    u64 total_blocks = 0;
    u64 covered_edges = 0;
    u64 total_edges = 0;
};

/** See file comment. */
class PathExplorer
{
  public:
    /**
     * @param program the IR program to explore (not owned).
     * @param pool variable identities shared with the caller so the
     *        resulting assignments can be mapped back to machine state
     *        (not owned).
     * @param initial initial-contents policy for memory.
     */
    PathExplorer(const ir::Program &program, VarPool &pool,
                 InitialByteFn initial, ExplorerConfig config = {});

    /**
     * Callback invoked once per completed path, with the final
     * symbolic memory still live for inspecting outputs.
     */
    using PathCallback =
        std::function<void(const PathInfo &, SymbolicMemory &)>;

    /** Run to exhaustion or cap. May be called once per instance. */
    ExploreStats explore(const PathCallback &on_path);

    const solver::SolverStats &solver_stats() const
    {
        return solver_.stats();
    }

  private:
    /** Per-run (single-path) mutable state. */
    struct RunState
    {
        SymbolicMemory memory;
        std::vector<ir::ExprRef> temps;
        std::vector<ir::ExprRef> pc; ///< Path condition conjuncts.
        std::vector<std::pair<NodeId, bool>> path;
        /** Blocks entered, in order (coverage accounting only). */
        std::vector<coverage::BlockId> trace;
        u64 steps = 0;
        u32 events_in_segment = 0;

        explicit RunState(const InitialByteFn &initial, u32 num_temps)
            : memory(initial), temps(num_temps)
        {
        }
    };

    enum class RunOutcome : u8 {
        Halted,
        Infeasible,
        StepLimit,
        DeadlineExpired ///< config.deadline ran out mid-path.
    };

    RunOutcome run_one_path(RunState &run, u32 &halt_code);

    /** Substitute temps in a statement expression. */
    ir::ExprRef resolve(const ir::ExprRef &expr, const RunState &run);

    /** CFG successor blocks of a CJmp, per direction (frontier
     *  scheduling context; bit-binding branches pass null). */
    struct BranchTargets
    {
        coverage::BlockId from;
        coverage::BlockId target[2];
    };

    /**
     * Take a symbolic branch: consult/extend the decision tree, pick a
     * direction (the frontier policy decides when @p targets is given
     * and both directions are open), extend the path condition.
     * Returns the direction or nullopt when the branch cannot continue
     * (both sides done).
     */
    std::optional<bool> take_branch(RunState &run,
                                    const ir::ExprRef &cond,
                                    const BranchTargets *targets = nullptr,
                                    analysis::Decision decision =
                                        analysis::Decision::Unknown);

    /** Append @p cond to the path condition, refreshing the model if
     *  the current one violates it. Returns false when infeasible. */
    bool constrain(RunState &run, const ir::ExprRef &cond);

    /** Resolve a symbolic address per @p policy; returns the value. */
    std::optional<u32> concretize_address(RunState &run,
                                          const ir::ExprRef &addr,
                                          ir::ConcretizePolicy policy);

    /** Solver check of run.pc + extra; refreshes cur_model_ on Sat. */
    solver::CheckResult check(const RunState &run,
                              const ir::ExprRef &extra);

    /**
     * Feasibility probe for run.pc + extra. With @p decided false this
     * is check(). With @p decided true the facts prove the answer is
     * Unsat, and the prune mode picks the mechanism: Off dispatches to
     * the main solver with the memo bypassed (the result is unique to
     * this decision-tree node, so caching it would only skew memo
     * statistics between modes), On returns Unsat outright.
     */
    solver::CheckResult probe(const RunState &run,
                              const ir::ExprRef &extra, bool decided);

    /** Static decision for the statement at @p stmt_index. */
    analysis::Decision stmt_decision(u32 stmt_index) const
    {
        return config_.facts != nullptr
            ? config_.facts->decision(stmt_index)
            : analysis::Decision::Unknown;
    }

    void refresh_model();

    const ir::Program &program_;
    VarPool &pool_;
    InitialByteFn initial_;
    ExplorerConfig config_;
    solver::Solver solver_;
    DecisionTree tree_;
    Rng rng_;
    solver::Assignment cur_model_;
    /** Cached SingleRandom concretizations: (edge, event) -> value. */
    std::map<std::tuple<u32, u8, u32>, u64> concretization_cache_;
    u64 avoided_ = 0;
    bool explored_ = false;
};

} // namespace pokeemu::symexec

#endif // POKEEMU_SYMEXEC_EXPLORER_H
