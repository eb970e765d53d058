/**
 * @file
 * Machine-state-space exploration (paper §3.3): for one decoded test
 * instruction, symbolically execute the Hi-Fi emulator's semantics
 * over the symbolic machine state (StateSpec) and produce one
 * minimized test state per execution path.
 */
#ifndef POKEEMU_EXPLORE_STATE_EXPLORER_H
#define POKEEMU_EXPLORE_STATE_EXPLORER_H

#include <memory>

#include "analysis/dataflow.h"
#include "coverage/coverage.h"
#include "explore/state_spec.h"
#include "hifi/semantics.h"
#include "hifi/sequence.h"
#include "support/fault.h"
#include "symexec/minimize.h"

namespace pokeemu::explore {

struct StateExploreOptions
{
    /** Per-instruction path cap (the paper used 8192). */
    u64 max_paths = 8192;
    u64 max_steps = 1u << 16;
    u64 seed = 1;
    /** Use the descriptor-load summary in segment-load instructions
     *  (paper §3.3.2); disabled by the summarization ablation. */
    bool use_descriptor_summary = true;
    /** Greedy state-difference minimization (paper §3.4); disabled by
     *  the minimization ablation. */
    bool minimize = true;
    /** Hi-Fi far-pointer fetch order (see SemanticsOptions). */
    bool hifi_far_fetch_order = true;
    /** Whole-exploration budget; expiry ends the exploration
     *  gracefully with `stats.deadline_expired` set. */
    support::Deadline deadline{};
    /** Per-solver-query budget (0 = unlimited); over-budget queries
     *  throw FaultError(SolverTimeout). */
    u64 solver_query_ms = 0;
    u64 solver_query_steps = 0;
    /** Chaos hook threaded down to explorer and solver (not owned). */
    support::FaultInjector *injector = nullptr;
    /** Solver-query memo threaded down to the solver (not owned; null
     *  disables memoization). The caller clears it between units of
     *  work (QueryMemo::begin_unit) to keep results layout-independent. */
    solver::QueryMemo *memo = nullptr;
    /** Frontier scheduling policy for the path order under a cap
     *  (coverage accounting itself is always on). Uncovered-edge-first
     *  spends a capped budget on unseen structure before re-splitting
     *  known structure; DefaultOrder restores the pre-coverage seeded
     *  replay order. With an unlimited cap both explore the same path
     *  set — only the order differs. */
    coverage::SchedulePolicy schedule =
        coverage::SchedulePolicy::UncoveredEdgeFirst;
    /** Static branch pruning: dataflow facts are computed per unit in
     *  every mode (Off still uses them to keep memo statistics
     *  invariant); the mode only controls what a decided feasibility
     *  probe does (see analysis::PruneMode). Explored path sets and
     *  schedules are identical across modes. */
    analysis::PruneMode prune = analysis::PruneMode::On;
};

/** One explored path's test state. */
struct ExploredPath
{
    u32 halt_code = 0; ///< hifi::kHaltOk / kHaltStop / exception code.
    /** Satisfying (minimized) assignment over the spec's variables. */
    solver::Assignment assignment;
    u64 steps = 0;
    bool step_limited = false;
};

struct StateExploreResult
{
    std::vector<ExploredPath> paths;
    symexec::ExploreStats stats;
    symexec::MinimizeStats minimize;
    /** The variable pool the assignments are keyed by (id -> name),
     *  needed to map test states back onto machine locations. */
    symexec::VarPool pool;
};

/**
 * Explore @p insn over @p spec. The @p summary must outlive the call
 * and be the same object the spec was built with (or null).
 */
StateExploreResult
explore_instruction(const arch::DecodedInsn &insn, const StateSpec &spec,
                    const symexec::Summary *summary,
                    const StateExploreOptions &options = {});

/**
 * Explore a straight-line multi-instruction sequence (the paper's §7
 * extension): the composed semantics enumerate the joint path space.
 * Halt codes are tagged per hifi/sequence.h.
 */
StateExploreResult
explore_sequence(const std::vector<arch::DecodedInsn> &insns,
                 const StateSpec &spec, const symexec::Summary *summary,
                 const StateExploreOptions &options = {});

} // namespace pokeemu::explore

#endif // POKEEMU_EXPLORE_STATE_EXPLORER_H
