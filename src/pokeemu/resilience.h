/**
 * @file
 * Pipeline resilience: budgets, checkpoint/resume, and chaos plans.
 *
 * A campaign-scale sweep (the paper's 68,977 candidates / 610,516
 * paths) is hours of work; deviation hunts are restart-heavy. This
 * module gives the pipeline the three properties that make restarts
 * cheap and stragglers harmless:
 *
 *  - BudgetOptions: per-instruction exploration and per-solver-query
 *    deadlines (wall clock and/or steps), with one escalation retry
 *    before a unit is marked budget-incomplete — the time-domain
 *    analog of the paper's 8192-path cap.
 *  - Checkpoint: versioned serialization of per-stage progress
 *    (explored units with their generated tests, executed-test
 *    counters and clusters), written after each batch; `resume` skips
 *    completed units. The format follows the corpus.cpp idiom: a
 *    self-describing whitespace-separated text container.
 *  - FaultPlan (support/fault.h): the chaos configuration the
 *    chaos_pipeline ctest uses to prove containment.
 */
#ifndef POKEEMU_POKEEMU_RESILIENCE_H
#define POKEEMU_POKEEMU_RESILIENCE_H

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "coverage/coverage.h"
#include "harness/cluster.h"
#include "support/fault.h"

namespace pokeemu {

namespace harness {
struct BackendRun;
}

/** Deadlines for the expensive per-unit work; 0 = unlimited. */
struct BudgetOptions
{
    /** Whole-instruction exploration budget (stage 2). Steps are
     *  interpreted IR statements across all of the unit's paths. */
    u64 insn_exploration_ms = 0;
    u64 insn_exploration_steps = 0;
    /** Per-solver-query budget; steps are SAT search iterations. */
    u64 solver_query_ms = 0;
    u64 solver_query_steps = 0;
    /** Per-test watchdog around the Lo-Fi backend run (stage 4):
     *  instructions executed and/or wall clock. The instruction budget
     *  trips deterministically (same quarantined set on every shard
     *  layout); the wall cap is a machine-dependent safety net. A hung
     *  variant backend is quarantined per-test at Stage::Backend. */
    u64 test_watchdog_insns = 0;
    u64 test_watchdog_ms = 0;
    /** Budget multiplier for the single retry granted to a unit that
     *  ran out of budget before being marked incomplete. */
    double escalation = 4.0;
};

/** Everything the fault-isolation layer can be configured with. */
struct ResilienceOptions
{
    BudgetOptions budgets{};
    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpoint_path;
    /** Skip units already completed in checkpoint_path (a missing
     *  file silently starts from scratch). */
    bool resume = false;
    /** Stage-2/3 units per checkpoint write. */
    u32 checkpoint_every_units = 8;
    /** Stage-4/5 tests per checkpoint write. */
    u32 checkpoint_every_tests = 64;
    /**
     * Graceful preemption for time-sliced, resumable shards: stop
     * stage 2/3 after this many freshly explored units this session
     * (0 = no limit), checkpointing before returning; a later resume
     * completes the sweep.
     */
    u32 explore_at_most_units = 0;
    /** Same for stage 4/5: freshly executed tests this session. */
    u32 execute_at_most_tests = 0;
    /** Chaos plan (probability 0 = inert). */
    support::FaultPlan faults{};
};

/** One generated test as persisted in a checkpoint. */
struct CheckpointTest
{
    u64 id = 0;
    int table_index = 0;
    u32 test_insn_offset = 0;
    u32 halt_code = 0;
    std::vector<u8> code;
};

/** One completed stage-2/3 unit (everything its instruction
 *  contributed to PipelineStats, plus its tests). */
struct CheckpointUnit
{
    int table_index = 0;
    bool complete = false;
    bool budget_incomplete = false;
    u64 paths = 0;
    u64 solver_queries = 0;
    u64 solver_cache_hits = 0;   ///< Memo hits during this unit.
    u64 solver_cache_misses = 0; ///< Memo-eligible queries solved.
    /** Probes skipped by static pruning (the v3 checkpoint column);
     *  solver_queries + solver_queries_avoided is prune-mode
     *  invariant. */
    u64 solver_queries_avoided = 0;
    u64 minimize_bits_before = 0;
    u64 minimize_bits_after = 0;
    u64 generation_failures = 0;
    /** IR block/edge coverage of the unit's semantics CFG (the v2
     *  checkpoint rows; see coverage::CoverageMap). */
    u64 covered_blocks = 0;
    u64 total_blocks = 0;
    u64 covered_edges = 0;
    u64 total_edges = 0;
    /** Why the exploration stopped short (None when complete). */
    coverage::TruncationReason truncation =
        coverage::TruncationReason::None;
    std::vector<CheckpointTest> tests;
};

/**
 * Stage-4/5 results (paper §5-§6.2): counters and root-cause clusters
 * over executed tests. The one record behind PipelineStats, the
 * checkpoint's `counters` row, the campaign merge and corpus replay,
 * so a test is classified the same way wherever it runs.
 */
struct ExecutionTotals
{
    u64 tests_executed = 0;
    u64 lofi_raw_diffs = 0; ///< Lo-Fi vs hardware, before filtering.
    u64 hifi_raw_diffs = 0; ///< Hi-Fi vs hardware, before filtering.
    u64 lofi_diffs = 0;     ///< After undefined-behaviour filtering.
    u64 hifi_diffs = 0;
    u64 filtered_undefined = 0;
    /** Tests excluded from comparison: the hardware oracle timed out.
     *  A timeout on a single emulator backend is NOT counted here —
     *  it is classified as its own root-cause cluster
     *  ("timeout-only-<backend>"). */
    u64 timeouts = 0;
    u64 hifi_timeouts = 0; ///< Per-backend timed_out totals.
    u64 lofi_timeouts = 0;
    u64 hw_timeouts = 0;
    /** Cycle accounting (PipelineOptions::timing; all zero when off).
     *  Totals are summed over executed tests; divergences count tests
     *  whose architectural state matched hardware (after filtering)
     *  but whose cycle total did not — the TimingDivergence class,
     *  disjoint by construction from state diffs and timeouts. */
    u64 hifi_cycles = 0;
    u64 lofi_cycles = 0;
    u64 hw_cycles = 0;
    u64 lofi_timing_divergences = 0;
    u64 hifi_timing_divergences = 0;
    harness::RootCauseClusterer lofi_clusters;
    harness::RootCauseClusterer hifi_clusters;
    /** TimingDivergence clusters (ratio buckets, timing/cost_model.h);
     *  kept apart from the state-diff clusterers above so timing and
     *  state root causes never share a table. */
    harness::RootCauseClusterer lofi_timing_clusters;
    harness::RootCauseClusterer hifi_timing_clusters;

    /**
     * Count and classify one test's three-way execution: diff each
     * emulator against hardware, filter undefined behaviour, cluster
     * what remains. A hardware timeout excludes the test; a timeout on
     * one emulator is its own "timeout-only-<backend>" root cause.
     * With @p timing, a run whose state is clean but whose cycle total
     * differs from hardware's is a TimingDivergence.
     */
    void add_test(u64 id, const arch::DecodedInsn &insn,
                  const harness::BackendRun &hifi,
                  const harness::BackendRun &lofi,
                  const harness::BackendRun &hw, bool timing);

    /** Add @p other's counters and clusters; its test ids pass
     *  through @p remap first. */
    void merge(const ExecutionTotals &other,
               const std::function<u64(u64)> &remap);
};

/** Stage-4/5 progress: the results over the first `executed_count`
 *  generated tests (execution is in test order). */
struct CheckpointExecution : ExecutionTotals
{
    u64 executed_count = 0;
};

/** A pipeline run's persisted progress. */
struct Checkpoint
{
    /** Hash of every option that affects results; resume refuses a
     *  checkpoint written under different options. */
    u64 fingerprint = 0;
    std::vector<CheckpointUnit> explored;
    CheckpointExecution execution;
    /**
     * The quarantine ledger as of this checkpoint. Without it a
     * Generation-stage quarantine of a successfully explored unit
     * would vanish on resume (the unit is in `explored`, so the stage
     * never revisits it) and the resumed campaign's report would
     * under-count what was skipped.
     */
    support::QuarantineReport quarantine;

    const CheckpointUnit *find_unit(int table_index) const;
};

/** Serialize @p checkpoint to @p out (versioned text container). */
void save_checkpoint(std::ostream &out, const Checkpoint &checkpoint);

/** Parse a checkpoint; throws std::logic_error on malformed input. */
Checkpoint load_checkpoint(std::istream &in);

/** Atomic file write (temp file + rename); throws on I/O failure. */
void save_checkpoint_file(const std::string &path,
                          const Checkpoint &checkpoint);

/** Load @p path; nullopt when the file does not exist, throws
 *  std::logic_error when it exists but is malformed. */
std::optional<Checkpoint> load_checkpoint_file(const std::string &path);

} // namespace pokeemu

#endif // POKEEMU_POKEEMU_RESILIENCE_H
