/**
 * @file
 * The PokeEMU pipeline: path-exploration lifting end to end
 * (paper Figure 1).
 *
 *   (1) instruction-set exploration      explore/insn_explorer
 *   (2) machine-state-space exploration  explore/state_explorer
 *   (3) test-program generation          testgen/
 *   (4) test execution                   harness/runner
 *   (5) difference analysis              harness/diff+filter+cluster
 *
 * The Hi-Fi emulator is the exploration artifact; the tests it lifts
 * are executed on the Hi-Fi emulator, the Lo-Fi emulator, and the
 * hardware oracle, and the final states are compared pairwise against
 * hardware, exactly as in the paper's three-way evaluation.
 */
#ifndef POKEEMU_POKEEMU_PIPELINE_H
#define POKEEMU_POKEEMU_PIPELINE_H

#include <optional>

#include "explore/insn_explorer.h"
#include "explore/state_explorer.h"
#include "harness/cluster.h"
#include "harness/runner.h"
#include "pokeemu/resilience.h"
#include "solver/memo.h"
#include "support/fault.h"
#include "testgen/testgen.h"

namespace pokeemu {

struct PipelineOptions
{
    /** Per-instruction path cap. The paper used 8192; the default here
     *  is scaled down so full sweeps finish in CI time. */
    u64 max_paths_per_insn = 48;
    /** Tighter cap for rep-prefixed string instructions, whose
     *  iteration-count paths grow without bound (the paper's ~5% of
     *  instructions that were not exhaustively explored). */
    u64 max_paths_rep = 12;
    u64 seed = 1;
    /** Path-order policy for capped explorations (stage 2). The
     *  frontier scheduler maximizes block/edge coverage under the cap;
     *  DefaultOrder restores the pre-coverage seeded replay order. */
    coverage::SchedulePolicy schedule =
        coverage::SchedulePolicy::UncoveredEdgeFirst;
    /** Explore only these table indices (empty = all). */
    std::vector<int> instruction_filter;
    /** Cap on the number of instructions explored (0 = all). */
    std::size_t max_instructions = 0;
    bool use_descriptor_summary = true;
    bool minimize = true;
    /** Static branch pruning for stage-2 feasibility probes (see
     *  analysis::PruneMode). Path sets and schedules are identical in
     *  both modes; only the queries/avoided split in the stats moves,
     *  which is why the mode is part of the options fingerprint. */
    analysis::PruneMode prune = analysis::PruneMode::On;
    /**
     * IR optimizer for stage-4 interpreted Hi-Fi replay
     * (analysis/optimize.h). Stage-2 exploration always runs the
     * builder-original semantics, so the generated tests — and
     * therefore the difference clusters — are identical in both
     * modes. The optimizer is proven sound at build time (the
     * ir_equiv_all and semgen_crosscheck_all ctests), not per run.
     */
    analysis::OptMode opt = analysis::OptMode::Off;
    /**
     * Compiled-semantics execution for stage-4 Hi-Fi replay
     * (hifi/compiled.h). On dispatches each instruction to its
     * build-time generated native handler (interpreter fallback for
     * unmatched encodings). Final states — and therefore reports —
     * are identical in both modes.
     */
    hifi::CompiledExec compiled = hifi::CompiledExec::Off;
    /**
     * Cycle-fidelity model (timing/cost_model.h, DESIGN.md §16). On
     * enables cycle accounting on all three backends and compares
     * per-test cycle totals against the hardware oracle on runs whose
     * architectural state is otherwise clean; mismatches are counted
     * and clustered as TimingDivergence, separately from state diffs
     * and timeouts. Off (the default) charges nothing and leaves
     * reports byte-identical to a run without the subsystem. Part of
     * the options fingerprint: a checkpoint written under one timing
     * mode refuses to resume under the other.
     */
    bool timing = false;
    lofi::BugConfig bugs{};
    /** Misbehaviour class of the Lo-Fi variant backend (the defect
     *  matrix runs crash/hang/corrupt variants through the full
     *  pipeline to prove per-unit containment at Stage::Backend). */
    lofi::Misbehavior lofi_misbehavior = lofi::Misbehavior::None;
    u64 max_insns_per_test = 1u << 14;
    /** Fault isolation: budgets, checkpoint/resume, chaos plan. */
    ResilienceOptions resilience{};
};

/**
 * Hash of every PipelineOptions field that affects results (not the
 * resilience knobs themselves). A checkpoint records it; resume under
 * different options throws instead of mixing incompatible progress.
 */
u64 options_fingerprint(const PipelineOptions &options);

/** A run's instruction list and the (canonical-encoding) stage-1
 *  summary every campaign layout reports identically. */
struct Workload
{
    std::vector<int> order;
    explore::InsnSetResult insn_set;
};

/**
 * Stage 1 (paper §3.2): the instruction filter as given, or else the
 * representatives of a decoder exploration; capped at
 * max_instructions. Every instruction is explored at its canonical
 * encoding, so every shard layout explores identical bytes.
 */
Workload resolve_workload(const PipelineOptions &options);

/** Everything a pipeline run measures (feeds EXPERIMENTS.md); the
 *  stage-4/5 counters and clusters are the ExecutionTotals base. */
struct PipelineStats : ExecutionTotals
{
    // Stage 1.
    explore::InsnSetResult insn_set;
    // Stage 2.
    u64 instructions_explored = 0;
    u64 instructions_complete = 0; ///< Exhaustive path coverage.
    u64 total_paths = 0;
    u64 solver_queries = 0;
    u64 solver_cache_hits = 0;   ///< Queries answered by the memo.
    u64 solver_cache_misses = 0; ///< Memo-eligible queries solved.
    /** Feasibility probes skipped by static dataflow pruning. The sum
     *  solver_queries + solver_queries_avoided is invariant across
     *  prune modes; reports print the sum so merged output stays
     *  byte-identical whichever mode ran. */
    u64 solver_queries_avoided = 0;
    u64 minimize_bits_before = 0;
    u64 minimize_bits_after = 0;
    /** IR coverage over explored units (sums of per-unit CFG
     *  block/edge coverage; see coverage::CoverageMap). */
    u64 covered_blocks = 0;
    u64 total_blocks = 0;
    u64 covered_edges = 0;
    u64 total_edges = 0;
    /** Units per block-coverage bucket (coverage::coverage_bucket). */
    u64 coverage_histogram[coverage::kNumCoverageBuckets] = {};
    /** Truncation accounting: why capped units stopped short (per
     *  coverage::TruncationReason; None is not counted). Solver
     *  timeouts quarantine the whole unit, so their count is derived
     *  from the ledger — see truncated_solver_timeout(). */
    u64 truncated_path_cap = 0;
    u64 truncated_deadline = 0;
    u64 truncated_step_limit = 0;
    // Stage 3.
    u64 test_programs = 0;
    u64 generation_failures = 0;
    // Stage 4.
    /** Compiled-dispatch accounting (hifi/compiled.h): instructions
     *  retired by a generated handler vs. interpreter fallbacks.
     *  Deliberately absent from to_string() so reports stay
     *  byte-identical across CompiledExec modes. */
    u64 compiled_hits = 0;
    u64 compiled_misses = 0;
    // Fault isolation.
    support::QuarantineReport quarantine;
    u64 budget_retries = 0;    ///< Units granted an escalated retry.
    u64 budget_incomplete = 0; ///< Units still over budget after it.
    u64 units_resumed = 0;     ///< Stage-2/3 units from a checkpoint.
    u64 tests_resumed = 0;     ///< Stage-4/5 tests from a checkpoint.
    u64 checkpoints_written = 0;
    /** The explore_at_most_units / execute_at_most_tests quota ended
     *  the stage with work left over — a later resume continues it.
     *  Both false means the session finished the whole workload. */
    bool explore_preempted = false;
    bool execute_preempted = false;
    // Timing (seconds) per stage.
    double t_insn_exploration = 0;
    double t_state_exploration = 0;
    double t_generation = 0;
    double t_execution_hifi = 0;
    double t_execution_lofi = 0;
    double t_execution_hw = 0;
    double t_comparison = 0;

    /** Fold one explored stage-2/3 unit into the totals: fresh units,
     *  units restored from a checkpoint, and the campaign merge all
     *  count through here. */
    void add_unit(const CheckpointUnit &unit);

    /** Stage-2 units whose exploration a solver timeout cut short
     *  (they carry no CheckpointUnit; the quarantine ledger is the
     *  durable record, so the count is derived from it). */
    u64 truncated_solver_timeout() const;

    /** Any unit stopped short of complete exploration? */
    bool any_truncation() const
    {
        return truncated_path_cap || truncated_deadline ||
            truncated_step_limit || truncated_solver_timeout();
    }

    /**
     * The deterministic report: counts, coverage, quarantine ledger
     * and root causes. Timings and the session-scoped counters
     * (budget_retries, units_resumed, tests_resumed,
     * checkpoints_written) stay out of it, so a merged campaign prints
     * the same text for any shard count, session slicing or resume.
     */
    std::string to_string() const;
};

/** One generated test, kept for re-execution by benches/examples. */
struct GeneratedTest
{
    u64 id;
    int table_index;
    arch::DecodedInsn insn;
    testgen::TestProgram program;
    u32 halt_code; ///< The explored path's classification.
};

/** See file comment. */
class Pipeline
{
  public:
    explicit Pipeline(PipelineOptions options = {});
    ~Pipeline();

    /** Stages 1-3: explore and generate; fills tests(). */
    void explore_and_generate();

    /** Stages 4-5: execute everything and compare. */
    void execute_and_compare();

    /** Full run. */
    const PipelineStats &run();

    const PipelineStats &stats() const { return stats_; }
    const std::vector<GeneratedTest> &tests() const { return tests_; }
    const explore::StateSpec &spec() const { return *spec_; }
    const symexec::Summary &descriptor_summary() const
    {
        return summary_;
    }

    /** The chaos injector's accounting (occurrences/faults per site). */
    const support::FaultInjector &injector() const { return injector_; }

    /** The progress record being built (what write_checkpoint saves);
     *  shard merging reads per-unit rows from here. */
    const Checkpoint &checkpoint() const { return checkpoint_; }

  private:
    /** Quarantine one unit of work and keep sweeping. Returns false
     *  when the entry is not fresh progress: an identical entry was
     *  already ledgered this session, or a prior session's ledger had
     *  it (a resumed session re-attempting a deterministically faulty
     *  unit re-fails quietly). */
    bool quarantine(support::Stage stage, std::string unit,
                    support::FaultClass cls, std::string message);

    /** Restore one completed stage-2/3 unit from the loaded
     *  checkpoint into stats_/tests_. */
    void restore_unit(const CheckpointUnit &unit, u64 &next_test_id);

    /** Write checkpoint_ to the configured path (if any). */
    void write_checkpoint();

    PipelineOptions options_;
    PipelineStats stats_;
    symexec::VarPool summary_pool_;
    symexec::Summary summary_;
    std::unique_ptr<explore::StateSpec> spec_;
    std::vector<GeneratedTest> tests_;
    bool explored_ = false;
    support::FaultInjector injector_;
    /** Solver-query memo for stage 2, cleared at every unit boundary
     *  (begin_unit) so each instruction's exploration stays a pure
     *  function of (instruction, options) — the property the sharded
     *  campaign's byte-identical merge rests on. Hits come from
     *  sibling paths of the same instruction re-checking shared
     *  path-condition prefixes. */
    solver::QueryMemo memo_;
    Checkpoint checkpoint_;              ///< Progress being built.
    std::optional<Checkpoint> resumed_;  ///< Loaded prior progress.
    /** Stage-2 entries from the resumed ledger. Re-attempted units
     *  re-enter the live ledger only if they fail again (a recovered
     *  unit leaves no stale entry); the prior entries are kept aside so
     *  a deterministic re-failure is recognized as old news — logged
     *  quietly and refunded to the session's fresh-unit quota. */
    support::QuarantineReport prior_quarantine_;
};

} // namespace pokeemu

#endif // POKEEMU_POKEEMU_PIPELINE_H
