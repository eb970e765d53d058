#include "pokeemu/pipeline.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>

#include "harness/filter.h"
#include "support/logging.h"
#include "timing/cost_model.h"

namespace pokeemu {

using support::FaultClass;
using support::FaultSite;
using support::Stage;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** splitmix64-style fingerprint accumulation. */
u64
fp_mix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
fp_add(u64 &h, u64 v)
{
    h = fp_mix(h ^ fp_mix(v));
}

/** Fold one explored unit's coverage + truncation row into the
 *  campaign-level accounting (shared by fresh units and resume). */
void
account_unit_coverage(PipelineStats &stats, const CheckpointUnit &unit)
{
    stats.covered_blocks += unit.covered_blocks;
    stats.total_blocks += unit.total_blocks;
    stats.covered_edges += unit.covered_edges;
    stats.total_edges += unit.total_edges;
    ++stats.coverage_histogram[coverage::coverage_bucket(
        unit.covered_blocks, unit.total_blocks)];
    switch (unit.truncation) {
      case coverage::TruncationReason::PathCap:
        ++stats.truncated_path_cap;
        break;
      case coverage::TruncationReason::Deadline:
        ++stats.truncated_deadline;
        break;
      case coverage::TruncationReason::StepLimit:
        ++stats.truncated_step_limit;
        break;
      case coverage::TruncationReason::None:
      case coverage::TruncationReason::SolverTimeout:
        // None is not a truncation; SolverTimeout units never reach a
        // CheckpointUnit (the ledger is their record).
        break;
    }
}

} // namespace

u64
options_fingerprint(const PipelineOptions &options)
{
    u64 h = 0x706f6b65656d7531ULL; // "pokeemu1"
    fp_add(h, options.max_paths_per_insn);
    fp_add(h, options.max_paths_rep);
    fp_add(h, options.seed);
    fp_add(h, static_cast<u64>(options.schedule));
    fp_add(h, options.instruction_filter.size());
    for (int index : options.instruction_filter)
        fp_add(h, static_cast<u64>(index));
    fp_add(h, options.max_instructions);
    fp_add(h, options.use_descriptor_summary);
    fp_add(h, options.minimize);
    // The prune mode never changes results, but it decides how probes
    // split between solver_queries and solver_queries_avoided; resuming
    // a checkpoint under a different mode would mix the two. (The
    // optimizer and compiled dispatch change no checkpointed value, so
    // they stay out.)
    fp_add(h, static_cast<u64>(options.prune));
    // Timing changes what is measured (cycle totals, TimingDivergence
    // counts and clusters are all zero with it off), so a checkpoint
    // written under one mode must not resume under the other.
    fp_add(h, options.timing);
    fp_add(h, options.max_insns_per_test);
    const lofi::BugConfig &b = options.bugs;
    fp_add(h, (u64{b.no_segment_checks} << 0) |
               (u64{b.leave_nonatomic} << 1) |
               (u64{b.cmpxchg_nonatomic} << 2) |
               (u64{b.iret_pop_order} << 3) |
               (u64{b.rdmsr_no_gp} << 4) |
               (u64{b.no_accessed_flag} << 5) |
               (u64{b.reject_valid_encodings} << 6) |
               (u64{b.undef_flags_divergence} << 7) |
               (u64{b.flags_wrong_width} << 8) |
               (u64{b.far_fetch_selector_first} << 9) |
               (u64{b.pte_accessed_dirty_dropped} << 10) |
               (u64{b.seg_limit_off_by_one} << 11) |
               (u64{b.wrmsr_truncated} << 12) |
               (u64{b.half_cycle_accounting} << 13) |
               (u64{b.mem_access_cost_dropped} << 14));
    // A crash/hang/corrupt variant quarantines different tests, so a
    // checkpoint written under one misbehaviour class must not resume
    // under another. (The watchdog budgets are resilience knobs and
    // deliberately stay out of the fingerprint, like all of them.)
    fp_add(h, static_cast<u64>(options.lofi_misbehavior));
    return h;
}

Pipeline::Pipeline(PipelineOptions options)
    : options_(options),
      summary_(hifi::summarize_descriptor_load(summary_pool_)),
      injector_(options.resilience.faults)
{
    spec_ = std::make_unique<explore::StateSpec>(
        testgen::baseline_cpu_state(), testgen::baseline_ram_after_init(),
        &summary_);
    checkpoint_.fingerprint = options_fingerprint(options_);
    const ResilienceOptions &res = options_.resilience;
    if (res.resume && !res.checkpoint_path.empty()) {
        resumed_ = load_checkpoint_file(res.checkpoint_path);
        if (resumed_ &&
            resumed_->fingerprint != checkpoint_.fingerprint) {
            throw std::logic_error(
                "checkpoint: '" + res.checkpoint_path +
                "' was written under different pipeline options; "
                "refusing to resume");
        }
    }
}

Pipeline::~Pipeline() = default;

bool
Pipeline::quarantine(Stage stage, std::string unit, FaultClass cls,
                     std::string message)
{
    // A resumed session re-attempts units the previous session
    // quarantined (they are absent from the checkpoint's explored
    // list); when the fault is deterministic the entry re-occurs
    // verbatim and must not be ledgered twice.
    if (stats_.quarantine.contains(stage, unit, cls, message))
        return false;
    const bool reoccurrence =
        prior_quarantine_.contains(stage, unit, cls, message);
    if (!reoccurrence) {
        log_warn("pipeline: quarantined [", support::stage_name(stage),
                 "] ", unit, ": ", message);
    }
    stats_.quarantine.add(stage, std::move(unit), cls,
                          std::move(message));
    return !reoccurrence;
}

void
Pipeline::write_checkpoint()
{
    if (options_.resilience.checkpoint_path.empty())
        return;
    checkpoint_.quarantine = stats_.quarantine;
    save_checkpoint_file(options_.resilience.checkpoint_path,
                         checkpoint_);
    ++stats_.checkpoints_written;
}

void
Pipeline::restore_unit(const CheckpointUnit &unit, u64 &next_test_id)
{
    ++stats_.instructions_explored;
    if (unit.complete)
        ++stats_.instructions_complete;
    if (unit.budget_incomplete)
        ++stats_.budget_incomplete;
    stats_.total_paths += unit.paths;
    stats_.solver_queries += unit.solver_queries;
    stats_.solver_cache_hits += unit.solver_cache_hits;
    stats_.solver_cache_misses += unit.solver_cache_misses;
    stats_.solver_queries_avoided += unit.solver_queries_avoided;
    stats_.minimize_bits_before += unit.minimize_bits_before;
    stats_.minimize_bits_after += unit.minimize_bits_after;
    stats_.generation_failures += unit.generation_failures;
    account_unit_coverage(stats_, unit);

    for (const CheckpointTest &saved : unit.tests) {
        GeneratedTest test;
        test.id = saved.id;
        test.table_index = saved.table_index;
        // Re-decode the test instruction from the program bytes (the
        // corpus-replay idiom); listing/gadget metadata is not
        // persisted, only what re-execution needs.
        if (saved.test_insn_offset >= saved.code.size())
            throw std::logic_error(
                "checkpoint: test offset out of range");
        u8 buf[arch::kMaxInsnLength] = {};
        const std::size_t n = std::min<std::size_t>(
            arch::kMaxInsnLength,
            saved.code.size() - saved.test_insn_offset);
        std::copy_n(saved.code.begin() + saved.test_insn_offset, n,
                    buf);
        if (arch::decode(buf, arch::kMaxInsnLength, test.insn) !=
            arch::DecodeStatus::Ok) {
            throw std::logic_error(
                "checkpoint: persisted test does not decode");
        }
        test.program.code = saved.code;
        test.program.test_insn_offset = saved.test_insn_offset;
        test.halt_code = saved.halt_code;
        next_test_id = std::max(next_test_id, saved.id + 1);
        tests_.push_back(std::move(test));
        ++stats_.test_programs;
    }
    ++stats_.units_resumed;
}

void
Pipeline::explore_and_generate()
{
    assert(!explored_);
    explored_ = true;

    const ResilienceOptions &res = options_.resilience;
    const BudgetOptions &budgets = res.budgets;
    support::FaultInjector *inj =
        injector_.enabled() ? &injector_ : nullptr;

    // ---- Stage 1: instruction-set exploration (paper §3.2). ----
    // When the caller names the instructions directly, the (costly)
    // decoder exploration is skipped and canonical encodings are used;
    // the full exploration result is memoized across Pipeline
    // instances (it is deterministic for a given seed).
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::pair<int, std::vector<u8>>> selected;
    if (!options_.instruction_filter.empty()) {
        for (int index : options_.instruction_filter) {
            selected.emplace_back(index,
                                  arch::canonical_encoding(index));
            stats_.insn_set.representatives[index] = selected.back()
                                                         .second;
        }
        stats_.insn_set.candidate_sequences = selected.size();
    } else {
        // Shared across Pipeline instances — including ones running in
        // concurrent shard workers — hence the lock.
        static std::mutex memo_mutex;
        static std::map<u64, explore::InsnSetResult> memo;
        std::lock_guard<std::mutex> lock(memo_mutex);
        auto it = memo.find(options_.seed);
        if (it == memo.end()) {
            it = memo.emplace(options_.seed,
                              explore::explore_instruction_set(
                                  {3, 1u << 20, options_.seed}))
                     .first;
        }
        stats_.insn_set = it->second;
        for (const auto &[index, bytes] :
             stats_.insn_set.representatives) {
            selected.emplace_back(index, bytes);
        }
    }
    stats_.t_insn_exploration = seconds_since(t0);
    if (options_.max_instructions &&
        selected.size() > options_.max_instructions) {
        selected.resize(options_.max_instructions);
    }

    // ---- Stages 2+3: per-instruction exploration + generation. ----
    // Each instruction is one quarantinable unit of work: a fault in
    // its exploration or a test's generation is recorded in the
    // quarantine ledger and the sweep continues.
    explore::StateExploreOptions xopt;
    xopt.max_paths = options_.max_paths_per_insn;
    xopt.seed = options_.seed;
    xopt.schedule = options_.schedule;
    xopt.use_descriptor_summary = options_.use_descriptor_summary;
    xopt.minimize = options_.minimize;
    xopt.prune = options_.prune;

    xopt.memo = &memo_;

    u64 next_test_id = 0;
    // Restore checkpointed units first, in checkpoint order: tests_
    // must stay ordered exactly as the checkpoint's execution
    // counters were accumulated (they cover a tests_ prefix), and
    // freshly explored units — e.g. ones a previous session
    // quarantined — must land after that prefix, not interleaved.
    if (resumed_) {
        for (const CheckpointUnit &done : resumed_->explored) {
            restore_unit(done, next_test_id);
            checkpoint_.explored.push_back(done);
        }
        // Replay the persisted ledger (quietly — these were already
        // warned about when first quarantined). Stage-2 entries are
        // NOT replayed into the live ledger: their units are about to
        // be re-attempted, and the re-attempt decides — a unit that
        // now succeeds (the fault was transient) must leave no stale
        // entry, while a deterministic re-failure re-enters via
        // quarantine(), which consults prior_quarantine_ to stay
        // quiet and refund the fresh-unit quota. Entries for work
        // that is never redone (generation of a checkpointed unit,
        // execution of an already-counted test) are replayed as is.
        for (const support::QuarantinedUnit &q :
             resumed_->quarantine.units()) {
            if (q.stage == Stage::StateExploration) {
                prior_quarantine_.add(q.stage, q.unit, q.cls,
                                      q.message);
            } else if (!stats_.quarantine.contains(q.stage, q.unit,
                                                   q.cls, q.message)) {
                stats_.quarantine.add(q.stage, q.unit, q.cls,
                                      q.message);
            }
        }
    }

    u32 units_since_checkpoint = 0;
    u32 fresh_units = 0;
    for (const auto &[index, bytes] : selected) {
        if (resumed_ && resumed_->find_unit(index))
            continue; // Restored above.

        const std::string unit_name =
            "insn " + std::to_string(index) + " (" +
            arch::insn_table()[index].mnemonic + ")";

        // Graceful preemption: a time-sliced shard stops after its
        // quota of fresh units and leaves the rest to a later resume.
        if (res.explore_at_most_units &&
            fresh_units >= res.explore_at_most_units) {
            stats_.explore_preempted = true;
            break;
        }
        ++fresh_units;

        arch::DecodedInsn insn;
        const auto status =
            arch::decode(bytes.data(), bytes.size(), insn);
        if (status != arch::DecodeStatus::Ok ||
            insn.table_index != index) {
            // A deduped (already-ledgered) quarantine refunds the
            // session's fresh-unit quota: known-bad units must not
            // starve later units of slice time forever, or a sliced
            // campaign with deterministic faults would never finish.
            if (!quarantine(Stage::StateExploration, unit_name,
                            FaultClass::Decode,
                            "representative bytes failed to decode")) {
                --fresh_units;
            }
            continue;
        }

        // Unit boundary: entries must not leak across instructions
        // (exploration stays a pure function of the unit — see memo_),
        // but the escalated retry below intentionally reuses entries
        // from this unit's first attempt.
        memo_.begin_unit();

        t0 = std::chrono::steady_clock::now();
        const auto explore_with_budget =
            [&](double scale) -> explore::StateExploreResult {
            explore::StateExploreOptions per_insn = xopt;
            if (insn.rep || insn.repne) {
                per_insn.max_paths =
                    std::min(xopt.max_paths, options_.max_paths_rep);
                per_insn.max_steps = 3000;
            }
            per_insn.deadline = support::Deadline::with(
                static_cast<u64>(
                    static_cast<double>(budgets.insn_exploration_ms) *
                    scale),
                static_cast<u64>(
                    static_cast<double>(
                        budgets.insn_exploration_steps) *
                    scale));
            per_insn.solver_query_ms = static_cast<u64>(
                static_cast<double>(budgets.solver_query_ms) * scale);
            per_insn.solver_query_steps = static_cast<u64>(
                static_cast<double>(budgets.solver_query_steps) *
                scale);
            per_insn.injector = inj;
            return explore_instruction(insn, *spec_, &summary_,
                                       per_insn);
        };

        auto guarded =
            support::try_run([&] { return explore_with_budget(1.0); });
        // Budgets degrade gracefully: one escalated retry before the
        // unit is accepted as incomplete (deadline expiry mid-unit) or
        // quarantined (a solver query that cannot finish in budget).
        const bool over_budget =
            (!guarded.ok() &&
             guarded.cls == FaultClass::SolverTimeout) ||
            (guarded.ok() && guarded->stats.deadline_expired);
        if (over_budget && budgets.escalation > 1.0) {
            ++stats_.budget_retries;
            auto retry = support::try_run(
                [&] { return explore_with_budget(budgets.escalation); });
            if (retry.ok() || !guarded.ok())
                guarded = std::move(retry);
        }
        stats_.t_state_exploration += seconds_since(t0);
        if (!guarded.ok()) {
            // Quota refund on dedup — see the decode-failure site.
            if (!quarantine(Stage::StateExploration, unit_name,
                            guarded.cls, guarded.message)) {
                --fresh_units;
            }
            continue;
        }
        const explore::StateExploreResult explored =
            std::move(*guarded);

        CheckpointUnit cu;
        cu.table_index = index;
        cu.complete = explored.stats.complete;
        cu.budget_incomplete = explored.stats.deadline_expired;
        cu.paths = explored.stats.paths;
        cu.solver_queries = explored.stats.solver_queries;
        cu.solver_cache_hits = memo_.stats().unit_hits;
        cu.solver_cache_misses = memo_.stats().unit_misses;
        cu.solver_queries_avoided =
            explored.stats.solver_queries_avoided;
        cu.minimize_bits_before =
            explored.minimize.bits_different_before;
        cu.minimize_bits_after = explored.minimize.bits_different_after;
        cu.covered_blocks = explored.stats.covered_blocks;
        cu.total_blocks = explored.stats.total_blocks;
        cu.covered_edges = explored.stats.covered_edges;
        cu.total_edges = explored.stats.total_edges;
        cu.truncation = explored.stats.truncation;
        // Cycle-cost columns (checkpoint v5): the model is static, so
        // these are recorded whether or not this campaign charges
        // cycles — every checkpoint documents the costs in force.
        const timing::UnitCost unit_cost =
            timing::cost_model().cost_for(insn);
        cu.cost_base = unit_cost.base;
        cu.cost_mem_accesses = unit_cost.mem_accesses;
        cu.cost_fault_extra = unit_cost.fault_extra;

        ++stats_.instructions_explored;
        if (explored.stats.complete)
            ++stats_.instructions_complete;
        if (explored.stats.deadline_expired)
            ++stats_.budget_incomplete;
        stats_.total_paths += explored.stats.paths;
        stats_.solver_queries += explored.stats.solver_queries;
        stats_.solver_cache_hits += cu.solver_cache_hits;
        stats_.solver_cache_misses += cu.solver_cache_misses;
        stats_.solver_queries_avoided +=
            explored.stats.solver_queries_avoided;
        stats_.minimize_bits_before +=
            explored.minimize.bits_different_before;
        stats_.minimize_bits_after +=
            explored.minimize.bits_different_after;
        account_unit_coverage(stats_, cu);

        // Stage 3: one test program per path (paper Figure 1(3)).
        // Each test's generation is its own quarantinable unit.
        t0 = std::chrono::steady_clock::now();
        for (std::size_t p = 0; p < explored.paths.size(); ++p) {
            const explore::ExploredPath &path = explored.paths[p];
            auto gen = support::try_run([&] {
                if (inj) {
                    inj->maybe_fail(FaultSite::Generation,
                                    "testgen: " + unit_name);
                }
                return testgen::generate_test_program(
                    insn, path.assignment, *spec_, explored.pool);
            });
            if (!gen.ok()) {
                quarantine(Stage::Generation,
                           unit_name + " path " + std::to_string(p),
                           gen.cls, gen.message);
                continue;
            }
            if (gen->status != testgen::GenStatus::Ok) {
                ++stats_.generation_failures;
                ++cu.generation_failures;
                continue;
            }
            GeneratedTest test;
            test.id = next_test_id++;
            test.table_index = index;
            test.insn = insn;
            test.program = std::move(gen->program);
            test.halt_code = path.halt_code;

            CheckpointTest saved;
            saved.id = test.id;
            saved.table_index = index;
            saved.test_insn_offset = test.program.test_insn_offset;
            saved.halt_code = test.halt_code;
            saved.code = test.program.code;
            cu.tests.push_back(std::move(saved));

            tests_.push_back(std::move(test));
            ++stats_.test_programs;
        }
        stats_.t_generation += seconds_since(t0);

        checkpoint_.explored.push_back(std::move(cu));
        if (++units_since_checkpoint >=
            res.checkpoint_every_units) {
            units_since_checkpoint = 0;
            write_checkpoint();
        }
    }
    if (units_since_checkpoint != 0)
        write_checkpoint();
}

void
Pipeline::execute_and_compare()
{
    const ResilienceOptions &res = options_.resilience;
    harness::TestRunner::Config cfg;
    cfg.bugs = options_.bugs;
    // Stage-4 Hi-Fi replay runs optimized semantics when the optimizer
    // is on (the concrete-replay speedup the optimizer exists for);
    // exploration already happened on the original, so the test set is
    // the same either way.
    cfg.hifi_options.opt = options_.opt;
    // Compiled handlers replace the IR interpreter per instruction;
    // dispatch misses fall back to interpretation inside the emulator.
    cfg.hifi_options.compiled = options_.compiled;
    cfg.max_insns = options_.max_insns_per_test;
    cfg.timing = options_.timing;
    cfg.injector = injector_.enabled() ? &injector_ : nullptr;
    cfg.lofi_misbehavior = options_.lofi_misbehavior;
    cfg.watchdog_insns = res.budgets.test_watchdog_insns;
    cfg.watchdog_wall_ms = res.budgets.test_watchdog_ms;
    harness::TestRunner runner(cfg);

    // Resume: execution proceeds in test order, so the checkpoint's
    // counters and clusters cover exactly the first executed_count
    // tests; restore them and skip that prefix.
    std::size_t start = 0;
    if (resumed_ && resumed_->execution.executed_count > 0) {
        const CheckpointExecution &e = resumed_->execution;
        start = static_cast<std::size_t>(
            std::min<u64>(e.executed_count, tests_.size()));
        stats_.tests_executed = e.tests_executed;
        stats_.lofi_raw_diffs = e.lofi_raw_diffs;
        stats_.hifi_raw_diffs = e.hifi_raw_diffs;
        stats_.lofi_diffs = e.lofi_diffs;
        stats_.hifi_diffs = e.hifi_diffs;
        stats_.filtered_undefined = e.filtered_undefined;
        stats_.timeouts = e.timeouts;
        stats_.hifi_timeouts = e.hifi_timeouts;
        stats_.lofi_timeouts = e.lofi_timeouts;
        stats_.hw_timeouts = e.hw_timeouts;
        stats_.hifi_cycles = e.hifi_cycles;
        stats_.lofi_cycles = e.lofi_cycles;
        stats_.hw_cycles = e.hw_cycles;
        stats_.lofi_timing_divergences = e.lofi_timing_divergences;
        stats_.hifi_timing_divergences = e.hifi_timing_divergences;
        stats_.lofi_clusters = e.lofi_clusters;
        stats_.hifi_clusters = e.hifi_clusters;
        stats_.lofi_timing_clusters = e.lofi_timing_clusters;
        stats_.hifi_timing_clusters = e.hifi_timing_clusters;
        stats_.tests_resumed = start;
    }

    const auto sync_execution = [&](std::size_t executed_count) {
        CheckpointExecution &e = checkpoint_.execution;
        e.executed_count = executed_count;
        e.tests_executed = stats_.tests_executed;
        e.lofi_raw_diffs = stats_.lofi_raw_diffs;
        e.hifi_raw_diffs = stats_.hifi_raw_diffs;
        e.lofi_diffs = stats_.lofi_diffs;
        e.hifi_diffs = stats_.hifi_diffs;
        e.filtered_undefined = stats_.filtered_undefined;
        e.timeouts = stats_.timeouts;
        e.hifi_timeouts = stats_.hifi_timeouts;
        e.lofi_timeouts = stats_.lofi_timeouts;
        e.hw_timeouts = stats_.hw_timeouts;
        e.hifi_cycles = stats_.hifi_cycles;
        e.lofi_cycles = stats_.lofi_cycles;
        e.hw_cycles = stats_.hw_cycles;
        e.lofi_timing_divergences = stats_.lofi_timing_divergences;
        e.hifi_timing_divergences = stats_.hifi_timing_divergences;
        e.lofi_clusters = stats_.lofi_clusters;
        e.hifi_clusters = stats_.hifi_clusters;
        e.lofi_timing_clusters = stats_.lofi_timing_clusters;
        e.hifi_timing_clusters = stats_.hifi_timing_clusters;
    };

    // Reused across tests: fresh 4 MiB snapshot allocations per test
    // would dominate (and distort) the measured execution costs.
    harness::BackendRun hifi_run, lofi_run, hw_run;
    u32 tests_since_checkpoint = 0;
    std::size_t done = start;
    for (std::size_t i = start; i < tests_.size(); ++i) {
        // Graceful preemption (see explore_and_generate).
        if (res.execute_at_most_tests &&
            i - start >= res.execute_at_most_tests) {
            stats_.execute_preempted = true;
            break;
        }
        const GeneratedTest &test = tests_[i];
        // One test's three-way execution is one quarantinable unit.
        bool exec_faulted = false;
        try {
            auto t0 = std::chrono::steady_clock::now();
            runner.run_one_into(harness::Backend::HiFi,
                                test.program.code, hifi_run);
            stats_.t_execution_hifi += seconds_since(t0);

            t0 = std::chrono::steady_clock::now();
            runner.run_one_into(harness::Backend::LoFi,
                                test.program.code, lofi_run);
            stats_.t_execution_lofi += seconds_since(t0);

            t0 = std::chrono::steady_clock::now();
            runner.run_one_into(harness::Backend::Hardware,
                                test.program.code, hw_run);
            stats_.t_execution_hw += seconds_since(t0);
        } catch (const support::FaultError &e) {
            // Misbehaving-backend faults (crash, watchdog hang,
            // corrupt snapshot) are their own stage: the defect
            // matrix scores containment separately from ordinary
            // execution refusals.
            quarantine(support::is_backend_fault(e.fault_class())
                           ? Stage::Backend
                           : Stage::Execution,
                       "test " + std::to_string(test.id),
                       e.fault_class(), e.what());
            exec_faulted = true;
        } catch (const std::exception &e) {
            quarantine(Stage::Execution,
                       "test " + std::to_string(test.id),
                       FaultClass::Internal, e.what());
            exec_faulted = true;
        }

        if (!exec_faulted) {
            ++stats_.tests_executed;
            stats_.hifi_timeouts += hifi_run.timed_out;
            stats_.lofi_timeouts += lofi_run.timed_out;
            stats_.hw_timeouts += hw_run.timed_out;
            // Cycle totals over every executed test (all zero with
            // timing off: no backend ever charges then).
            stats_.hifi_cycles += hifi_run.snapshot.cycles;
            stats_.lofi_cycles += lofi_run.snapshot.cycles;
            stats_.hw_cycles += hw_run.snapshot.cycles;

            if (hw_run.timed_out) {
                // No oracle to compare against: excluded entirely.
                ++stats_.timeouts;
            } else {
                auto t0 = std::chrono::steady_clock::now();
                const auto analyze =
                    [&](const harness::BackendRun &run, u64 &raw,
                        u64 &real, harness::RootCauseClusterer &cl,
                        u64 &timing_div,
                        harness::RootCauseClusterer &timing_cl,
                        const char *backend) {
                        if (run.timed_out) {
                            // A timeout on one backend is its own
                            // root cause — comparing its (mid-flight)
                            // snapshot against hardware would report
                            // a spurious state diff.
                            ++raw;
                            ++real;
                            cl.add_named(
                                test.id, test.insn,
                                std::string("timeout-only-") +
                                    backend);
                            return;
                        }
                        const arch::SnapshotDiff diff =
                            arch::diff_snapshots(run.snapshot,
                                                 hw_run.snapshot);
                        bool state_clean = diff.empty();
                        if (!diff.empty()) {
                            ++raw;
                            const harness::FilterResult filtered =
                                harness::filter_undefined(
                                    test.insn, run.snapshot,
                                    hw_run.snapshot, diff);
                            if (filtered.fully_filtered()) {
                                ++stats_.filtered_undefined;
                                state_clean = true;
                            } else {
                                ++real;
                                cl.add(test.id, test.insn,
                                       filtered.remaining,
                                       run.snapshot, hw_run.snapshot);
                            }
                        }
                        // TimingDivergence (DESIGN.md §16): compared
                        // only on runs whose architectural state is
                        // otherwise clean, so timing clusters never
                        // overlap state-diff or timeout clusters.
                        if (options_.timing && state_clean &&
                            run.snapshot.cycles !=
                                hw_run.snapshot.cycles) {
                            ++timing_div;
                            timing_cl.add_named(
                                test.id, test.insn,
                                timing::divergence_label(
                                    hw_run.snapshot.cycles,
                                    run.snapshot.cycles, backend));
                        }
                    };
                analyze(lofi_run, stats_.lofi_raw_diffs,
                        stats_.lofi_diffs, stats_.lofi_clusters,
                        stats_.lofi_timing_divergences,
                        stats_.lofi_timing_clusters, "lofi");
                analyze(hifi_run, stats_.hifi_raw_diffs,
                        stats_.hifi_diffs, stats_.hifi_clusters,
                        stats_.hifi_timing_divergences,
                        stats_.hifi_timing_clusters, "hifi");
                stats_.t_comparison += seconds_since(t0);
            }
        }

        done = i + 1;
        if (++tests_since_checkpoint >= res.checkpoint_every_tests) {
            tests_since_checkpoint = 0;
            sync_execution(done);
            write_checkpoint();
        }
    }
    sync_execution(done);
    stats_.compiled_hits += runner.hifi().compiled_hits();
    stats_.compiled_misses += runner.hifi().compiled_misses();
    if (tests_since_checkpoint != 0 || done == start)
        write_checkpoint();
}

const PipelineStats &
Pipeline::run()
{
    explore_and_generate();
    execute_and_compare();
    return stats_;
}

u64
PipelineStats::truncated_solver_timeout() const
{
    u64 n = 0;
    for (const support::QuarantinedUnit &q : quarantine.units()) {
        if (q.stage == Stage::StateExploration &&
            q.cls == FaultClass::SolverTimeout) {
            ++n;
        }
    }
    return n;
}

std::string
PipelineStats::to_string() const
{
    std::ostringstream os;
    os << "== PokeEMU pipeline ==\n";
    os << "stage 1 (instruction-set exploration): "
       << insn_set.candidate_sequences << " candidate sequences -> "
       << insn_set.representatives.size() << " unique instructions ("
       << t_insn_exploration << "s)\n";
    os << "stage 2 (state exploration): " << instructions_explored
       << " instructions, " << total_paths << " paths, "
       << instructions_complete << " with complete path coverage ("
       << t_state_exploration << "s, "
       << solver_queries + solver_queries_avoided
       << " solver queries)\n";
    if (solver_queries_avoided) {
        os << "static pruning: " << solver_queries_avoided
           << " of those probes decided without the solver\n";
    }
    if (solver_cache_hits || solver_cache_misses) {
        const double rate = static_cast<double>(solver_cache_hits) /
            static_cast<double>(solver_cache_hits +
                                solver_cache_misses);
        os << "solver memo: " << solver_cache_hits << " hits, "
           << solver_cache_misses << " misses (" << std::fixed
           << std::setprecision(1) << rate * 100.0 << "% hit rate)\n"
           << std::defaultfloat << std::setprecision(6);
    }
    if (budget_retries || budget_incomplete) {
        os << "budgets: " << budget_retries << " escalated retries, "
           << budget_incomplete << " instructions budget-incomplete\n";
    }
    if (total_blocks != 0) {
        const auto pct = [](u64 covered, u64 total) {
            return total == 0
                ? 100.0
                : 100.0 * static_cast<double>(covered) /
                    static_cast<double>(total);
        };
        os << "IR coverage: " << covered_blocks << "/" << total_blocks
           << " blocks (" << std::fixed << std::setprecision(1)
           << pct(covered_blocks, total_blocks) << "%), "
           << covered_edges << "/" << total_edges << " edges ("
           << pct(covered_edges, total_edges) << "%)\n"
           << std::defaultfloat << std::setprecision(6);
        os << "coverage histogram:";
        for (u32 b = 0; b < coverage::kNumCoverageBuckets; ++b) {
            os << " " << coverage::coverage_bucket_name(b) << "="
               << coverage_histogram[b];
        }
        os << "\n";
    }
    if (any_truncation()) {
        os << "truncated explorations: path-cap " << truncated_path_cap
           << ", deadline " << truncated_deadline << ", step-limit "
           << truncated_step_limit << ", solver-timeout "
           << truncated_solver_timeout() << "\n";
    }
    os << "minimization: " << minimize_bits_before
       << " differing bits -> " << minimize_bits_after << "\n";
    os << "stage 3 (test generation): " << test_programs
       << " test programs, " << generation_failures << " failures ("
       << t_generation << "s)\n";
    os << "stage 4 (execution): " << tests_executed << " tests ("
       << "hifi " << t_execution_hifi << "s, lofi " << t_execution_lofi
       << "s, hw " << t_execution_hw << "s), " << timeouts
       << " excluded by oracle timeout (timed out: hifi "
       << hifi_timeouts << ", lofi " << lofi_timeouts << ", hw "
       << hw_timeouts << ")\n";
    os << "stage 5 (comparison, " << t_comparison << "s):\n";
    os << "  lofi vs hw: " << lofi_raw_diffs << " raw, " << lofi_diffs
       << " after undefined-behaviour filtering\n";
    os << "  hifi vs hw: " << hifi_raw_diffs << " raw, " << hifi_diffs
       << " after filtering\n";
    os << "  " << filtered_undefined
       << " differences were entirely undefined behaviour\n";
    // Timing lines are gated on nonzero totals so a timing-off report
    // is byte-identical to one from a build without the subsystem.
    if (hifi_cycles || lofi_cycles || hw_cycles) {
        os << "cycle totals: hifi " << hifi_cycles << ", lofi "
           << lofi_cycles << ", hw " << hw_cycles << "\n";
        os << "timing divergences: lofi " << lofi_timing_divergences
           << ", hifi " << hifi_timing_divergences << "\n";
    }
    if (units_resumed || tests_resumed) {
        os << "resume: " << units_resumed << " instructions and "
           << tests_resumed << " executed tests from checkpoint\n";
    }
    if (checkpoints_written)
        os << "checkpoints written: " << checkpoints_written << "\n";
    if (quarantine.total() != 0)
        os << quarantine.to_string();
    os << "lofi root causes:\n" << lofi_clusters.to_string();
    os << "hifi root causes:\n" << hifi_clusters.to_string();
    if (lofi_timing_clusters.total() || hifi_timing_clusters.total()) {
        os << "lofi timing divergences:\n"
           << lofi_timing_clusters.to_string();
        os << "hifi timing divergences:\n"
           << hifi_timing_clusters.to_string();
    }
    return os.str();
}

} // namespace pokeemu
