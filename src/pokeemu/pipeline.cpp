#include "pokeemu/pipeline.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <sstream>

#include "pokeemu/corpus.h"
#include "support/logging.h"
#include "support/rng.h"

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

void
fp_add(u64 &h, u64 v)
{
    h = mix64(h ^ mix64(v));
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

Workload
resolve_workload(const PipelineOptions &options)
{
    Workload w;
    if (!options.instruction_filter.empty()) {
        w.order = options.instruction_filter;
    } else {
        const explore::InsnSetResult full =
            explore::explore_instruction_set(
                {3, 1u << 20, options.seed});
        w.order.reserve(full.representatives.size());
        for (const auto &[index, bytes] : full.representatives)
            w.order.push_back(index);
    }
    if (options.max_instructions &&
        w.order.size() > options.max_instructions) {
        w.order.resize(options.max_instructions);
    }
    for (int index : w.order) {
        w.insn_set.representatives[index] =
            arch::canonical_encoding(index);
    }
    w.insn_set.candidate_sequences = w.order.size();
    return w;
}

Pipeline::Pipeline(PipelineOptions options)
    : options_(options),
      summary_(hifi::summarize_descriptor_load(summary_pool_)),
      injector_(options.resilience.faults)
{
    spec_ = std::make_unique<explore::StateSpec>(
        testgen::baseline_cpu_state(), &summary_);
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
    stats_.add_unit(unit);
    for (const CheckpointTest &saved : unit.tests) {
        // Re-decode the test instruction from the program bytes (the
        // corpus-replay idiom); listing/gadget metadata is not
        // persisted, only what re-execution needs.
        const std::optional<arch::DecodedInsn> insn =
            decode_test_insn(saved.code, saved.test_insn_offset);
        if (!insn) {
            throw std::logic_error(
                "checkpoint: persisted test does not decode");
        }
        GeneratedTest test;
        test.id = saved.id;
        test.table_index = saved.table_index;
        test.insn = *insn;
        test.program.code = saved.code;
        test.program.test_insn_offset = saved.test_insn_offset;
        test.halt_code = saved.halt_code;
        next_test_id = std::max(next_test_id, saved.id + 1);
        tests_.push_back(std::move(test));
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
    auto t0 = std::chrono::steady_clock::now();
    Workload workload = resolve_workload(options_);
    stats_.insn_set = std::move(workload.insn_set);
    stats_.t_insn_exploration = seconds_since(t0);

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
    for (int index : workload.order) {
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

        const std::vector<u8> &bytes =
            stats_.insn_set.representatives.at(index);
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
        }
        stats_.t_generation += seconds_since(t0);

        stats_.add_unit(cu);
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
        start = static_cast<std::size_t>(std::min<u64>(
            resumed_->execution.executed_count, tests_.size()));
        static_cast<ExecutionTotals &>(stats_) = resumed_->execution;
        stats_.tests_resumed = start;
    }

    const auto sync_execution = [&](std::size_t executed_count) {
        checkpoint_.execution.executed_count = executed_count;
        static_cast<ExecutionTotals &>(checkpoint_.execution) = stats_;
    };

    // Reused across tests: each snapshot keeps its page buffers, so a
    // warm run copies the pages it wrote and allocates nothing.
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
            const auto t0 = std::chrono::steady_clock::now();
            stats_.add_test(test.id, test.insn, hifi_run, lofi_run,
                            hw_run, options_.timing);
            stats_.t_comparison += seconds_since(t0);
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

void
PipelineStats::add_unit(const CheckpointUnit &unit)
{
    ++instructions_explored;
    instructions_complete += unit.complete;
    budget_incomplete += unit.budget_incomplete;
    total_paths += unit.paths;
    solver_queries += unit.solver_queries;
    solver_cache_hits += unit.solver_cache_hits;
    solver_cache_misses += unit.solver_cache_misses;
    solver_queries_avoided += unit.solver_queries_avoided;
    minimize_bits_before += unit.minimize_bits_before;
    minimize_bits_after += unit.minimize_bits_after;
    covered_blocks += unit.covered_blocks;
    total_blocks += unit.total_blocks;
    covered_edges += unit.covered_edges;
    total_edges += unit.total_edges;
    ++coverage_histogram[coverage::coverage_bucket(unit.covered_blocks,
                                                   unit.total_blocks)];
    switch (unit.truncation) {
      case coverage::TruncationReason::PathCap:
        ++truncated_path_cap;
        break;
      case coverage::TruncationReason::Deadline:
        ++truncated_deadline;
        break;
      case coverage::TruncationReason::StepLimit:
        ++truncated_step_limit;
        break;
      case coverage::TruncationReason::None:
      case coverage::TruncationReason::SolverTimeout:
        // None is not a truncation; SolverTimeout units never reach a
        // CheckpointUnit (the ledger is their record).
        break;
    }
    test_programs += unit.tests.size();
    generation_failures += unit.generation_failures;
}

std::string
PipelineStats::to_string() const
{
    std::ostringstream os;
    os << "== PokeEMU campaign ==\n";
    os << "workload: " << insn_set.candidate_sequences
       << " instructions\n";
    os << "explored: " << instructions_explored << " instructions, "
       << total_paths << " paths, " << instructions_complete
       << " with complete path coverage\n";
    if (budget_incomplete) {
        os << "budget-incomplete: " << budget_incomplete
           << " instructions\n";
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
    // Print queries + avoided: the sum is invariant across prune
    // modes, so the report stays byte-identical whichever mode ran.
    os << "solver: " << solver_queries + solver_queries_avoided
       << " queries; memo " << solver_cache_hits << " hits, "
       << solver_cache_misses << " misses";
    const u64 memo_total = solver_cache_hits + solver_cache_misses;
    if (memo_total != 0) {
        const double rate = static_cast<double>(solver_cache_hits) /
            static_cast<double>(memo_total);
        os << " (" << std::fixed << std::setprecision(1)
           << rate * 100.0 << "% hit rate)" << std::defaultfloat
           << std::setprecision(6);
    }
    os << "\n";
    os << "minimization: " << minimize_bits_before
       << " differing bits -> " << minimize_bits_after << "\n";
    os << "test programs: " << test_programs << " ("
       << generation_failures << " generation failures)\n";
    os << "tests executed: " << tests_executed << ", " << timeouts
       << " excluded by oracle timeout (timed out: hifi "
       << hifi_timeouts << ", lofi " << lofi_timeouts << ", hw "
       << hw_timeouts << ")\n";
    os << "lofi vs hw: " << lofi_raw_diffs << " raw, " << lofi_diffs
       << " after undefined-behaviour filtering\n";
    os << "hifi vs hw: " << hifi_raw_diffs << " raw, " << hifi_diffs
       << " after filtering\n";
    os << filtered_undefined
       << " differences were entirely undefined behaviour\n";
    // Timing lines are gated on nonzero totals so a timing-off report
    // is byte-identical to a pre-timing one.
    if (hifi_cycles || lofi_cycles || hw_cycles) {
        os << "cycle totals: hifi " << hifi_cycles << ", lofi "
           << lofi_cycles << ", hw " << hw_cycles << "\n";
        os << "timing divergences: lofi " << lofi_timing_divergences
           << ", hifi " << hifi_timing_divergences << "\n";
    }
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
