/**
 * @file
 * Unit tests for the fault-isolation layer: Deadline budgets,
 * Guarded/try_run containment, deterministic fault injection, the
 * quarantine ledger, checkpoint serialization, and the per-site
 * fault-injection matrix over a small pipeline (each injectable site,
 * asserting which stage quarantines and what survives).
 */
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>

#include "harness/runner.h"
#include "pokeemu/pipeline.h"
#include "support/fault.h"
#include "testgen/testgen.h"

namespace pokeemu {
namespace {

using support::Deadline;
using support::FaultClass;
using support::FaultError;
using support::FaultInjector;
using support::FaultPlan;
using support::FaultSite;
using support::Stage;

// ---------------------------------------------------------------------
// Deadline.
// ---------------------------------------------------------------------

TEST(Deadline, DefaultIsUnlimited)
{
    Deadline d;
    EXPECT_FALSE(d.limited());
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(d.consume());
    EXPECT_FALSE(d.expired());
}

TEST(Deadline, StepBudgetExpiresDeterministically)
{
    Deadline d = Deadline::steps(10);
    EXPECT_TRUE(d.limited());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(d.consume()) << "step " << i;
    EXPECT_TRUE(d.consume());
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.steps_used(), 11u);
}

TEST(Deadline, ZeroMillisecondsExpiresImmediately)
{
    Deadline d = Deadline::after_ms(0);
    EXPECT_TRUE(d.limited());
    EXPECT_TRUE(d.expired());
    EXPECT_TRUE(d.consume()); // First consume samples the wall clock.
}

TEST(Deadline, WithZeroZeroIsUnlimited)
{
    Deadline d = Deadline::with(0, 0);
    EXPECT_FALSE(d.limited());
    EXPECT_FALSE(d.consume(1u << 20));
}

// ---------------------------------------------------------------------
// Guarded / try_run.
// ---------------------------------------------------------------------

TEST(TryRun, CapturesValue)
{
    auto g = support::try_run([] { return 41 + 1; });
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(*g, 42);
}

TEST(TryRun, CapturesFaultErrorWithClass)
{
    auto g = support::try_run([]() -> int {
        throw FaultError(FaultClass::SolverTimeout, "too slow");
    });
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(g.cls, FaultClass::SolverTimeout);
    EXPECT_EQ(g.message, "too slow");
}

TEST(TryRun, ClassifiesForeignExceptionsAsInternal)
{
    auto g = support::try_run(
        []() -> int { throw std::logic_error("pokeemu panic: oops"); });
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(g.cls, FaultClass::Internal);
}

// ---------------------------------------------------------------------
// FaultInjector.
// ---------------------------------------------------------------------

TEST(FaultInjector, DisabledByDefault)
{
    FaultInjector inj;
    EXPECT_FALSE(inj.enabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_NO_THROW(inj.maybe_fail(FaultSite::SolverQuery, "x"));
    EXPECT_EQ(inj.total_injected(), 0u);
}

TEST(FaultInjector, CertainFaultAlwaysThrowsInjected)
{
    FaultInjector inj(FaultPlan::only(FaultSite::Generation, 1.0));
    try {
        inj.maybe_fail(FaultSite::Generation, "here");
        FAIL() << "expected FaultError";
    } catch (const FaultError &e) {
        EXPECT_EQ(e.fault_class(), FaultClass::Injected);
    }
    EXPECT_EQ(inj.injected(FaultSite::Generation), 1u);
    EXPECT_EQ(inj.occurrences(FaultSite::Generation), 1u);
}

TEST(FaultInjector, DisarmedSiteNeverFails)
{
    // only() arms exactly one site; the others see occurrences but
    // never fault even at probability 1.
    FaultInjector inj(FaultPlan::only(FaultSite::Generation, 1.0));
    for (int i = 0; i < 50; ++i)
        EXPECT_NO_THROW(inj.maybe_fail(FaultSite::BackendHw, "x"));
    EXPECT_EQ(inj.occurrences(FaultSite::BackendHw), 50u);
    EXPECT_EQ(inj.injected(FaultSite::BackendHw), 0u);
}

/** Which occurrence indices of @p site fault under @p plan. */
std::vector<int>
faulting_occurrences(const FaultPlan &plan, FaultSite site, int n)
{
    FaultInjector inj(plan);
    std::vector<int> out;
    for (int i = 0; i < n; ++i) {
        try {
            inj.maybe_fail(site, "probe");
        } catch (const FaultError &) {
            out.push_back(i);
        }
    }
    return out;
}

TEST(FaultInjector, StreamsAreDeterministicAndSeedDependent)
{
    FaultPlan plan;
    plan.probability = 0.2;
    plan.seed = 7;
    const auto a =
        faulting_occurrences(plan, FaultSite::Exploration, 200);
    const auto b =
        faulting_occurrences(plan, FaultSite::Exploration, 200);
    EXPECT_EQ(a, b) << "same seed must fault the same occurrences";
    EXPECT_FALSE(a.empty());
    EXPECT_LT(a.size(), 200u);

    plan.seed = 8;
    const auto c =
        faulting_occurrences(plan, FaultSite::Exploration, 200);
    EXPECT_NE(a, c) << "different seed must pick different occurrences";
}

TEST(FaultInjector, StreamsArePerSiteIndependent)
{
    // Interleaving other sites' occurrences must not shift a site's
    // stream: occurrence i of site s always draws the same hash.
    FaultPlan plan;
    plan.probability = 0.2;
    plan.seed = 3;
    const auto pure =
        faulting_occurrences(plan, FaultSite::BackendLoFi, 100);

    FaultInjector inj(plan);
    std::vector<int> interleaved;
    for (int i = 0; i < 100; ++i) {
        try {
            inj.maybe_fail(FaultSite::SolverQuery, "noise");
        } catch (const FaultError &) {
        }
        try {
            inj.maybe_fail(FaultSite::BackendLoFi, "probe");
        } catch (const FaultError &) {
            interleaved.push_back(i);
        }
    }
    EXPECT_EQ(pure, interleaved);
}

TEST(FaultInjector, UnitKeyedDecisionsIgnoreOccurrenceOrder)
{
    // key_by_unit hashes the `where` string: the verdict for a unit is
    // the same no matter how many occurrences preceded it — the
    // property that makes chaos plans reproducible across shard
    // layouts and resumed sessions.
    FaultPlan plan;
    plan.probability = 0.5;
    plan.seed = 9;
    plan.key_by_unit = true;

    const auto fails = [&](FaultInjector &inj, const std::string &w) {
        try {
            inj.maybe_fail(FaultSite::Exploration, w);
            return false;
        } catch (const FaultError &) {
            return true;
        }
    };

    std::vector<std::string> units;
    for (int i = 0; i < 64; ++i)
        units.push_back("insn " + std::to_string(i));

    FaultInjector forward(plan);
    FaultInjector backward(plan);
    std::map<std::string, bool> verdict_fwd, verdict_bwd;
    for (const std::string &u : units)
        verdict_fwd[u] = fails(forward, u);
    for (auto it = units.rbegin(); it != units.rend(); ++it)
        verdict_bwd[*it] = fails(backward, *it);
    EXPECT_EQ(verdict_fwd, verdict_bwd);

    // Both verdicts occur at p=0.5 over 64 units (overwhelmingly).
    bool any_fail = false, any_pass = false;
    for (const auto &[unit, failed] : verdict_fwd) {
        any_fail |= failed;
        any_pass |= !failed;
    }
    EXPECT_TRUE(any_fail);
    EXPECT_TRUE(any_pass);

    // Re-asking about the same unit repeats its verdict.
    FaultInjector again(plan);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(fails(again, "insn 0"), verdict_fwd["insn 0"]);
}

TEST(FaultInjector, UnitKeyedMessageOmitsOccurrenceNumber)
{
    // The injected message must be occurrence-free so a resumed
    // session's re-attempt dedups against the persisted ledger entry.
    FaultPlan plan = FaultPlan::only(FaultSite::Exploration, 1.0, 1);
    plan.key_by_unit = true;
    FaultInjector inj(plan);
    std::string first, second;
    try {
        inj.maybe_fail(FaultSite::Exploration, "insn 7 (iret)");
    } catch (const FaultError &e) {
        first = e.what();
    }
    try {
        inj.maybe_fail(FaultSite::Exploration, "insn 7 (iret)");
    } catch (const FaultError &e) {
        second = e.what();
    }
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.find("occurrence"), std::string::npos);
    EXPECT_NE(first.find("insn 7 (iret)"), std::string::npos);
}

// ---------------------------------------------------------------------
// QuarantineReport.
// ---------------------------------------------------------------------

TEST(QuarantineReport, CountsByStageAndClass)
{
    support::QuarantineReport report;
    report.add(Stage::StateExploration, "insn 1",
               FaultClass::SolverTimeout, "m1");
    report.add(Stage::StateExploration, "insn 2", FaultClass::Decode,
               "m2");
    report.add(Stage::Execution, "test 9", FaultClass::Injected, "m3");
    EXPECT_EQ(report.total(), 3u);
    EXPECT_EQ(report.count(Stage::StateExploration), 2u);
    EXPECT_EQ(report.count(Stage::Execution), 1u);
    EXPECT_EQ(report.count(Stage::Generation), 0u);
    EXPECT_EQ(report.count(FaultClass::SolverTimeout), 1u);
    EXPECT_EQ(report.count(FaultClass::Internal), 0u);
    const std::string text = report.to_string();
    EXPECT_NE(text.find("insn 2"), std::string::npos);
    EXPECT_NE(text.find("solver-timeout"), std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint serialization.
// ---------------------------------------------------------------------

Checkpoint
sample_checkpoint()
{
    Checkpoint cp;
    cp.fingerprint = 0xdeadbeefcafeULL;
    CheckpointUnit unit;
    unit.table_index = 50;
    unit.complete = true;
    unit.paths = 9;
    unit.solver_queries = 17;
    unit.solver_queries_avoided = 5;
    unit.minimize_bits_before = 300;
    unit.minimize_bits_after = 40;
    unit.generation_failures = 1;
    CheckpointTest test;
    test.id = 4;
    test.table_index = 50;
    test.test_insn_offset = 2;
    test.halt_code = 0xb0;
    test.code = {0x90, 0x90, 0x50, 0xf4};
    unit.tests.push_back(test);
    cp.explored.push_back(unit);
    cp.execution.executed_count = 1;
    cp.execution.tests_executed = 1;
    cp.execution.lofi_diffs = 1;
    cp.execution.lofi_raw_diffs = 1;
    arch::DecodedInsn insn;
    EXPECT_EQ(arch::decode(test.code.data() + 2, 2, insn),
              arch::DecodeStatus::Ok);
    cp.execution.lofi_clusters.add_named(4, insn, "test-cause");
    return cp;
}

TEST(Checkpoint, SaveLoadRoundTrip)
{
    const Checkpoint cp = sample_checkpoint();
    std::stringstream ss;
    save_checkpoint(ss, cp);
    // The exact v7 text: every checkpoint already on disk was written
    // in this layout, so a reordered row must fail here, not load with
    // its columns shifted.
    EXPECT_EQ(ss.str(), "pokeemu-checkpoint-v7\n"
                        "fingerprint 244837814094590\n"
                        "explored 1\n"
                        "unit 50 1 0 9 17 0 0 5 300 40 1 0 0 0 0 0 1\n"
                        "test 4 50 2 176 909050f4\n"
                        "executed 1\n"
                        "counters 1 1 0 1 0 0 0 0 0 0 0 0 0 0 0\n"
                        "clusters 1\n"
                        "test-cause 1 4 1 push\n"
                        "clusters 0\n"
                        "clusters 0\n"
                        "clusters 0\n"
                        "quarantined 0\n"
                        "end\n");
    const Checkpoint back = load_checkpoint(ss);

    EXPECT_EQ(back.fingerprint, cp.fingerprint);
    ASSERT_EQ(back.explored.size(), 1u);
    const CheckpointUnit &unit = back.explored[0];
    EXPECT_EQ(unit.table_index, 50);
    EXPECT_TRUE(unit.complete);
    EXPECT_FALSE(unit.budget_incomplete);
    EXPECT_EQ(unit.paths, 9u);
    EXPECT_EQ(unit.solver_queries, 17u);
    EXPECT_EQ(unit.solver_queries_avoided, 5u);
    EXPECT_EQ(unit.minimize_bits_before, 300u);
    EXPECT_EQ(unit.minimize_bits_after, 40u);
    EXPECT_EQ(unit.generation_failures, 1u);
    ASSERT_EQ(unit.tests.size(), 1u);
    EXPECT_EQ(unit.tests[0].id, 4u);
    EXPECT_EQ(unit.tests[0].test_insn_offset, 2u);
    EXPECT_EQ(unit.tests[0].halt_code, 0xb0u);
    EXPECT_EQ(unit.tests[0].code, cp.explored[0].tests[0].code);
    EXPECT_EQ(back.execution.executed_count, 1u);
    EXPECT_EQ(back.execution.lofi_diffs, 1u);
    ASSERT_EQ(back.execution.lofi_clusters.clusters().size(), 1u);
    EXPECT_EQ(back.execution.lofi_clusters.clusters()[0].root_cause,
              "test-cause");
    EXPECT_NE(back.find_unit(50), nullptr);
    EXPECT_EQ(back.find_unit(51), nullptr);
}

TEST(Checkpoint, CountersRowKeepsV6ColumnOrder)
{
    // The v6 `counters` columns in file order; distinct values pin
    // every column, including the ones sample_checkpoint leaves zero.
    const auto columns = [](ExecutionTotals &e) {
        return std::array<u64 *, 15>{
            &e.tests_executed, &e.lofi_raw_diffs, &e.hifi_raw_diffs,
            &e.lofi_diffs, &e.hifi_diffs, &e.filtered_undefined,
            &e.timeouts, &e.hifi_timeouts, &e.lofi_timeouts,
            &e.hw_timeouts, &e.hifi_cycles, &e.lofi_cycles,
            &e.hw_cycles, &e.lofi_timing_divergences,
            &e.hifi_timing_divergences};
    };
    Checkpoint cp = sample_checkpoint();
    u64 value = 0;
    for (u64 *column : columns(cp.execution))
        *column = ++value;
    std::stringstream ss;
    save_checkpoint(ss, cp);
    EXPECT_NE(ss.str().find(
                  "\ncounters 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n"),
              std::string::npos)
        << ss.str();
    Checkpoint back = load_checkpoint(ss);
    value = 0;
    for (u64 *column : columns(back.execution))
        EXPECT_EQ(*column, ++value);
}

TEST(Checkpoint, MalformedInputRejected)
{
    const auto load_from = [](const std::string &text) {
        std::istringstream in(text);
        return load_checkpoint(in);
    };
    EXPECT_THROW(load_from(""), std::logic_error);
    EXPECT_THROW(load_from("not-a-checkpoint v9"), std::logic_error);
    // Truncated: header promises a unit that never follows.
    EXPECT_THROW(
        load_from("pokeemu-checkpoint-v7\nfingerprint 1\nexplored 1\n"),
        std::logic_error);

    // A valid stream with the trailing 'end' clipped off.
    std::stringstream ss;
    save_checkpoint(ss, sample_checkpoint());
    std::string text = ss.str();
    text.resize(text.rfind("end"));
    EXPECT_THROW(load_from(text), std::logic_error);
}

TEST(Checkpoint, OldVersionRefusedByName)
{
    // An older header is a recognized-but-stale format: the error must
    // name the found version and the current one so the operator knows
    // to restart rather than suspect corruption.
    for (int v = 1; v <= 6; ++v) {
        const std::string old =
            "pokeemu-checkpoint-v" + std::to_string(v);
        std::istringstream in(old + "\nfingerprint 1\n");
        try {
            load_checkpoint(in);
            FAIL() << "expected refusal of " << old;
        } catch (const std::logic_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(old), std::string::npos) << what;
            EXPECT_NE(what.find("pokeemu-checkpoint-v7"),
                      std::string::npos)
                << what;
        }
    }
}

TEST(Checkpoint, LedgerRoundTripsEveryStageAndClass)
{
    // The loader's stage/class bounds come from the enum counts, so
    // every value the pipeline can ledger must survive a round trip.
    Checkpoint cp;
    for (unsigned s = 0; s < support::kNumStages; ++s) {
        for (unsigned c = 0; c < support::kNumFaultClasses; ++c) {
            cp.quarantine.add(static_cast<Stage>(s),
                              "unit " + std::to_string(s),
                              static_cast<FaultClass>(c),
                              "class " + std::to_string(c));
        }
    }
    std::stringstream ss;
    save_checkpoint(ss, cp);
    const Checkpoint back = load_checkpoint(ss);
    ASSERT_EQ(back.quarantine.total(), cp.quarantine.total());
    for (std::size_t i = 0; i < cp.quarantine.units().size(); ++i) {
        const support::QuarantinedUnit &want = cp.quarantine.units()[i];
        const support::QuarantinedUnit &got = back.quarantine.units()[i];
        EXPECT_EQ(got.stage, want.stage);
        EXPECT_EQ(got.cls, want.cls);
        EXPECT_EQ(got.unit, want.unit);
        EXPECT_EQ(got.message, want.message);
    }

    // One past either bound is refused.
    for (const auto &[stage, cls] :
         {std::pair{support::kNumStages, 0u},
          std::pair{0u, support::kNumFaultClasses}}) {
        std::stringstream bad;
        save_checkpoint(bad, Checkpoint{});
        std::string text = bad.str();
        const std::string empty_ledger = "quarantined 0";
        text.replace(text.find(empty_ledger), empty_ledger.size(),
                     "quarantined 1\nq " + std::to_string(stage) + " " +
                         std::to_string(cls) + " - -");
        std::istringstream in(text);
        EXPECT_THROW(load_checkpoint(in), std::logic_error)
            << stage << "/" << cls;
    }
}

TEST(Checkpoint, MissingFileIsNotAnError)
{
    EXPECT_FALSE(
        load_checkpoint_file("/nonexistent/path/pokeemu.cp"));
}

// ---------------------------------------------------------------------
// Oversized test programs are a quarantinable fault, not UB.
// ---------------------------------------------------------------------

TEST(Runner, OversizedTestProgramIsTypedFault)
{
    harness::TestRunner runner{harness::TestRunner::Config{}};
    harness::BackendRun run;
    const std::vector<u8> huge(testgen::kMaxTestProgramBytes + 1,
                               0x90);
    try {
        runner.run_one_into(harness::Backend::HiFi, huge, run);
        FAIL() << "expected FaultError";
    } catch (const FaultError &e) {
        EXPECT_EQ(e.fault_class(), FaultClass::Execution);
        EXPECT_NE(std::string(e.what()).find("exceeds"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Fault-injection matrix: each site, through the full pipeline.
// ---------------------------------------------------------------------

int
index_of(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    EXPECT_EQ(arch::decode(buf.data(), buf.size(), insn),
              arch::DecodeStatus::Ok);
    return insn.table_index;
}

PipelineOptions
small_options()
{
    PipelineOptions options;
    options.instruction_filter = {
        index_of({0x50}),       // push eax
        index_of({0xc9}),       // leave
        index_of({0x74, 0x00}), // jz
    };
    options.max_paths_per_insn = 8;
    return options;
}

class FaultMatrix : public ::testing::Test
{
  protected:
    /** Fault-free reference run, shared across the matrix. */
    static const PipelineStats &
    reference()
    {
        static const PipelineStats stats = [] {
            Pipeline p(small_options());
            return p.run();
        }();
        return stats;
    }

    static std::size_t
    n_insns()
    {
        return small_options().instruction_filter.size();
    }
};

TEST_F(FaultMatrix, ReferenceIsFaultFree)
{
    EXPECT_EQ(reference().quarantine.total(), 0u);
    EXPECT_EQ(reference().instructions_explored, n_insns());
    EXPECT_GT(reference().test_programs, 0u);
}

/** Run the small pipeline with a single certain-fault site. */
PipelineStats
run_with_certain_fault(FaultSite site)
{
    PipelineOptions options = small_options();
    options.resilience.faults = FaultPlan::only(site, 1.0);
    Pipeline p(options);
    PipelineStats stats = p.run(); // Must not throw: containment.
    EXPECT_EQ(stats.quarantine.total(),
              p.injector().total_injected());
    for (const support::QuarantinedUnit &q : stats.quarantine.units())
        EXPECT_EQ(q.cls, FaultClass::Injected);
    return stats;
}

TEST_F(FaultMatrix, SolverQueryFaultsQuarantineExploration)
{
    const PipelineStats s =
        run_with_certain_fault(FaultSite::SolverQuery);
    // Every unit needs the solver, so every unit is quarantined at
    // the state-exploration stage; nothing reaches later stages.
    EXPECT_EQ(s.quarantine.count(Stage::StateExploration), n_insns());
    EXPECT_EQ(s.instructions_explored, 0u);
    EXPECT_EQ(s.test_programs, 0u);
    EXPECT_EQ(s.tests_executed, 0u);
}

TEST_F(FaultMatrix, ExplorationFaultsQuarantineWholeUnits)
{
    const PipelineStats s =
        run_with_certain_fault(FaultSite::Exploration);
    EXPECT_EQ(s.quarantine.count(Stage::StateExploration), n_insns());
    EXPECT_EQ(s.instructions_explored, 0u);
    EXPECT_EQ(s.test_programs, 0u);
}

TEST_F(FaultMatrix, GenerationFaultsQuarantinePathsOnly)
{
    const PipelineStats s =
        run_with_certain_fault(FaultSite::Generation);
    // Exploration itself is untouched; every path's generation is
    // quarantined individually.
    EXPECT_EQ(s.instructions_explored, n_insns());
    EXPECT_EQ(s.total_paths, reference().total_paths);
    EXPECT_EQ(s.quarantine.count(Stage::Generation),
              reference().total_paths);
    EXPECT_EQ(s.test_programs, 0u);
    EXPECT_EQ(s.tests_executed, 0u);
}

TEST_F(FaultMatrix, BackendFaultsQuarantineIndividualTests)
{
    for (const FaultSite site :
         {FaultSite::BackendHiFi, FaultSite::BackendLoFi,
          FaultSite::BackendHw}) {
        const PipelineStats s = run_with_certain_fault(site);
        // Stages 1-3 are untouched; every test's three-way execution
        // is quarantined.
        EXPECT_EQ(s.instructions_explored, n_insns());
        EXPECT_EQ(s.test_programs, reference().test_programs);
        EXPECT_EQ(s.quarantine.count(Stage::Execution),
                  reference().test_programs);
        EXPECT_EQ(s.tests_executed, 0u);
        EXPECT_EQ(s.lofi_diffs, 0u);
        EXPECT_EQ(s.hifi_diffs, 0u);
    }
}

TEST_F(FaultMatrix, PartialFaultsLeaveSurvivorsIntact)
{
    // Moderate exploration-fault rate: the quarantined and surviving
    // units must exactly partition the sweep, and survivors behave as
    // in the fault-free run (every surviving path still generates and
    // executes).
    PipelineOptions options = small_options();
    options.resilience.faults =
        FaultPlan::only(FaultSite::Exploration, 0.5, 11);
    Pipeline p(options);
    const PipelineStats &s = p.run();
    const u64 quarantined =
        s.quarantine.count(Stage::StateExploration);
    EXPECT_EQ(s.instructions_explored + quarantined, n_insns());
    EXPECT_LE(s.total_paths, reference().total_paths);
    EXPECT_EQ(s.test_programs + s.generation_failures, s.total_paths);
    EXPECT_EQ(s.tests_executed, s.test_programs);
}

// ---------------------------------------------------------------------
// Budgets through the pipeline.
// ---------------------------------------------------------------------

TEST(Budgets, SolverStepBudgetQuarantinesAsSolverTimeout)
{
    PipelineOptions options = small_options();
    options.resilience.budgets.solver_query_steps = 1;
    options.resilience.budgets.escalation = 1.0; // No retry.
    Pipeline p(options);
    const PipelineStats &s = p.run();
    EXPECT_EQ(s.quarantine.count(FaultClass::SolverTimeout),
              small_options().instruction_filter.size());
    EXPECT_EQ(s.budget_retries, 0u);
    EXPECT_EQ(s.instructions_explored, 0u);
}

TEST(Budgets, ExplorationStepBudgetDegradesGracefully)
{
    // A tiny exploration budget with no escalation: units keep the
    // paths they found (possibly zero) and are marked
    // budget-incomplete, never quarantined.
    PipelineOptions options = small_options();
    options.resilience.budgets.insn_exploration_steps = 5;
    options.resilience.budgets.escalation = 1.0;
    Pipeline p(options);
    const PipelineStats &s = p.run();
    EXPECT_EQ(s.quarantine.total(), 0u);
    EXPECT_EQ(s.budget_incomplete,
              small_options().instruction_filter.size());
    EXPECT_EQ(s.instructions_complete, 0u);
}

TEST_F(FaultMatrix, EscalationRetryRecoversSmallBudget)
{
    // 1x budget is too small, but the escalated retry is generous:
    // the run must match the unbudgeted reference, with the retries
    // counted.
    PipelineOptions options = small_options();
    options.resilience.budgets.insn_exploration_steps = 5;
    options.resilience.budgets.escalation = 1e6;
    Pipeline p(options);
    const PipelineStats &s = p.run();
    EXPECT_GT(s.budget_retries, 0u);
    EXPECT_EQ(s.budget_incomplete, 0u);
    EXPECT_EQ(s.quarantine.total(), 0u);
    EXPECT_EQ(s.instructions_explored,
              reference().instructions_explored);
    EXPECT_EQ(s.instructions_complete,
              reference().instructions_complete);
    EXPECT_EQ(s.total_paths, reference().total_paths);
    EXPECT_EQ(s.test_programs, reference().test_programs);
}

} // namespace
} // namespace pokeemu
