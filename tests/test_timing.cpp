/**
 * @file
 * Cycle-fidelity subsystem tests (DESIGN.md §16): divergence-label
 * ratio buckets, properties of the generated cost table, the
 * checkpoint's cycle counters, and end-to-end detection of seeded timing
 * defects as TimingDivergence — never as state diffs or timeouts.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arch/decoder.h"
#include "defects/defects.h"
#include "harness/runner.h"
#include "hifi/compiled.h"
#include "pokeemu/pipeline.h"
#include "pokeemu/resilience.h"
#include "timing/cost_model.h"

namespace pokeemu {
namespace {

using lofi::BugConfig;
using timing::divergence_label;

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

// ---------------------------------------------------------------------
// Divergence labels: the ratio buckets that become cluster root causes.
// ---------------------------------------------------------------------

TEST(DivergenceLabel, ZeroOnEitherSideWinsOverRatio)
{
    EXPECT_EQ(divergence_label(0, 10, "lofi"), "cycles-zero-lofi");
    EXPECT_EQ(divergence_label(10, 0, "lofi"), "cycles-zero-lofi");
    EXPECT_EQ(divergence_label(0, 0, "hifi"), "cycles-zero-hifi");
}

TEST(DivergenceLabel, RatioBuckets)
{
    EXPECT_EQ(divergence_label(100, 80, "lofi"), "cycles-under-lofi");
    EXPECT_EQ(divergence_label(80, 100, "lofi"), "cycles-over-lofi");
    EXPECT_EQ(divergence_label(100, 50, "lofi"),
              "cycles-2x-under-lofi");
    EXPECT_EQ(divergence_label(50, 100, "hifi"), "cycles-2x-over-hifi");
    EXPECT_EQ(divergence_label(300, 100, "lofi"),
              "cycles-3x-under-lofi");
    EXPECT_EQ(divergence_label(400, 100, "lofi"),
              "cycles-4x+-under-lofi");
    EXPECT_EQ(divergence_label(100, 1000, "lofi"),
              "cycles-4x+-over-lofi");
}

TEST(DivergenceLabel, ExactHalvingBucketsAsTwoXForAnyTotal)
{
    // The pose64 defect: every charge halved. Whatever the true total
    // b, (2b, b) must land in the 2x bucket — including odd b, which
    // the rounded ratio (hi + lo/2) / lo handles exactly.
    for (u64 b : {u64{1}, u64{3}, u64{7}, u64{100}, u64{12345}}) {
        EXPECT_EQ(divergence_label(2 * b, b, "lofi"),
                  "cycles-2x-under-lofi")
            << "total " << b;
    }
}

// ---------------------------------------------------------------------
// The generated cost table (semgen output the binary was compiled
// against; semgen_check proves it equals fresh derivation).
// ---------------------------------------------------------------------

TEST(CostTable, EveryChargeIsEvenSoHalvingIsExact)
{
    const hifi::CompiledCostTable &costs = hifi::compiled_cost_table();
    ASSERT_GT(costs.num, 0u);
    for (std::size_t u = 0; u < costs.num; ++u) {
        const timing::UnitCost &c = costs.costs[u];
        EXPECT_GE(c.base, 2u) << "unit " << u;
        EXPECT_EQ(c.base % 2, 0u) << "unit " << u;
        EXPECT_EQ(c.fault_extra % 2, 0u) << "unit " << u;
        EXPECT_EQ(c.charge(false) % 2, 0u) << "unit " << u;
        EXPECT_EQ(c.charge(true) % 2, 0u) << "unit " << u;
    }
    // The fault-path constants the backends charge directly share the
    // invariant.
    EXPECT_EQ(timing::kMemAccessCost % 2, 0u);
    EXPECT_EQ(timing::kFaultPathCycles % 2, 0u);
    EXPECT_EQ(timing::kExceptionCycles % 2, 0u);
}

TEST(CostTable, ModelServesBothOperandForms)
{
    const timing::CostModel &model = timing::cost_model();
    ASSERT_FALSE(model.empty());
    // push eax has no ModRM: one compiled form serves both lookups.
    const int push = index_of({0x50});
    EXPECT_TRUE(model.cost_for(push, false) ==
                model.cost_for(push, true));
    // add [eax], ecx in its memory form reads and writes guest RAM.
    const int add = index_of({0x01, 0x08});
    EXPECT_GT(model.cost_for(add, true).mem_accesses, 0u);
    // A row with no compiled unit still resolves (minimal fallback).
    EXPECT_GE(model.cost_for(-1, false).base, 2u);
}

// ---------------------------------------------------------------------
// Checkpoint: the cycle counters and timing clusters (added in v5)
// round-trip.
// ---------------------------------------------------------------------

TEST(CheckpointV5, RoundTripsCycleColumns)
{
    Checkpoint cp;
    cp.fingerprint = 77;
    CheckpointUnit unit;
    unit.table_index = 50;
    unit.complete = true;
    cp.explored.push_back(unit);
    cp.execution.executed_count = 3;
    cp.execution.tests_executed = 3;
    cp.execution.hifi_cycles = 120;
    cp.execution.lofi_cycles = 60;
    cp.execution.hw_cycles = 120;
    cp.execution.lofi_timing_divergences = 3;
    cp.execution.hifi_timing_divergences = 1;
    arch::DecodedInsn insn;
    const u8 push[] = {0x50};
    ASSERT_EQ(arch::decode(push, 1, insn), arch::DecodeStatus::Ok);
    cp.execution.lofi_timing_clusters.add_named(
        1, insn, "cycles-2x-under-lofi");
    cp.execution.hifi_timing_clusters.add_named(
        2, insn, "cycles-over-hifi");

    std::stringstream ss;
    save_checkpoint(ss, cp);
    const Checkpoint back = load_checkpoint(ss);

    ASSERT_EQ(back.explored.size(), 1u);
    EXPECT_EQ(back.explored[0].table_index, 50);
    EXPECT_EQ(back.execution.hifi_cycles, 120u);
    EXPECT_EQ(back.execution.lofi_cycles, 60u);
    EXPECT_EQ(back.execution.hw_cycles, 120u);
    EXPECT_EQ(back.execution.lofi_timing_divergences, 3u);
    EXPECT_EQ(back.execution.hifi_timing_divergences, 1u);
    ASSERT_EQ(back.execution.lofi_timing_clusters.clusters().size(),
              1u);
    EXPECT_EQ(
        back.execution.lofi_timing_clusters.clusters()[0].root_cause,
        "cycles-2x-under-lofi");
    ASSERT_EQ(back.execution.hifi_timing_clusters.clusters().size(),
              1u);
    EXPECT_EQ(
        back.execution.hifi_timing_clusters.clusters()[0].root_cause,
        "cycles-over-hifi");
}

// ---------------------------------------------------------------------
// Runner level: with timing on and an unbugged Lo-Fi, all three
// backends agree cycle-for-cycle; with timing off nothing is charged.
// ---------------------------------------------------------------------

harness::TestRunner
timing_runner(BugConfig bugs = BugConfig::none())
{
    harness::TestRunner::Config cfg;
    cfg.bugs = bugs;
    cfg.timing = true;
    return harness::TestRunner(cfg);
}

TEST(TimingRunner, ThreeWayAgreementOnRetirementAndException)
{
    harness::TestRunner runner = timing_runner();
    // Normal retirements (push eax; hlt) and an exception path
    // (int 0x20): both must charge identically everywhere.
    for (const std::vector<u8> &program :
         {std::vector<u8>{0x50, 0xf4},
          std::vector<u8>{0xcd, 0x20, 0xf4}}) {
        const harness::ThreeWayResult r = runner.run(program);
        EXPECT_GT(r.hw.snapshot.cycles, 0u);
        EXPECT_EQ(r.hifi.snapshot.cycles, r.hw.snapshot.cycles);
        EXPECT_EQ(r.lofi.snapshot.cycles, r.hw.snapshot.cycles);
    }
}

TEST(TimingRunner, DefaultConfigChargesNothing)
{
    harness::TestRunner runner; // timing defaults off
    const harness::ThreeWayResult r = runner.run({0x50, 0xf4});
    EXPECT_EQ(r.hifi.snapshot.cycles, 0u);
    EXPECT_EQ(r.lofi.snapshot.cycles, 0u);
    EXPECT_EQ(r.hw.snapshot.cycles, 0u);
}

TEST(TimingRunner, HalfCycleDefectHalvesLoFiExactly)
{
    harness::TestRunner clean = timing_runner();
    BugConfig bugs = BugConfig::none();
    bugs.half_cycle_accounting = true;
    harness::TestRunner defected = timing_runner(bugs);
    const std::vector<u8> program = {0x50, 0xf4}; // push eax; hlt
    const u64 truth = clean.run(program).hw.snapshot.cycles;
    const harness::ThreeWayResult r = defected.run(program);
    ASSERT_GT(truth, 0u);
    EXPECT_EQ(r.hw.snapshot.cycles, truth);   // oracle is undefected
    EXPECT_EQ(r.hifi.snapshot.cycles, truth); // hifi too
    EXPECT_EQ(r.lofi.snapshot.cycles, truth / 2);
    EXPECT_EQ(truth % 2, 0u); // even-cost invariant: halving is exact
}

// ---------------------------------------------------------------------
// Pipeline level: TimingDivergence detection end to end.
// ---------------------------------------------------------------------

PipelineOptions
timing_pipeline_options()
{
    PipelineOptions options;
    options.instruction_filter = {
        index_of({0x50}),       // push eax (stack store)
        index_of({0x01, 0x08}), // add [eax], ecx (load + store)
        index_of({0xc9}),       // leave (stack load)
    };
    options.max_paths_per_insn = 8;
    options.bugs = BugConfig::none();
    options.timing = true;
    return options;
}

TEST(TimingPipeline, CleanCampaignAgreesCycleForCycle)
{
    Pipeline pipeline(timing_pipeline_options());
    const PipelineStats &s = pipeline.run();
    EXPECT_GT(s.tests_executed, 0u);
    EXPECT_GT(s.hw_cycles, 0u);
    EXPECT_EQ(s.hifi_cycles, s.hw_cycles);
    EXPECT_EQ(s.lofi_cycles, s.hw_cycles);
    EXPECT_EQ(s.lofi_timing_divergences, 0u);
    EXPECT_EQ(s.hifi_timing_divergences, 0u);
    EXPECT_TRUE(s.lofi_timing_clusters.clusters().empty());
    EXPECT_TRUE(s.hifi_timing_clusters.clusters().empty());
    // The report carries the new observable.
    EXPECT_NE(s.to_string().find("cycle totals:"), std::string::npos);
}

TEST(TimingPipeline, CycleTotalsInvariantAcrossExecutionModes)
{
    // The model is static per (row, operand form), so compiled
    // dispatch and the optimizer must not move a single cycle.
    const PipelineOptions base = timing_pipeline_options();
    Pipeline ref(base);
    const u64 ref_cycles = ref.run().hw_cycles;
    ASSERT_GT(ref_cycles, 0u);

    for (const analysis::OptMode opt :
         {analysis::OptMode::Off, analysis::OptMode::On}) {
        PipelineOptions options = base;
        options.compiled = hifi::CompiledExec::On;
        options.opt = opt;
        Pipeline pipeline(options);
        const PipelineStats &s = pipeline.run();
        EXPECT_EQ(s.hifi_cycles, ref_cycles);
        EXPECT_EQ(s.lofi_cycles, ref_cycles);
        EXPECT_EQ(s.hw_cycles, ref_cycles);
        EXPECT_EQ(s.hifi_timing_divergences, 0u);
    }
}

TEST(TimingPipeline, OffChargesNothingAndPrintsNothing)
{
    PipelineOptions options = timing_pipeline_options();
    options.timing = false;
    Pipeline pipeline(options);
    const PipelineStats &s = pipeline.run();
    EXPECT_GT(s.tests_executed, 0u);
    EXPECT_EQ(s.hifi_cycles, 0u);
    EXPECT_EQ(s.lofi_cycles, 0u);
    EXPECT_EQ(s.hw_cycles, 0u);
    EXPECT_EQ(s.lofi_timing_divergences, 0u);
    const std::string report = s.to_string();
    EXPECT_EQ(report.find("cycle totals:"), std::string::npos);
    EXPECT_EQ(report.find("timing divergences"), std::string::npos);
}

TEST(TimingPipeline, TimingModeJoinsOptionsFingerprint)
{
    PipelineOptions off = timing_pipeline_options();
    off.timing = false;
    PipelineOptions on = timing_pipeline_options();
    EXPECT_NE(options_fingerprint(off), options_fingerprint(on));
}

TEST(TimingDefect, HalfCycleAccountingCaughtAsTwoXUnder)
{
    PipelineOptions options = timing_pipeline_options();
    options.bugs.half_cycle_accounting = true;
    Pipeline pipeline(options);
    const PipelineStats &s = pipeline.run();

    EXPECT_GT(s.tests_executed, 0u);
    // Every clean run's Lo-Fi total is exactly half the oracle's.
    EXPECT_EQ(s.lofi_timing_divergences, s.tests_executed);
    EXPECT_EQ(s.lofi_cycles * 2, s.hw_cycles);
    // TimingDivergence only: no state diffs, no timeouts, and the
    // undefected Hi-Fi stays silent.
    EXPECT_EQ(s.lofi_diffs, 0u);
    EXPECT_EQ(s.timeouts, 0u);
    EXPECT_EQ(s.hifi_timing_divergences, 0u);
    const auto clusters = s.lofi_timing_clusters.clusters();
    ASSERT_FALSE(clusters.empty());
    for (const harness::Cluster &c : clusters)
        EXPECT_EQ(c.root_cause, "cycles-2x-under-lofi");
}

TEST(TimingDefect, MemAccessCostDroppedCaughtAsUndercount)
{
    PipelineOptions options = timing_pipeline_options();
    options.bugs.mem_access_cost_dropped = true;
    Pipeline pipeline(options);
    const PipelineStats &s = pipeline.run();

    EXPECT_GT(s.tests_executed, 0u);
    EXPECT_GT(s.lofi_timing_divergences, 0u);
    EXPECT_LT(s.lofi_cycles, s.hw_cycles);
    EXPECT_EQ(s.lofi_diffs, 0u);
    EXPECT_EQ(s.hifi_timing_divergences, 0u);
    const auto clusters = s.lofi_timing_clusters.clusters();
    ASSERT_FALSE(clusters.empty());
    for (const harness::Cluster &c : clusters) {
        EXPECT_EQ(c.root_cause.rfind("cycles-", 0), 0u)
            << c.root_cause;
        EXPECT_NE(c.root_cause.find("under-lofi"), std::string::npos)
            << c.root_cause;
    }
}

TEST(TimingDefect, CatalogueEntriesRideTheTimingObservable)
{
    for (const char *name : {"half-cycle-accounting",
                             "mem-cost-dropped"}) {
        const defects::DefectSpec *found = nullptr;
        for (const defects::DefectSpec &d : defects::catalogue()) {
            if (d.name == name)
                found = &d;
        }
        ASSERT_NE(found, nullptr) << name;
        EXPECT_TRUE(found->timing) << name;
        EXPECT_TRUE(found->detectable) << name;
        ASSERT_FALSE(found->expected_clusters.empty()) << name;
        for (const std::string &cluster : found->expected_clusters) {
            EXPECT_EQ(cluster.rfind("cycles-", 0), 0u)
                << name << ": " << cluster;
        }
    }
}

} // namespace
} // namespace pokeemu
