/**
 * @file
 * Sharded campaign driver tests (pokeemu/shard.h): the partition plan,
 * the byte-identical merged report across shard counts and scheduling
 * modes, quarantine merging, interrupt/resume fidelity, and the
 * manifest's refusal to mix incompatible layouts.
 */
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/decoder.h"
#include "pokeemu/shard.h"

namespace pokeemu {
namespace {

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

/** The shared small workload: every test that compares reports uses
 *  exactly these options so one 1-shard reference serves them all. */
CampaignOptions
base_campaign()
{
    CampaignOptions options;
    options.pipeline.instruction_filter = {
        index_of({0x50}),       // push eax
        index_of({0xc9}),       // leave
        index_of({0x74, 0x00}), // jz
        index_of({0xd3, 0xe0}), // shl eax, cl
    };
    options.pipeline.max_paths_per_insn = 8;
    return options;
}

/** 1-shard reference report, computed once per process. */
const std::string &
reference_report()
{
    static const std::string report = [] {
        return run_campaign(base_campaign()).report();
    }();
    return report;
}

/** Fresh, empty scratch directory under the system temp dir. */
std::filesystem::path
scratch_dir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("pokeemu_shard_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ShardPlan, InterleavesByCampaignPosition)
{
    const std::vector<int> indices = {10, 11, 12, 13, 14};
    const ShardPlan plan = plan_shards(indices, 2);
    EXPECT_EQ(plan.campaign_order, indices);
    ASSERT_EQ(plan.assignments.size(), 2u);
    EXPECT_EQ(plan.assignments[0], (std::vector<int>{10, 12, 14}));
    EXPECT_EQ(plan.assignments[1], (std::vector<int>{11, 13}));
}

TEST(ShardPlan, MoreShardsThanWorkLeavesEmptyShards)
{
    const ShardPlan plan = plan_shards({7, 8}, 4);
    ASSERT_EQ(plan.assignments.size(), 4u);
    EXPECT_EQ(plan.assignments[0], std::vector<int>{7});
    EXPECT_EQ(plan.assignments[1], std::vector<int>{8});
    EXPECT_TRUE(plan.assignments[2].empty());
    EXPECT_TRUE(plan.assignments[3].empty());
}

TEST(ShardPlan, ZeroShardsThrows)
{
    EXPECT_THROW(plan_shards({1, 2}, 0), std::logic_error);
}

TEST(Campaign, ReportByteIdenticalAcrossShardCounts)
{
    // 8 > workload size also exercises empty shard workers.
    for (u32 shards : {2u, 4u, 8u}) {
        CampaignOptions options = base_campaign();
        options.shards = shards;
        const CampaignResult result = run_campaign(options);
        EXPECT_TRUE(result.complete);
        EXPECT_EQ(result.report(), reference_report())
            << "shards=" << shards;
    }
    // A plain Pipeline prints the same report: one printer serves both.
    Pipeline pipeline(base_campaign().pipeline);
    pipeline.run();
    EXPECT_EQ(pipeline.stats().to_string(), reference_report());
}

TEST(Campaign, MergedCheckpointRenumbersTestsSequentially)
{
    CampaignOptions options = base_campaign();
    options.shards = 3;
    const CampaignResult result = run_campaign(options);
    u64 expected = 0;
    for (const CheckpointUnit &unit :
         result.merged_checkpoint.explored) {
        for (const CheckpointTest &test : unit.tests)
            EXPECT_EQ(test.id, expected++);
    }
    EXPECT_EQ(expected, result.merged.test_programs);
    EXPECT_EQ(result.merged_checkpoint.explored.size(),
              base_campaign().pipeline.instruction_filter.size());
}

TEST(Campaign, QuarantinedUnitsMergeIdentically)
{
    // Deterministic (unit-keyed) exploration faults: the same units
    // quarantine no matter which shard attempts them, so the merged
    // ledger — and the whole report — must not depend on the layout.
    CampaignOptions chaos = base_campaign();
    chaos.pipeline.resilience.faults =
        support::FaultPlan::only(support::FaultSite::Exploration, 0.6,
                                 11);
    chaos.pipeline.resilience.faults.key_by_unit = true;

    const CampaignResult mono = run_campaign(chaos);
    ASSERT_GE(mono.merged.quarantine.total(), 1u)
        << "chaos seed injected nothing; pick another seed";
    EXPECT_LT(mono.merged.instructions_explored,
              base_campaign().pipeline.instruction_filter.size());

    for (u32 shards : {2u, 4u}) {
        CampaignOptions options = chaos;
        options.shards = shards;
        const CampaignResult result = run_campaign(options);
        EXPECT_EQ(result.report(), mono.report())
            << "shards=" << shards;
    }
}

TEST(Campaign, InterruptedShardsResumeToIdenticalReport)
{
    const std::filesystem::path dir = scratch_dir("resume");
    CampaignOptions options = base_campaign();
    options.shards = 2;
    options.checkpoint_dir = dir.string();
    options.explore_slice_units = 1;
    options.execute_slice_tests = 3;
    options.max_sessions_per_shard = 1;

    // One session per shard is not enough for this workload.
    const CampaignResult interrupted = run_campaign(options);
    EXPECT_FALSE(interrupted.complete);
    EXPECT_LT(interrupted.merged.tests_executed,
              run_campaign(base_campaign()).merged.tests_executed);

    // Resume with unbounded sessions: the completed campaign's report
    // must match an uninterrupted 1-shard run byte for byte.
    options.max_sessions_per_shard = 0;
    options.resume = true;
    const CampaignResult resumed = run_campaign(options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_GT(resumed.sessions, 2u);
    EXPECT_EQ(resumed.report(), reference_report());
    std::filesystem::remove_all(dir);
}

TEST(Campaign, QuarantinedUnitsSurviveInterruptAndResume)
{
    // The hardest determinism case: deterministic faults + slicing.
    // Quarantined units never enter the checkpoint, so each resumed
    // session re-attempts them; the dedup'd ledger plus the fresh-unit
    // quota refund must still converge to the monolithic report.
    CampaignOptions chaos = base_campaign();
    chaos.pipeline.resilience.faults =
        support::FaultPlan::only(support::FaultSite::Exploration, 0.6,
                                 11);
    chaos.pipeline.resilience.faults.key_by_unit = true;
    const std::string mono_report = run_campaign(chaos).report();

    const std::filesystem::path dir = scratch_dir("chaos_resume");
    CampaignOptions options = chaos;
    options.shards = 2;
    options.checkpoint_dir = dir.string();
    options.explore_slice_units = 1;
    options.execute_slice_tests = 3;
    CampaignResult result = run_campaign(options);
    EXPECT_TRUE(result.complete);
    EXPECT_GT(result.sessions, 2u);
    EXPECT_EQ(result.report(), mono_report);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, ResumeRefusesDifferentShardCount)
{
    const std::filesystem::path dir = scratch_dir("mismatch");
    CampaignOptions options = base_campaign();
    options.shards = 2;
    options.checkpoint_dir = dir.string();
    run_campaign(options);

    CampaignOptions other = options;
    other.shards = 3;
    other.resume = true;
    EXPECT_THROW(run_campaign(other), std::logic_error);

    // The original layout resumes fine (and restores everything).
    options.resume = true;
    const CampaignResult resumed = run_campaign(options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.report(), reference_report());
    std::filesystem::remove_all(dir);
}

TEST(Campaign, SlicingWithoutCheckpointDirThrows)
{
    CampaignOptions options = base_campaign();
    options.explore_slice_units = 1;
    EXPECT_THROW(run_campaign(options), std::logic_error);

    CampaignOptions resume_options = base_campaign();
    resume_options.resume = true;
    EXPECT_THROW(run_campaign(resume_options), std::logic_error);
}

// ---------------------------------------------------------------------
// Cycle fidelity across shards (DESIGN.md §16): the merged report with
// timing on is as deterministic as the state-only one.
// ---------------------------------------------------------------------

/** base_campaign with the cycle-fidelity model enabled. */
CampaignOptions
timing_campaign()
{
    CampaignOptions options = base_campaign();
    options.pipeline.timing = true;
    return options;
}

/** 1-shard timing-on reference report, computed once per process. */
const std::string &
timing_reference_report()
{
    static const std::string report = [] {
        return run_campaign(timing_campaign()).report();
    }();
    return report;
}

TEST(Campaign, TimingReportByteIdenticalAcrossShardCounts)
{
    // The reference report must actually carry the new observable —
    // otherwise byte-identity would hold vacuously.
    EXPECT_NE(timing_reference_report().find("cycle totals:"),
              std::string::npos);
    for (u32 shards : {2u, 4u}) {
        CampaignOptions options = timing_campaign();
        options.shards = shards;
        const CampaignResult result = run_campaign(options);
        EXPECT_TRUE(result.complete);
        EXPECT_EQ(result.report(), timing_reference_report())
            << "shards=" << shards;
    }
}

TEST(Campaign, TimingSurvivesInterruptAndResume)
{
    const std::filesystem::path dir = scratch_dir("timing_resume");
    CampaignOptions options = timing_campaign();
    options.shards = 2;
    options.checkpoint_dir = dir.string();
    options.explore_slice_units = 1;
    options.execute_slice_tests = 3;
    options.max_sessions_per_shard = 1;

    const CampaignResult interrupted = run_campaign(options);
    EXPECT_FALSE(interrupted.complete);

    // Cycle counters cross the checkpoint boundary: the resumed
    // campaign's totals must match the uninterrupted reference bytes.
    options.max_sessions_per_shard = 0;
    options.resume = true;
    const CampaignResult resumed = run_campaign(options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.report(), timing_reference_report());
    std::filesystem::remove_all(dir);
}

TEST(Campaign, ResumeRefusesDifferentTimingMode)
{
    // timing is part of the options fingerprint: a checkpoint written
    // with it off must not resume with it on (the resumed half would
    // charge cycles the first half never counted).
    const std::filesystem::path dir = scratch_dir("timing_mismatch");
    CampaignOptions options = base_campaign();
    options.shards = 2;
    options.checkpoint_dir = dir.string();
    run_campaign(options);

    CampaignOptions other = options;
    other.pipeline.timing = true;
    other.resume = true;
    EXPECT_THROW(run_campaign(other), std::logic_error);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace pokeemu
