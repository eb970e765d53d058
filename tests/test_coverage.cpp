/**
 * @file
 * Coverage subsystem tests (coverage/coverage.h): CoverageMap
 * accounting over toy CFGs, the uncovered-edge-first frontier policy,
 * explorer integration (trace, truncation reasons, coverage stats),
 * the determinism contract (scheduling is a pure function of
 * (unit, seed); unlimited caps change order but not the path set;
 * sharded campaign reports stay byte-identical with the scheduler on),
 * and the checkpoint-v2 coverage rows.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/decoder.h"
#include "coverage/coverage.h"
#include "explore/state_explorer.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "pokeemu/pipeline.h"
#include "pokeemu/shard.h"
#include "symexec/explorer.h"
#include "testgen/baseline.h"

namespace pokeemu {
namespace {

using coverage::CoverageMap;
using coverage::SchedulePolicy;
using coverage::TruncationReason;
using ir::ExprRef;
using ir::IrBuilder;
using ir::Label;
namespace E = ir::E;

symexec::InitialByteFn
make_initial(symexec::VarPool &pool, u32 sym_base, u32 sym_len)
{
    return [&pool, sym_base, sym_len](u32 addr) -> ExprRef {
        if (addr >= sym_base && addr < sym_base + sym_len) {
            char name[32];
            std::snprintf(name, sizeof name, "mem_%08x", addr);
            return pool.get(name, 8);
        }
        return E::constant(8, 0);
    };
}

/** Branch on (x < 10), halt 1 or 2: a diamond-free two-leaf CFG. */
ir::Program
two_way_program()
{
    IrBuilder b("twoway");
    auto x = b.load(IrBuilder::imm32(0x1000), 4);
    Label lt = b.label(), ge = b.label();
    b.cjmp(E::ult(x, IrBuilder::imm32(10)), lt, ge);
    b.bind(lt);
    b.halt(1);
    b.bind(ge);
    b.halt(2);
    return b.finish();
}

/** Three independent symbolic bits -> 8 paths (halt codes 0..7). */
ir::Program
threebits_program()
{
    IrBuilder b("threebits");
    auto byte = b.load(IrBuilder::imm32(0x1000), 1);
    for (int i = 0; i < 3; ++i) {
        Label set = b.label(), join = b.label();
        auto cur = b.load(IrBuilder::imm32(0x2000), 1);
        b.cjmp(E::eq(E::extract(byte, i, 1), E::bool_const(true)), set,
               join);
        b.bind(set);
        b.store(IrBuilder::imm32(0x2000), 1,
                E::bor(cur, IrBuilder::imm8(1 << i)));
        b.bind(join);
        b.comment("next bit");
    }
    auto final_code = b.load(IrBuilder::imm32(0x2000), 1);
    b.halt(E::zext(final_code, 32));
    return b.finish();
}

// ---------------------------------------------------------------------
// CoverageMap accounting.
// ---------------------------------------------------------------------

TEST(CoverageMap, StartsDarkAndCountsReachableStructure)
{
    const ir::Program p = two_way_program();
    const CoverageMap map(p);
    const auto stats = map.stats();
    EXPECT_EQ(stats.covered_blocks, 0u);
    EXPECT_EQ(stats.covered_edges, 0u);
    // Entry block + two halt leaves; one edge per direction.
    EXPECT_EQ(stats.total_blocks, 3u);
    EXPECT_EQ(stats.total_edges, 2u);
}

TEST(CoverageMap, CoverPathMarksBlocksAndEdges)
{
    const ir::Program p = two_way_program();
    CoverageMap map(p);
    const coverage::BlockId entry = map.block_of(0);
    const auto &succs = map.cfg().blocks()[entry].succs;
    ASSERT_EQ(succs.size(), 2u);

    map.cover_path({entry, succs[0]});
    EXPECT_TRUE(map.block_covered(entry));
    EXPECT_TRUE(map.block_covered(succs[0]));
    EXPECT_FALSE(map.block_covered(succs[1]));
    EXPECT_TRUE(map.edge_covered(entry, succs[0]));
    EXPECT_FALSE(map.edge_covered(entry, succs[1]));
    const auto stats = map.stats();
    EXPECT_EQ(stats.covered_blocks, 2u);
    EXPECT_EQ(stats.covered_edges, 1u);

    // Covering the same path again must not double-count.
    map.cover_path({entry, succs[0]});
    EXPECT_EQ(map.stats().covered_blocks, 2u);
    EXPECT_EQ(map.stats().covered_edges, 1u);
}

TEST(CoverageMap, NonCfgEdgeReadsAsCovered)
{
    const ir::Program p = two_way_program();
    CoverageMap map(p);
    const coverage::BlockId entry = map.block_of(0);
    const auto &succs = map.cfg().blocks()[entry].succs;
    // The two leaves are not connected: nothing for a policy to chase.
    EXPECT_TRUE(map.edge_covered(succs[0], succs[1]));
}

TEST(CoverageMap, DistanceToUncoveredIsReverseBfs)
{
    const ir::Program p = two_way_program();
    CoverageMap map(p);
    const coverage::BlockId entry = map.block_of(0);
    const auto &succs = map.cfg().blocks()[entry].succs;
    // Nothing covered: the entry has uncovered out-edges -> distance 0;
    // the leaves have no out-edges at all -> unreachable sentinel.
    EXPECT_EQ(map.distance_to_uncovered(entry), 0u);
    EXPECT_EQ(map.distance_to_uncovered(succs[0]), ~u32{0});

    // Cover both edges: no uncovered structure remains anywhere.
    map.cover_path({entry, succs[0]});
    map.cover_path({entry, succs[1]});
    EXPECT_EQ(map.distance_to_uncovered(entry), ~u32{0});
}

TEST(CoverageBucket, BoundariesMatchTheHistogramLabels)
{
    EXPECT_EQ(coverage::coverage_bucket(10, 10), 0u);
    EXPECT_EQ(coverage::coverage_bucket(0, 0), 0u); // Empty = full.
    EXPECT_EQ(coverage::coverage_bucket(9, 10), 1u);
    EXPECT_EQ(coverage::coverage_bucket(8, 10), 2u);
    EXPECT_EQ(coverage::coverage_bucket(5, 10), 3u);
    EXPECT_EQ(coverage::coverage_bucket(4, 10), 4u);
    EXPECT_EQ(coverage::coverage_bucket(0, 10), 4u);
}

TEST(FrontierPolicy, PrefersTheUncoveredEdge)
{
    const ir::Program p = two_way_program();
    CoverageMap map(p);
    const coverage::BlockId entry = map.block_of(0);
    const auto &succs = map.cfg().blocks()[entry].succs;

    coverage::BranchContext ctx;
    ctx.from = entry;
    // target[dir] is the successor for direction dir; succs[0] is the
    // false target in Cfg order for a CJmp.
    ctx.target[0] = succs[0];
    ctx.target[1] = succs[1];

    const coverage::UncoveredEdgeFirst policy;
    // Both dark: no preference either way (tie on distance too).
    EXPECT_EQ(policy.prefer(map, ctx), std::nullopt);

    // Cover direction 0's edge: the policy must steer to direction 1.
    map.cover_path({entry, succs[0]});
    const auto preferred = policy.prefer(map, ctx);
    ASSERT_TRUE(preferred.has_value());
    EXPECT_TRUE(*preferred);

    // Cover the other too: nothing left to prefer.
    map.cover_path({entry, succs[1]});
    EXPECT_EQ(policy.prefer(map, ctx), std::nullopt);
}

// ---------------------------------------------------------------------
// Explorer integration.
// ---------------------------------------------------------------------

TEST(ExplorerCoverage, CompleteExplorationCoversEverything)
{
    const ir::Program p = threebits_program();
    symexec::VarPool pool;
    CoverageMap map(p);
    symexec::ExplorerConfig config;
    config.coverage = &map;
    config.policy =
        coverage::frontier_policy(SchedulePolicy::UncoveredEdgeFirst);
    symexec::PathExplorer ex(p, pool, make_initial(pool, 0x1000, 1),
                             config);
    const auto stats =
        ex.explore([](const symexec::PathInfo &,
                      symexec::SymbolicMemory &) {});
    EXPECT_EQ(stats.paths, 8u);
    EXPECT_TRUE(stats.complete);
    EXPECT_EQ(stats.truncation, TruncationReason::None);
    // Every block and edge is feasible here, so complete exploration
    // means complete coverage, and the stats mirror the map.
    EXPECT_EQ(stats.covered_blocks, stats.total_blocks);
    EXPECT_EQ(stats.covered_edges, stats.total_edges);
    EXPECT_GT(stats.total_blocks, 0u);
    EXPECT_EQ(stats.covered_blocks, map.stats().covered_blocks);
}

TEST(ExplorerCoverage, PathCapSetsTruncationReason)
{
    const ir::Program p = threebits_program();
    symexec::VarPool pool;
    CoverageMap map(p);
    symexec::ExplorerConfig config;
    config.max_paths = 2;
    config.coverage = &map;
    symexec::PathExplorer ex(p, pool, make_initial(pool, 0x1000, 1),
                             config);
    const auto stats =
        ex.explore([](const symexec::PathInfo &,
                      symexec::SymbolicMemory &) {});
    EXPECT_EQ(stats.paths, 2u);
    EXPECT_FALSE(stats.complete);
    EXPECT_EQ(stats.truncation, TruncationReason::PathCap);
    EXPECT_LT(stats.covered_blocks, stats.total_blocks);
}

TEST(ExplorerCoverage, StepLimitSetsTruncationReason)
{
    const ir::Program p = threebits_program();
    symexec::VarPool pool;
    symexec::ExplorerConfig config;
    config.max_steps = 4; // Every path dies at the budget.
    CoverageMap map(p);
    config.coverage = &map;
    symexec::PathExplorer ex(p, pool, make_initial(pool, 0x1000, 1),
                             config);
    const auto stats =
        ex.explore([](const symexec::PathInfo &,
                      symexec::SymbolicMemory &) {});
    EXPECT_GT(stats.step_limited, 0u);
    EXPECT_EQ(stats.truncation, TruncationReason::StepLimit);
}

TEST(ExplorerCoverage, DeadlineSetsTruncationReason)
{
    const ir::Program p = threebits_program();
    symexec::VarPool pool;
    CoverageMap map(p);
    symexec::ExplorerConfig config;
    config.coverage = &map;
    config.deadline = support::Deadline::with(0, 1); // 1 step total.
    symexec::PathExplorer ex(p, pool, make_initial(pool, 0x1000, 1),
                             config);
    const auto stats =
        ex.explore([](const symexec::PathInfo &,
                      symexec::SymbolicMemory &) {});
    EXPECT_TRUE(stats.deadline_expired);
    EXPECT_EQ(stats.truncation, TruncationReason::Deadline);
}

TEST(ExplorerCoverage, FrontierCoversMoreUnderTheSameCap)
{
    // The same capped exploration, scheduled vs default: the frontier
    // policy must reach at least as much structure, and on this
    // 8-leaf tree strictly more edges than at least one seed's default
    // order. (The campaign-level strict win is asserted by the
    // bench_coverage smoke ctest on real instruction workloads.)
    const ir::Program p = threebits_program();
    const auto run = [&](const coverage::FrontierPolicy *policy) {
        symexec::VarPool pool;
        CoverageMap map(p);
        symexec::ExplorerConfig config;
        config.max_paths = 3;
        config.coverage = &map;
        config.policy = policy;
        symexec::PathExplorer ex(p, pool,
                                 make_initial(pool, 0x1000, 1), config);
        const auto stats =
            ex.explore([](const symexec::PathInfo &,
                          symexec::SymbolicMemory &) {});
        return stats.covered_blocks + stats.covered_edges;
    };
    const u64 frontier = run(coverage::frontier_policy(
        SchedulePolicy::UncoveredEdgeFirst));
    const u64 fallback = run(nullptr);
    EXPECT_GE(frontier, fallback);
}

// ---------------------------------------------------------------------
// Determinism contract.
// ---------------------------------------------------------------------

/** Serialize one explored path for set comparison: the halt code plus
 *  the printed path condition (order-independent across runs). */
std::multiset<std::string>
path_set(const ir::Program &p, SchedulePolicy schedule, u64 max_paths,
         u64 seed)
{
    symexec::VarPool pool;
    CoverageMap map(p);
    symexec::ExplorerConfig config;
    config.max_paths = max_paths;
    config.seed = seed;
    config.coverage = &map;
    config.policy = coverage::frontier_policy(schedule);
    symexec::PathExplorer ex(p, pool, make_initial(pool, 0x1000, 1),
                             config);
    std::multiset<std::string> out;
    ex.explore([&](const symexec::PathInfo &info,
                   symexec::SymbolicMemory &) {
        std::string key = std::to_string(info.halt_code);
        for (const ExprRef &conjunct : info.path_condition)
            key += "|" + ir::to_string(conjunct);
        out.insert(std::move(key));
    });
    return out;
}

TEST(ScheduleDeterminism, PureFunctionOfUnitAndSeed)
{
    const ir::Program p = threebits_program();
    // Same seed -> byte-identical path sets (and, because the multiset
    // is built in callback order, identical order too).
    for (const u64 seed : {1ull, 7ull, 1234567ull}) {
        const auto a = path_set(p, SchedulePolicy::UncoveredEdgeFirst,
                                4, seed);
        const auto b = path_set(p, SchedulePolicy::UncoveredEdgeFirst,
                                4, seed);
        EXPECT_EQ(a, b) << "seed " << seed;
    }
}

TEST(ScheduleDeterminism, UnlimitedCapChangesOrderNotPaths)
{
    // With no cap the decision tree is exhausted either way: the
    // scheduler may only reorder the enumeration, never change the
    // path set.
    const ir::Program p = threebits_program();
    const auto frontier =
        path_set(p, SchedulePolicy::UncoveredEdgeFirst, u64(-1), 1);
    const auto fallback =
        path_set(p, SchedulePolicy::DefaultOrder, u64(-1), 1);
    EXPECT_EQ(frontier.size(), 8u);
    EXPECT_EQ(frontier, fallback);
}

TEST(ScheduleDeterminism, UnlimitedCapSamePathSetOnRealInstruction)
{
    // The same invariant through the state-exploration layer on a real
    // multi-path instruction (shl eax, cl).
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);
    const u8 bytes[] = {0xd3, 0xe0, 0, 0, 0, 0};
    arch::DecodedInsn insn;
    ASSERT_EQ(arch::decode(bytes, sizeof bytes, insn),
              arch::DecodeStatus::Ok);

    const auto run = [&](SchedulePolicy schedule) {
        explore::StateExploreOptions options;
        options.schedule = schedule;
        options.minimize = false;
        const explore::StateExploreResult result =
            explore_instruction(insn, spec, &summary, options);
        EXPECT_TRUE(result.stats.complete);
        std::multiset<u32> halts;
        for (const auto &path : result.paths)
            halts.insert(path.halt_code);
        return std::make_pair(result.stats.paths, halts);
    };
    const auto frontier = run(SchedulePolicy::UncoveredEdgeFirst);
    const auto fallback = run(SchedulePolicy::DefaultOrder);
    EXPECT_EQ(frontier.first, fallback.first);
    EXPECT_EQ(frontier.second, fallback.second);
}

// ---------------------------------------------------------------------
// Pipeline + campaign integration.
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

CampaignOptions
capped_campaign()
{
    CampaignOptions options;
    options.pipeline.instruction_filter = {
        index_of({0xcf}),       // iret: deep multi-path tree
        index_of({0x50}),       // push eax
        index_of({0xc4, 0x00}), // les (multi-path far pointer load)
        index_of({0xd3, 0xe0}), // shl eax, cl
    };
    options.pipeline.max_paths_per_insn = 4; // Truncates iret + les.
    return options;
}

std::filesystem::path
scratch_dir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("pokeemu_coverage_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(PipelineCoverage, StatsCarryCoverageAndTruncation)
{
    PipelineOptions options;
    options.instruction_filter =
        capped_campaign().pipeline.instruction_filter;
    options.max_paths_per_insn = 4;
    Pipeline pipeline(options);
    pipeline.explore_and_generate();
    const PipelineStats &stats = pipeline.stats();
    EXPECT_EQ(stats.instructions_explored, 4u);
    EXPECT_GT(stats.total_blocks, 0u);
    EXPECT_GT(stats.covered_blocks, 0u);
    EXPECT_LE(stats.covered_blocks, stats.total_blocks);
    EXPECT_LE(stats.covered_edges, stats.total_edges);
    // The cap truncates the multi-path instructions.
    EXPECT_GT(stats.truncated_path_cap, 0u);
    EXPECT_TRUE(stats.any_truncation());
    EXPECT_EQ(stats.truncated_solver_timeout(), 0u);
    // Histogram rows account for every explored unit exactly once.
    u64 bucketed = 0;
    for (unsigned b = 0; b < coverage::kNumCoverageBuckets; ++b)
        bucketed += stats.coverage_histogram[b];
    EXPECT_EQ(bucketed, stats.instructions_explored);
    // The per-unit checkpoint rows mirror the totals.
    u64 unit_blocks = 0;
    for (const CheckpointUnit &u : pipeline.checkpoint().explored)
        unit_blocks += u.covered_blocks;
    EXPECT_EQ(unit_blocks, stats.covered_blocks);
    // And the human-readable report mentions them.
    const std::string report = stats.to_string();
    EXPECT_NE(report.find("IR coverage:"), std::string::npos);
    EXPECT_NE(report.find("truncated explorations:"),
              std::string::npos);
}

TEST(PipelineCoverage, ReportsAreByteIdenticalAcrossShardCounts)
{
    const std::string reference =
        run_campaign(capped_campaign()).report();
    EXPECT_NE(reference.find("IR coverage:"), std::string::npos);
    EXPECT_NE(reference.find("coverage histogram:"), std::string::npos);
    EXPECT_NE(reference.find("truncated explorations:"),
              std::string::npos);
    for (const u32 shards : {2u, 4u}) {
        CampaignOptions options = capped_campaign();
        options.shards = shards;
        EXPECT_EQ(run_campaign(options).report(), reference)
            << shards << " shards";
    }
}

TEST(PipelineCoverage, PathCoverReportsByteIdenticalAcrossShards)
{
    // The PathCoverFirst scheduler must preserve the merge contract:
    // byte-identical reports for any shard count.
    CampaignOptions base = capped_campaign();
    base.pipeline.schedule = SchedulePolicy::PathCoverFirst;
    const std::string reference = run_campaign(base).report();
    EXPECT_NE(reference.find("IR coverage:"), std::string::npos);
    for (const u32 shards : {2u, 4u, 8u}) {
        CampaignOptions options = base;
        options.shards = shards;
        EXPECT_EQ(run_campaign(options).report(), reference)
            << shards << " shards";
    }
}

TEST(PipelineCoverage, PathCoverInterruptedResumeMatches)
{
    CampaignOptions base = capped_campaign();
    base.pipeline.schedule = SchedulePolicy::PathCoverFirst;
    const std::string reference = run_campaign(base).report();
    const auto dir = scratch_dir("pathcover_resume");
    CampaignOptions options = base;
    options.shards = 2;
    options.checkpoint_dir = dir.string();
    options.explore_slice_units = 1;
    options.max_sessions_per_shard = 1; // Interrupt after one unit.
    const CampaignResult interrupted = run_campaign(options);
    EXPECT_FALSE(interrupted.complete);

    options.resume = true;
    options.max_sessions_per_shard = 0;
    const CampaignResult resumed = run_campaign(options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.report(), reference);
    std::filesystem::remove_all(dir);
}

TEST(PipelineCoverage, InterruptedResumeMatchesUninterrupted)
{
    const std::string reference =
        run_campaign(capped_campaign()).report();
    const auto dir = scratch_dir("resume");
    CampaignOptions options = capped_campaign();
    options.shards = 2;
    options.checkpoint_dir = dir.string();
    options.explore_slice_units = 1;
    options.max_sessions_per_shard = 1; // Interrupt after one unit.
    const CampaignResult interrupted = run_campaign(options);
    EXPECT_FALSE(interrupted.complete);

    options.resume = true;
    options.max_sessions_per_shard = 0;
    const CampaignResult resumed = run_campaign(options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.report(), reference);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Checkpoint v2 rows.
// ---------------------------------------------------------------------

TEST(CheckpointV2, CoverageFieldsRoundTrip)
{
    Checkpoint cp;
    cp.fingerprint = 42;
    CheckpointUnit u;
    u.table_index = 7;
    u.complete = false;
    u.paths = 4;
    u.covered_blocks = 9;
    u.total_blocks = 12;
    u.covered_edges = 8;
    u.total_edges = 15;
    u.truncation = TruncationReason::PathCap;
    cp.explored.push_back(u);

    std::stringstream buf;
    save_checkpoint(buf, cp);
    const Checkpoint back = load_checkpoint(buf);
    ASSERT_EQ(back.explored.size(), 1u);
    const CheckpointUnit &r = back.explored[0];
    EXPECT_EQ(r.covered_blocks, 9u);
    EXPECT_EQ(r.total_blocks, 12u);
    EXPECT_EQ(r.covered_edges, 8u);
    EXPECT_EQ(r.total_edges, 15u);
    EXPECT_EQ(r.truncation, TruncationReason::PathCap);
}

TEST(CheckpointV2, RejectsBadTruncationReason)
{
    Checkpoint cp;
    CheckpointUnit u;
    u.table_index = 1;
    cp.explored.push_back(u);
    std::stringstream buf;
    save_checkpoint(buf, cp);
    std::string text = buf.str();
    // The truncation column is the 16th field after "unit" (see
    // save_checkpoint's unit row layout).
    const auto pos = text.find("unit ");
    ASSERT_NE(pos, std::string::npos);
    std::size_t field_start = pos;
    for (int f = 0; f < 16; ++f) {
        field_start = text.find(' ', field_start);
        ASSERT_NE(field_start, std::string::npos);
        ++field_start;
    }
    const std::size_t field_end = text.find(' ', field_start);
    ASSERT_NE(field_end, std::string::npos);
    text.replace(field_start, field_end - field_start, "99");
    std::stringstream bad(text);
    EXPECT_THROW(load_checkpoint(bad), std::logic_error);
}

} // namespace
} // namespace pokeemu
