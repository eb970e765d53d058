/**
 * @file
 * Compiled-semantics tests (hifi/compiled.h + the semgen-generated
 * table): table freshness, handler-vs-interpreter agreement including
 * the retired-statement count, and byte-identical pipeline reports
 * across CompiledExec modes and shard counts. The exhaustive per-unit
 * differential sweep and optimization proof are the
 * semgen_crosscheck_all ctest (tools/semgen_check.cpp); here a sample
 * keeps unit-suite latency low.
 */
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hifi/compiled.h"
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

/** Small shared workload for the report-identity pipelines. */
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

TEST(CompiledTable, StampMatchesExpectedHash)
{
    const hifi::CompiledTable &table = hifi::compiled_table();
    EXPECT_EQ(table.semantics_hash, hifi::compiled_expected_hash());
    EXPECT_EQ(table.num_entries, hifi::compiled_units().size());
    EXPECT_EQ(table.rows, arch::insn_table().size());
    EXPECT_EQ(table.row_begin[0], 0u);
    EXPECT_EQ(table.row_begin[table.rows], table.num_entries);
}

TEST(CompiledTable, CoversEveryRowPlusVariants)
{
    const auto &units = hifi::compiled_units();
    const std::size_t rows = arch::insn_table().size();
    ASSERT_GE(units.size(), rows);
    std::vector<bool> covered(rows, false);
    std::size_t variants = 0;
    for (const hifi::CompiledUnit &unit : units) {
        covered[static_cast<std::size_t>(unit.insn.table_index)] = true;
        variants += unit.variant;
    }
    for (std::size_t i = 0; i < rows; ++i)
        EXPECT_TRUE(covered[i]) << "row " << i << " has no handler";
    // Both operand forms of ModRM instructions get handlers.
    EXPECT_GT(variants, 100u);
}

/** Handler agrees with the interpreter on RunResult — including
 *  steps, the retired-IR-statement count (so replay accounting is
 *  mode-independent) — and on the store journal. */
TEST(CompiledHandlers, DifferentialSampleAgreesWithInterpreter)
{
    const auto &units = hifi::compiled_units();
    const hifi::CompiledTable &table = hifi::compiled_table();
    ASSERT_EQ(table.num_entries, units.size());
    // Every 13th unit: a spread over rows and both operand forms.
    for (std::size_t u = 0; u < units.size(); u += 13) {
        const hifi::CompiledUnit &unit = units[u];
        for (u64 s = 0; s < 4; ++s) {
            const u64 seed = 0x9e3779b9u * (u + 1) + s;
            const u32 imm =
                unit.params_ok ? static_cast<u32>(seed * 2654435761u)
                               : unit.insn.imm;
            const u32 disp =
                unit.params_ok ? static_cast<u32>(seed * 40503u)
                               : unit.insn.disp;
            hifi::ReplayMemory ref(seed);
            ref.poke(hifi::param_block::kImm, 4, imm);
            ref.poke(hifi::param_block::kDisp, 4, disp);
            const ir::RunResult want =
                ir::run_concrete(unit.program, ref);

            hifi::ReplayMemory got(seed);
            got.poke(hifi::param_block::kImm, 4, imm);
            got.poke(hifi::param_block::kDisp, 4, disp);
            const ir::RunResult have =
                table.entries[u].handler(got, 1u << 22);

            ASSERT_EQ(want.status, have.status)
                << unit.insn.desc->mnemonic << " unit " << u;
            EXPECT_EQ(want.halt_code, have.halt_code)
                << unit.insn.desc->mnemonic;
            EXPECT_EQ(want.steps, have.steps)
                << unit.insn.desc->mnemonic;
            EXPECT_EQ(ref.journal().size(), got.journal().size());
            for (std::size_t j = 0; j < ref.journal().size() &&
                 j < got.journal().size();
                 ++j) {
                EXPECT_TRUE(ref.journal()[j] == got.journal()[j])
                    << unit.insn.desc->mnemonic << " store " << j;
            }
        }
    }
}

TEST(CompiledPipeline, ReportByteIdenticalAcrossModes)
{
    CampaignOptions options = base_campaign();
    const CampaignResult off = run_campaign(options);
    EXPECT_EQ(off.merged.compiled_hits, 0u);

    options.pipeline.compiled = hifi::CompiledExec::On;
    const CampaignResult on = run_campaign(options);
    EXPECT_EQ(on.report(), off.report());
    EXPECT_GT(on.merged.compiled_hits, 0u);
    EXPECT_EQ(on.merged.quarantine.total(), 0u);
}

TEST(CompiledPipeline, ReportByteIdenticalAcrossShardCounts)
{
    CampaignOptions options = base_campaign();
    options.pipeline.compiled = hifi::CompiledExec::On;
    const std::string reference = run_campaign(options).report();
    for (u32 shards : {2u, 4u}) {
        options.shards = shards;
        const CampaignResult result = run_campaign(options);
        EXPECT_EQ(result.report(), reference) << shards << " shards";
        EXPECT_GT(result.merged.compiled_hits, 0u);
    }
}

} // namespace
} // namespace pokeemu
