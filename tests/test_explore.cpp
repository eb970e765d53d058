/**
 * @file
 * Tests for the exploration stages: instruction-set exploration over
 * the symbolic decoder, the Figure-3 state spec, and per-instruction
 * state-space exploration properties.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "explore/insn_explorer.h"
#include "hifi/hifi_emulator.h"
#include "ir/eval.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "explore/state_explorer.h"
#include "testgen/baseline.h"

namespace pokeemu::explore {
namespace {

arch::DecodedInsn
decode_insn(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    EXPECT_EQ(arch::decode(buf.data(), buf.size(), insn),
              arch::DecodeStatus::Ok);
    return insn;
}

struct SpecEnv
{
    symexec::VarPool summary_pool;
    symexec::Summary summary;
    StateSpec spec;

    SpecEnv()
        : summary(hifi::summarize_descriptor_load(summary_pool)),
          spec(testgen::baseline_cpu_state(), &summary)
    {
    }
};

SpecEnv &
env()
{
    static SpecEnv instance;
    return instance;
}

TEST(InsnSetExploration, CappedRunFindsInstructions)
{
    InsnSetOptions options;
    options.max_paths = 1500;
    const InsnSetResult r = explore_instruction_set(options);
    EXPECT_GT(r.candidate_sequences, 100u);
    EXPECT_GT(r.representatives.size(), 30u);
    EXPECT_GT(r.invalid_sequences, 0u);
    // Every representative must decode to its claimed table row.
    for (const auto &[index, bytes] : r.representatives) {
        arch::DecodedInsn insn;
        ASSERT_EQ(arch::decode(bytes.data(), bytes.size(), insn),
                  arch::DecodeStatus::Ok);
        EXPECT_EQ(insn.table_index, index);
    }
}

TEST(InsnSetExploration, CappedRunMatchesRecordedRepresentatives)
{
    // A capped run makes the first paths of the full 2-byte seed-1
    // exploration, so each representative it finds is the one the
    // benchmark's decode check pins (one "index:hex" line per row).
    std::ifstream in(POKEEMU_DECODE_SEED1_FILE);
    ASSERT_TRUE(in) << POKEEMU_DECODE_SEED1_FILE;
    std::map<int, std::string> recorded;
    std::string line;
    while (in >> line) {
        const std::size_t colon = line.find(':');
        ASSERT_NE(colon, std::string::npos) << line;
        recorded[std::stoi(line.substr(0, colon))] = line.substr(colon + 1);
    }

    InsnSetOptions options;
    options.symbolic_bytes = 2;
    options.seed = 1;
    options.max_paths = 600;
    const InsnSetResult r = explore_instruction_set(options);
    EXPECT_GT(r.representatives.size(), 150u);
    for (const auto &[index, bytes] : r.representatives) {
        std::string hex;
        for (const u8 b : bytes) {
            char buf[3];
            std::snprintf(buf, sizeof buf, "%02x", b);
            hex += buf;
        }
        ASSERT_TRUE(recorded.count(index)) << "row " << index;
        EXPECT_EQ(hex, recorded[index]) << "row " << index;
    }
}

TEST(StateSpec, LocatesItsVariables)
{
    const StateSpec &spec = env().spec;
    const auto eax0 = spec.locate("gpr_eax_b0");
    ASSERT_TRUE(eax0.has_value());
    EXPECT_EQ(eax0->kind, VarLocation::Kind::CpuByte);
    EXPECT_EQ(eax0->addr, arch::layout::kOffGpr);
    EXPECT_EQ(eax0->mask, 0xff);

    const auto gdt = spec.locate("gdt10_b5");
    ASSERT_TRUE(gdt.has_value());
    EXPECT_EQ(gdt->kind, VarLocation::Kind::RamByte);
    EXPECT_EQ(gdt->addr, arch::layout::kPhysGdt + 8 * 10 + 5);

    const auto mem = spec.locate("mem_00201234");
    ASSERT_TRUE(mem.has_value());
    EXPECT_EQ(mem->addr, 0x00201234u);

    EXPECT_FALSE(spec.locate("nonsense").has_value());
}

TEST(StateSpec, PinnedBitsStayConcrete)
{
    symexec::VarPool pool;
    auto initial = env().spec.initial_fn(pool);
    // CR0 byte 0: PE (bit 0) pinned to 1; byte 3: PG (bit 7) pinned.
    auto cr0_b0 = initial(arch::layout::kCr0Addr);
    auto cr0_b3 = initial(arch::layout::kCr0Addr + 3);
    // Extracting the pinned bits must fold to constants.
    EXPECT_TRUE(ir::E::extract(cr0_b0, 0, 1)->is_const(1));
    EXPECT_TRUE(ir::E::extract(cr0_b3, 7, 1)->is_const(1));
    // A symbolic bit stays symbolic (WP = bit 16 -> byte 2 bit 0).
    auto cr0_b2 = initial(arch::layout::kCr0Addr + 2);
    EXPECT_FALSE(ir::E::extract(cr0_b2, 0, 1)->is_const());
    // EIP is pinned entirely.
    auto eip0 = initial(arch::layout::kEipAddr);
    EXPECT_TRUE(eip0->is_const());
}

TEST(StateSpec, SegmentCachesDeriveFromGdtBytes)
{
    symexec::VarPool pool;
    auto initial = env().spec.initial_fn(pool);
    // The SS limit byte is an expression over the gdt10 variables.
    auto limit_b0 = initial(
        arch::layout::seg_addr(arch::kSs, arch::layout::kSegLimit));
    std::vector<ir::ExprRef> vars;
    ir::Expr::collect_vars(limit_b0, vars);
    bool mentions_gdt10 = false;
    for (const auto &v : vars)
        mentions_gdt10 |= v->name().rfind("gdt10_", 0) == 0;
    EXPECT_TRUE(mentions_gdt10);
}

// The summary is instantiated once per thread: fresh pools on one
// thread share its nodes, and another thread interns its own.
TEST(StateSpec, SummaryInstancesArePerThread)
{
    symexec::VarPool a, b;
    const auto pre_a = env().spec.preconditions(a);
    const auto pre_b = env().spec.preconditions(b);
    ASSERT_FALSE(pre_a.empty());
    ASSERT_EQ(pre_a.size(), pre_b.size());
    for (std::size_t i = 0; i < pre_a.size(); ++i)
        EXPECT_EQ(pre_a[i].get(), pre_b[i].get()) << "precondition " << i;

    std::vector<ir::ExprRef> pre_other;
    std::vector<std::string> text_other;
    std::thread([&] {
        symexec::VarPool pool;
        pre_other = env().spec.preconditions(pool);
        for (const ir::ExprRef &cond : pre_other)
            text_other.push_back(ir::to_string(cond));
    }).join();
    ASSERT_EQ(pre_other.size(), pre_a.size());
    for (std::size_t i = 0; i < pre_a.size(); ++i) {
        EXPECT_NE(pre_other[i].get(), pre_a[i].get()) << "precondition "
                                                      << i;
        EXPECT_EQ(text_other[i], ir::to_string(pre_a[i]));
    }
}

TEST(StateSpec, BaselineAssignmentSatisfiesPreconditions)
{
    symexec::VarPool pool;
    auto initial = env().spec.initial_fn(pool);
    (void)initial;
    const auto pre = env().spec.preconditions(pool);
    ASSERT_FALSE(pre.empty());
    const solver::Assignment base =
        env().spec.baseline_assignment(pool);
    // The baseline descriptors are loadable, so the baseline values
    // must satisfy every loadability precondition.
    EXPECT_TRUE(base.satisfies(pre));
}

TEST(StateExploration, PathsAreDistinctBehaviours)
{
    const arch::DecodedInsn insn = decode_insn({0x50}); // push eax
    StateExploreOptions options;
    options.max_paths = 64;
    const StateExploreResult r =
        explore_instruction(insn, env().spec, &env().summary, options);
    EXPECT_TRUE(r.stats.complete);
    EXPECT_GE(r.paths.size(), 4u);
    // The outcomes must include both success and faults.
    std::set<u32> codes;
    for (const auto &p : r.paths)
        codes.insert(p.halt_code);
    EXPECT_TRUE(codes.count(hifi::kHaltOk));
    EXPECT_TRUE(codes.count(hifi::halt_exception_code(arch::kExcPf)) ||
                codes.count(hifi::halt_exception_code(arch::kExcSs)));
}

TEST(StateExploration, JccExploresBothDirections)
{
    const arch::DecodedInsn insn = decode_insn({0x74, 0x10}); // jz
    StateExploreOptions options;
    options.max_paths = 8;
    StateExploreResult r =
        explore_instruction(insn, env().spec, &env().summary, options);
    EXPECT_TRUE(r.stats.complete);
    EXPECT_EQ(r.paths.size(), 2u);
    // The two paths must disagree on ZF.
    const auto zf_byte = r.pool.get("eflags_b0", 8);
    const u64 zf0 =
        (r.paths[0].assignment.get(zf_byte->var_id()) >> 6) & 1;
    const u64 zf1 =
        (r.paths[1].assignment.get(zf_byte->var_id()) >> 6) & 1;
    EXPECT_NE(zf0, zf1);
}

TEST(StateExploration, DivideFaultStateHasZeroDivisor)
{
    const arch::DecodedInsn insn = decode_insn({0xf7, 0xf3}); // div ebx
    StateExploreOptions options;
    options.max_paths = 16;
    const StateExploreResult r =
        explore_instruction(insn, env().spec, &env().summary, options);
    bool found_de = false;
    for (const auto &p : r.paths) {
        if (p.halt_code != hifi::halt_exception_code(arch::kExcDe))
            continue;
        found_de = true;
    }
    EXPECT_TRUE(found_de);
}

TEST(StateExploration, MinimizationOnlyImprovesBaselineDistance)
{
    const arch::DecodedInsn insn = decode_insn({0xcf}); // iret
    StateExploreOptions with, without;
    with.max_paths = without.max_paths = 32;
    without.minimize = false;
    const auto r_with =
        explore_instruction(insn, env().spec, &env().summary, with);
    const auto r_without = explore_instruction(insn, env().spec,
                                               &env().summary, without);
    EXPECT_LT(r_with.minimize.bits_different_after,
              r_with.minimize.bits_different_before);
    EXPECT_EQ(r_without.minimize.bits_tried, 0u);
}

TEST(StateExploration, RepStringHitsPathCap)
{
    const arch::DecodedInsn insn = decode_insn({0xf3, 0xaa}); // rep stosb
    StateExploreOptions options;
    options.max_paths = 6;
    options.max_steps = 3000;
    const StateExploreResult r =
        explore_instruction(insn, env().spec, &env().summary, options);
    // Iteration counts make this inexhaustible: the cap must bite
    // (the paper's ~5% incomplete class).
    EXPECT_FALSE(r.stats.complete);
    EXPECT_EQ(r.paths.size(), 6u);
}

TEST(Summary, MatchesInlineSemantics)
{
    // The summarized and inline segment-load semantics must agree:
    // run mov ds,ax over random GDT entry bytes on the Hi-Fi emulator
    // built each way and compare outcomes.
    Rng rng(31337);
    const arch::DecodedInsn insn = decode_insn({0x8e, 0xd8});
    ir::Program with_summary = hifi::build_semantics(
        insn, {true, &env().summary});
    ir::Program inline_parse = hifi::build_semantics(insn, {true,
                                                            nullptr});
    for (int trial = 0; trial < 40; ++trial) {
        arch::CpuState cpu = testgen::baseline_cpu_state();
        std::vector<u8> ram = testgen::baseline_ram_after_init().to_bytes();
        cpu.gpr[arch::kEax] = 0x18; // Selector: GDT entry 3.
        for (unsigned i = 0; i < 8; ++i)
            ram[arch::layout::kPhysGdt + 8 * 3 + i] =
                static_cast<u8>(rng.next());

        auto run_with = [&](const ir::Program &program) {
            hifi::HiFiEmulator emu;
            emu.reset(cpu, ram);
            // Interpret the program directly against the emulator's
            // address space.
            const ir::RunResult res = ir::run_concrete(program, emu);
            EXPECT_EQ(res.status, ir::RunStatus::Halted);
            return std::make_pair(res.halt_code, emu.cpu());
        };
        const auto a = run_with(with_summary);
        const auto b = run_with(inline_parse);
        EXPECT_EQ(a.first, b.first) << "trial " << trial;
        EXPECT_EQ(a.second, b.second) << "trial " << trial;
    }
}

} // namespace
} // namespace pokeemu::explore
