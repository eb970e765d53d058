/**
 * @file
 * Defect-corpus tests: catalogue sanity, per-flag BugConfig→Behavior
 * coverage, targeted unit tests for each injectable DirectCpu defect,
 * misbehaving-backend containment (crash / hang / snapshot
 * corruption) at the runner and pipeline layers, detection scoring,
 * and the patched-emulator regression (a BugConfig::none() pipeline
 * reports zero non-timeout Lo-Fi difference clusters).
 */
#include <gtest/gtest.h>

#include <sstream>

#include "arch/assembler.h"
#include "arch/descriptors.h"
#include "arch/paging.h"
#include "defects/defects.h"
#include "harness/runner.h"
#include "pokeemu/resilience.h"

namespace pokeemu {
namespace {

namespace layout = arch::layout;
using arch::CpuState;
using arch::Snapshot;
using lofi::BugConfig;
using lofi::Misbehavior;
using support::FaultClass;
using support::FaultError;
using support::Stage;

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

std::size_t
catalogue_index(const std::string &name)
{
    for (std::size_t i = 0; i < defects::catalogue().size(); ++i) {
        if (defects::catalogue()[i].name == name)
            return i;
    }
    ADD_FAILURE() << "no catalogue entry named " << name;
    return 0;
}

/** Run a test program image on a backend from the baseline state. */
Snapshot
run_on(backend::DirectCpu &cpu, const CpuState &start,
       const std::vector<u8> &image, u64 budget = 256)
{
    cpu.reset(start, image);
    cpu.run(budget);
    return cpu.snapshot();
}

/** Build an image whose test program is @p assemble's output + hlt. */
template <typename Fn>
std::vector<u8>
test_image(Fn assemble)
{
    arch::Assembler a(layout::kPhysTestCode);
    assemble(a);
    a.hlt();
    std::vector<u8> image = testgen::baseline_ram_after_init().to_bytes();
    std::copy(a.bytes().begin(), a.bytes().end(),
              image.begin() + layout::kPhysTestCode);
    return image;
}

/** Behavior of BugConfig::none() with one field toggled. */
backend::Behavior
behavior_with(bool BugConfig::*knob)
{
    BugConfig bugs = BugConfig::none();
    bugs.*knob = true;
    return lofi::behavior_from_bugs(bugs);
}

// ---------------------------------------------------------------------
// Per-flag BugConfig → Behavior coverage: toggling each knob from
// none() flips exactly the expected Behavior knob and nothing else.
// ---------------------------------------------------------------------

TEST(BehaviorFromBugs, NoneMatchesHardware)
{
    EXPECT_EQ(lofi::behavior_from_bugs(BugConfig::none()),
              backend::hardware_behavior());
}

TEST(BehaviorFromBugs, EachKnobFlipsExactlyItsBehavior)
{
    struct Case
    {
        const char *name;
        bool BugConfig::*knob;
        void (*expect)(backend::Behavior &);
    };
    const Case cases[] = {
        {"no_segment_checks", &BugConfig::no_segment_checks,
         [](backend::Behavior &b) {
             b.enforce_segment_checks = false;
         }},
        {"leave_nonatomic", &BugConfig::leave_nonatomic,
         [](backend::Behavior &b) { b.leave_atomic = false; }},
        {"cmpxchg_nonatomic", &BugConfig::cmpxchg_nonatomic,
         [](backend::Behavior &b) {
             b.cmpxchg_checks_write_first = false;
         }},
        {"iret_pop_order", &BugConfig::iret_pop_order,
         [](backend::Behavior &b) { b.iret_pop_inner_first = false; }},
        {"rdmsr_no_gp", &BugConfig::rdmsr_no_gp,
         [](backend::Behavior &b) { b.rdmsr_gp_on_invalid = false; }},
        {"no_accessed_flag", &BugConfig::no_accessed_flag,
         [](backend::Behavior &b) {
             b.set_descriptor_accessed = false;
         }},
        {"reject_valid_encodings", &BugConfig::reject_valid_encodings,
         [](backend::Behavior &b) {
             b.accept_alias_encodings = false;
         }},
        {"undef_flags_divergence", &BugConfig::undef_flags_divergence,
         [](backend::Behavior &b) {
             b.undef_flags = backend::UndefFlagStyle::LoFi;
         }},
        {"flags_wrong_width", &BugConfig::flags_wrong_width,
         [](backend::Behavior &b) { b.alu8_flags_wide = true; }},
        {"far_fetch_selector_first",
         &BugConfig::far_fetch_selector_first,
         [](backend::Behavior &b) {
             b.far_fetch_offset_first = false;
         }},
        {"pte_accessed_dirty_dropped",
         &BugConfig::pte_accessed_dirty_dropped,
         [](backend::Behavior &b) {
             b.set_pte_accessed_dirty = false;
         }},
        {"seg_limit_off_by_one", &BugConfig::seg_limit_off_by_one,
         [](backend::Behavior &b) { b.seg_limit_off_by_one = true; }},
        {"wrmsr_truncated", &BugConfig::wrmsr_truncated,
         [](backend::Behavior &b) { b.wrmsr_truncate_16 = true; }},
    };

    for (const Case &c : cases) {
        backend::Behavior expected =
            lofi::behavior_from_bugs(BugConfig::none());
        c.expect(expected);
        EXPECT_EQ(behavior_with(c.knob), expected) << c.name;
        EXPECT_NE(behavior_with(c.knob),
                  lofi::behavior_from_bugs(BugConfig::none()))
            << c.name << ": knob is a no-op";
    }
}

// ---------------------------------------------------------------------
// Catalogue and mutation-plan sanity.
// ---------------------------------------------------------------------

TEST(DefectCatalogue, EntriesAreWellFormed)
{
    std::set<std::string> names;
    std::set<std::string> latent;
    std::size_t behavioral = 0;
    std::size_t misbehaving = 0;
    for (const defects::DefectSpec &d : defects::catalogue()) {
        EXPECT_TRUE(names.insert(d.name).second)
            << "duplicate name " << d.name;
        EXPECT_FALSE(d.focus_encodings.empty()) << d.name;
        if (d.kind == defects::DefectKind::Behavioral) {
            ++behavioral;
            EXPECT_NE(d.knob, nullptr) << d.name;
            EXPECT_EQ(d.misbehavior, Misbehavior::None) << d.name;
            if (d.detectable)
                EXPECT_FALSE(d.expected_clusters.empty()) << d.name;
            else
                latent.insert(d.name);
        } else {
            ++misbehaving;
            EXPECT_EQ(d.knob, nullptr) << d.name;
            EXPECT_NE(d.misbehavior, Misbehavior::None) << d.name;
            EXPECT_FALSE(d.detectable) << d.name;
        }
    }
    // Eight classic §6.2 bugs + five injectable DirectCpu defects +
    // two injectable timing defects.
    EXPECT_EQ(behavioral, 15u);
    EXPECT_EQ(misbehaving, 3u);
    // The latent set is an empirical fact about the pipeline: these
    // defects are value-dependent (or masked by the EFLAGS oracle),
    // so path-coverage-minimized tests never excite them, however
    // deep the exploration. Unit tests above prove each is real.
    const std::set<std::string> expected_latent = {
        "undef-flags-divergence",
        "flags-wrong-width",
        "seg-limit-off-by-one",
        "wrmsr-truncated",
    };
    EXPECT_EQ(latent, expected_latent);
    EXPECT_NE(defects::find_defect("leave-nonatomic"), nullptr);
    EXPECT_EQ(defects::find_defect("no-such-defect"), nullptr);
}

TEST(DefectCatalogue, ApplyDefectsSetsExactlyTheKnob)
{
    for (std::size_t i = 0; i < defects::catalogue().size(); ++i) {
        const defects::DefectSpec &d = defects::catalogue()[i];
        const BugConfig bugs = defects::apply_defects({i});
        if (d.kind == defects::DefectKind::Misbehavior) {
            EXPECT_EQ(bugs, BugConfig::none()) << d.name;
            continue;
        }
        BugConfig expected = BugConfig::none();
        expected.*d.knob = true;
        EXPECT_EQ(bugs, expected) << d.name;
    }
}

TEST(MutationPlan, SinglePlanCoversTheCatalogue)
{
    const defects::MutationPlan plan = defects::single_defect_plan();
    ASSERT_EQ(plan.variants.size(), defects::catalogue().size());
    for (std::size_t i = 0; i < plan.variants.size(); ++i) {
        EXPECT_EQ(plan.variants[i].name,
                  defects::catalogue()[i].name);
        EXPECT_EQ(plan.variants[i].defects,
                  std::vector<std::size_t>{i});
    }
}

TEST(MutationPlan, PairPlanIsSeededAndBehavioralOnly)
{
    const defects::MutationPlan a = defects::pair_defect_plan(7, 5);
    const defects::MutationPlan b = defects::pair_defect_plan(7, 5);
    ASSERT_EQ(a.variants.size(), 5u);
    for (std::size_t i = 0; i < a.variants.size(); ++i) {
        EXPECT_EQ(a.variants[i].name, b.variants[i].name);
        EXPECT_EQ(a.variants[i].defects, b.variants[i].defects);
        ASSERT_EQ(a.variants[i].defects.size(), 2u);
        EXPECT_NE(a.variants[i].defects[0], a.variants[i].defects[1]);
        for (std::size_t d : a.variants[i].defects) {
            EXPECT_EQ(defects::catalogue()[d].kind,
                      defects::DefectKind::Behavioral);
        }
        EXPECT_EQ(a.variants[i].name.rfind("pair:", 0), 0u);
    }
    // A different seed picks a different plan (or at least may; these
    // seeds do).
    const defects::MutationPlan c = defects::pair_defect_plan(8, 5);
    bool any_difference = false;
    for (std::size_t i = 0; i < 5; ++i)
        any_difference |= a.variants[i].name != c.variants[i].name;
    EXPECT_TRUE(any_difference);
}

TEST(MutationPlan, VariantCampaignFocusesTheInstructionFilter)
{
    const std::size_t i = catalogue_index("wrmsr-truncated");
    const defects::MatrixOptions options;
    const CampaignOptions campaign = defects::variant_campaign(
        {"wrmsr-truncated", {i}}, options);
    EXPECT_EQ(campaign.pipeline.instruction_filter,
              std::vector<int>{index_of({0x0f, 0x30})});
    BugConfig expected = BugConfig::none();
    expected.wrmsr_truncated = true;
    EXPECT_EQ(campaign.pipeline.bugs, expected);
    EXPECT_EQ(campaign.pipeline.lofi_misbehavior, Misbehavior::None);
    EXPECT_EQ(campaign.pipeline.resilience.budgets.test_watchdog_insns,
              options.watchdog_insns);

    const std::size_t h = catalogue_index("backend-hang");
    const CampaignOptions hang = defects::variant_campaign(
        {"backend-hang", {h}}, options);
    EXPECT_EQ(hang.pipeline.lofi_misbehavior, Misbehavior::Hang);
    EXPECT_EQ(hang.pipeline.bugs, BugConfig::none());
}

// ---------------------------------------------------------------------
// Targeted unit tests: each injectable DirectCpu defect observable in
// isolation (the same failure-injection style as test_backends.cpp).
// ---------------------------------------------------------------------

TEST(InjectedDefects, Alu8FlagsComputedAtWrongWidthMiscomputeCarry)
{
    // add al, 0x90 with al=0x90: carry out of bit 7 sets CF at 8-bit
    // width; computed at 32-bit width the sum 0x120 carries nothing.
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEax, 0x90);
        a.raw({0x04, 0x90}); // add al, 0x90
    });
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu variant(
        behavior_with(&BugConfig::flags_wrong_width));
    const Snapshot s_variant = run_on(variant, start, image);

    EXPECT_EQ(s_hw.cpu.gpr[arch::kEax] & 0xff, 0x20u);
    EXPECT_EQ(s_variant.cpu.gpr[arch::kEax] & 0xff, 0x20u);
    EXPECT_TRUE(s_hw.cpu.eflags & arch::kFlagCf);
    EXPECT_FALSE(s_variant.cpu.eflags & arch::kFlagCf);
}

TEST(InjectedDefects, DroppedPteAccessedDirtyBitsSkipPageTableWrites)
{
    // First store to a page nothing touched during init: hardware
    // sets the PTE accessed+dirty bits, the defective soft-MMU stores
    // the data but forgets the page-table write-back.
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_mem_imm8(0x300000, 0xab);
    });
    const CpuState start = testgen::baseline_cpu_state();
    const u32 pte = layout::kPhysPageTable + 4 * 0x300;
    ASSERT_FALSE(image[pte] & arch::kPteAccessed);

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu variant(
        behavior_with(&BugConfig::pte_accessed_dirty_dropped));
    const Snapshot s_variant = run_on(variant, start, image);

    EXPECT_EQ(s_hw.ram[0x300000], 0xab);
    EXPECT_EQ(s_variant.ram[0x300000], 0xab);
    EXPECT_TRUE(s_hw.ram[pte] & arch::kPteAccessed);
    EXPECT_TRUE(s_hw.ram[pte] & arch::kPteDirty);
    EXPECT_FALSE(s_variant.ram[pte] & arch::kPteAccessed);
    EXPECT_FALSE(s_variant.ram[pte] & arch::kPteDirty);

    // The divergence is exactly the shape the new cluster rule keys
    // on: no CPU diffs, memory diffs confined to the page tables.
    const arch::SnapshotDiff diff =
        arch::diff_snapshots(s_hw, s_variant);
    ASSERT_FALSE(diff.empty());
    EXPECT_TRUE(diff.cpu.empty());
    arch::DecodedInsn insn;
    ASSERT_EQ(arch::decode(&image[layout::kPhysTestCode], 15, insn),
              arch::DecodeStatus::Ok);
    EXPECT_EQ(harness::classify_difference(insn, diff, s_hw,
                                           s_variant),
              "pte-accessed-dirty-not-set");
}

TEST(InjectedDefects, SegmentLimitOffByOneFaultsOnLastValidByte)
{
    // DS limit 0xff: a write at offset 0xff is the last legal byte.
    // Hardware admits it; the off-by-one comparison rejects it.
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEax, 0x18); // GDT entry 3.
        a.mov_sreg_r16(arch::kDs, arch::kEax);
        a.mov_mem_imm8(0xff, 0xab);
    });
    arch::Descriptor d;
    d.base = 0;
    d.limit_raw = 0xff;
    d.access = 0x93;
    d.granularity = false;
    d.db = true;
    arch::encode_descriptor(d, &image[layout::kPhysGdt + 8 * 3]);
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu variant(
        behavior_with(&BugConfig::seg_limit_off_by_one));
    const Snapshot s_variant = run_on(variant, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcNone);
    EXPECT_EQ(s_hw.ram[0xff], 0xab);
    EXPECT_EQ(s_variant.cpu.exception.vector, arch::kExcGp);
    EXPECT_NE(s_variant.ram[0xff], 0xab);
}

TEST(InjectedDefects, WrmsrTruncatedKeepsOnlyLowSixteenBits)
{
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEcx, 0x174); // IA32_SYSENTER_CS
        a.mov_r32_imm32(arch::kEax, 0x12345678);
        a.raw({0x0f, 0x30}); // wrmsr
    });
    const CpuState start = testgen::baseline_cpu_state();

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu variant(
        behavior_with(&BugConfig::wrmsr_truncated));
    const Snapshot s_variant = run_on(variant, start, image);

    EXPECT_EQ(s_hw.cpu.msr.sysenter_cs, 0x12345678u);
    EXPECT_EQ(s_variant.cpu.msr.sysenter_cs, 0x5678u);

    // And the divergence classifies as the dedicated cluster.
    const arch::SnapshotDiff diff =
        arch::diff_snapshots(s_hw, s_variant);
    ASSERT_FALSE(diff.empty());
    arch::DecodedInsn insn;
    const u8 wrmsr[15] = {0x0f, 0x30};
    ASSERT_EQ(arch::decode(wrmsr, sizeof wrmsr, insn),
              arch::DecodeStatus::Ok);
    EXPECT_EQ(harness::classify_difference(insn, diff, s_hw,
                                           s_variant),
              "msr-write-truncated");
}

TEST(InjectedDefects, FarFetchSelectorFirstTouchesSelectorPage)
{
    // lfs with the offset dword on an unmapped page and the selector
    // word on the next, mapped page: hardware (offset first) faults
    // before reading the selector; the reordered variant reads the
    // selector page first — visible in its PTE accessed bit.
    std::vector<u8> image = test_image([](arch::Assembler &a) {
        a.mov_r32_imm32(arch::kEbx, 0x300ffc);
        a.raw({0x0f, 0xb4, 0x0b}); // lfs ecx, [ebx]
    });
    image[layout::kPhysPageTable + 4 * 0x300] &= ~arch::kPtePresent;
    const CpuState start = testgen::baseline_cpu_state();
    const u32 pte_301 = layout::kPhysPageTable + 4 * 0x301;

    backend::DirectCpu hw(backend::hardware_behavior());
    const Snapshot s_hw = run_on(hw, start, image);
    backend::DirectCpu variant(
        behavior_with(&BugConfig::far_fetch_selector_first));
    const Snapshot s_variant = run_on(variant, start, image);

    EXPECT_EQ(s_hw.cpu.exception.vector, arch::kExcPf);
    EXPECT_EQ(s_variant.cpu.exception.vector, arch::kExcPf);
    EXPECT_FALSE(s_hw.ram[pte_301] & arch::kPteAccessed);
    EXPECT_TRUE(s_variant.ram[pte_301] & arch::kPteAccessed);
}

// ---------------------------------------------------------------------
// Misbehaving-backend containment at the runner layer.
// ---------------------------------------------------------------------

FaultClass
run_lofi_fault_class(const harness::TestRunner::Config &cfg)
{
    harness::TestRunner runner(cfg);
    try {
        runner.run_one(harness::Backend::LoFi, {0xf4});
    } catch (const FaultError &e) {
        return e.fault_class();
    }
    ADD_FAILURE() << "misbehaving backend did not fault";
    return FaultClass::Internal;
}

TEST(MisbehavingBackend, CrashSurfacesAsTypedFault)
{
    harness::TestRunner::Config cfg;
    cfg.bugs = BugConfig::none();
    cfg.lofi_misbehavior = Misbehavior::Crash;
    EXPECT_EQ(run_lofi_fault_class(cfg), FaultClass::BackendCrash);
}

TEST(MisbehavingBackend, HangTripsTheInsnWatchdog)
{
    harness::TestRunner::Config cfg;
    cfg.bugs = BugConfig::none();
    cfg.lofi_misbehavior = Misbehavior::Hang;
    cfg.watchdog_insns = 1024;
    EXPECT_EQ(run_lofi_fault_class(cfg), FaultClass::BackendHang);

    // Without a watchdog the hang must still terminate (reported
    // immediately rather than looping forever).
    cfg.watchdog_insns = 0;
    EXPECT_EQ(run_lofi_fault_class(cfg), FaultClass::BackendHang);
}

TEST(MisbehavingBackend, CorruptSnapshotIsShapeValidated)
{
    harness::TestRunner::Config cfg;
    cfg.bugs = BugConfig::none();
    cfg.lofi_misbehavior = Misbehavior::CorruptSnapshot;
    EXPECT_EQ(run_lofi_fault_class(cfg), FaultClass::SnapshotCorrupt);
}

TEST(MisbehavingBackend, HonestBackendUnderWatchdogIsUnaffected)
{
    harness::TestRunner::Config honest;
    honest.bugs = BugConfig::none();
    harness::TestRunner::Config watched = honest;
    watched.watchdog_insns = 1u << 15;

    harness::TestRunner a(honest);
    harness::TestRunner b(watched);
    const std::vector<u8> program = {0x40, 0x40, 0xf4}; // inc;inc;hlt
    const auto run_a = a.run_one(harness::Backend::LoFi, program);
    const auto run_b = b.run_one(harness::Backend::LoFi, program);
    EXPECT_TRUE(
        arch::diff_snapshots(run_a.snapshot, run_b.snapshot).empty());

    // A completed run is never flagged, however tight the budget —
    // but an honest backend spinning past it (jmp $) trips the same
    // deterministic BackendHang as a misbehaving one.
    harness::TestRunner::Config tight = honest;
    tight.watchdog_insns = 16;
    harness::TestRunner spinner(tight);
    try {
        spinner.run_one(harness::Backend::LoFi, {0xeb, 0xfe});
        ADD_FAILURE() << "spinning program did not trip the watchdog";
    } catch (const FaultError &e) {
        EXPECT_EQ(e.fault_class(), FaultClass::BackendHang);
    }
}

// ---------------------------------------------------------------------
// Pipeline-level containment: a misbehaving variant backend cannot
// abort the sweep; every test is ledgered at Stage::Backend.
// ---------------------------------------------------------------------

PipelineStats
run_misbehaving_pipeline(Misbehavior misbehavior)
{
    PipelineOptions options;
    options.instruction_filter = {index_of({0x50}),
                                  index_of({0x74, 0x00})};
    options.max_paths_per_insn = 8;
    options.bugs = BugConfig::none();
    options.lofi_misbehavior = misbehavior;
    options.resilience.budgets.test_watchdog_insns = 1u << 14;
    Pipeline pipeline(options);
    return pipeline.run(); // Must not throw.
}

void
expect_contained(const PipelineStats &s, FaultClass cls)
{
    EXPECT_GT(s.test_programs, 0u);
    EXPECT_EQ(s.tests_executed, 0u);
    EXPECT_EQ(s.quarantine.count(Stage::Backend), s.test_programs);
    EXPECT_EQ(s.quarantine.count(cls), s.test_programs);
    EXPECT_EQ(s.quarantine.total(), s.test_programs);
    EXPECT_EQ(s.lofi_diffs, 0u);
}

TEST(PipelineContainment, CrashVariantQuarantinesEveryTest)
{
    expect_contained(run_misbehaving_pipeline(Misbehavior::Crash),
                     FaultClass::BackendCrash);
}

TEST(PipelineContainment, HangVariantQuarantinesEveryTest)
{
    expect_contained(run_misbehaving_pipeline(Misbehavior::Hang),
                     FaultClass::BackendHang);
}

TEST(PipelineContainment, CorruptVariantQuarantinesEveryTest)
{
    expect_contained(
        run_misbehaving_pipeline(Misbehavior::CorruptSnapshot),
        FaultClass::SnapshotCorrupt);
}

// ---------------------------------------------------------------------
// Fingerprint and checkpoint plumbing for the new knobs.
// ---------------------------------------------------------------------

TEST(Fingerprint, SensitiveToInjectedDefectsAndMisbehavior)
{
    PipelineOptions base;
    base.bugs = BugConfig::none();
    const u64 reference = options_fingerprint(base);

    for (std::size_t i = 0; i < defects::catalogue().size(); ++i) {
        const defects::DefectSpec &d = defects::catalogue()[i];
        if (d.kind != defects::DefectKind::Behavioral)
            continue;
        PipelineOptions mutated = base;
        mutated.bugs = defects::apply_defects({i});
        EXPECT_NE(options_fingerprint(mutated), reference) << d.name;
    }

    PipelineOptions misbehaving = base;
    misbehaving.lofi_misbehavior = Misbehavior::Crash;
    EXPECT_NE(options_fingerprint(misbehaving), reference);

    // Watchdog budgets are resilience knobs: a resumed campaign may
    // tighten them without invalidating prior progress.
    PipelineOptions watched = base;
    watched.resilience.budgets.test_watchdog_insns = 1234;
    watched.resilience.budgets.test_watchdog_ms = 5678;
    EXPECT_EQ(options_fingerprint(watched), reference);
}

TEST(Checkpoint, BackendQuarantineRowsRoundTrip)
{
    Checkpoint cp;
    cp.fingerprint = 42;
    cp.quarantine.add(Stage::Backend, "test 3",
                      FaultClass::BackendHang,
                      "lofi variant hung; per-run watchdog expired");
    cp.quarantine.add(Stage::Backend, "test 4",
                      FaultClass::SnapshotCorrupt,
                      "runner: lofi snapshot has wrong RAM size");

    std::stringstream stream;
    save_checkpoint(stream, cp);
    const Checkpoint loaded = load_checkpoint(stream);
    ASSERT_EQ(loaded.quarantine.total(), 2u);
    EXPECT_TRUE(loaded.quarantine.contains(
        Stage::Backend, "test 3", FaultClass::BackendHang,
        "lofi variant hung; per-run watchdog expired"));
    EXPECT_TRUE(loaded.quarantine.contains(
        Stage::Backend, "test 4", FaultClass::SnapshotCorrupt,
        "runner: lofi snapshot has wrong RAM size"));
}

// ---------------------------------------------------------------------
// Detection scoring.
// ---------------------------------------------------------------------

TEST(Scoring, ScoreVariantSeparatesExpectedFromForeignClusters)
{
    const std::size_t i = catalogue_index("wrmsr-truncated");
    arch::DecodedInsn insn;
    const u8 wrmsr[15] = {0x0f, 0x30};
    ASSERT_EQ(arch::decode(wrmsr, sizeof wrmsr, insn),
              arch::DecodeStatus::Ok);

    CampaignResult campaign;
    campaign.complete = true;
    PipelineStats &s = campaign.merged;
    s.test_programs = 10;
    s.tests_executed = 9;
    s.lofi_clusters.add_named(0, insn, "msr-write-truncated");
    s.lofi_clusters.add_named(1, insn, "msr-write-truncated");
    s.lofi_clusters.add_named(2, insn, "status-flags-divergence");
    s.lofi_clusters.add_named(3, insn, "timeout-only-lofi");
    s.quarantine.add(Stage::Execution, "test 9",
                     FaultClass::Execution, "refused");

    const defects::VariantScore score = defects::score_variant(
        {"wrmsr-truncated", {i}}, campaign);
    EXPECT_TRUE(score.detected);
    EXPECT_TRUE(score.detectable ==
                defects::catalogue()[i].detectable);
    // Timeout clusters are excluded from precision/purity entirely.
    EXPECT_EQ(score.total_clusters, 2u);
    EXPECT_EQ(score.matched_clusters, 1u);
    EXPECT_EQ(score.total_diff_tests, 3u);
    EXPECT_EQ(score.matched_tests, 2u);
    EXPECT_DOUBLE_EQ(score.precision(), 0.5);
    EXPECT_NEAR(score.purity(), 2.0 / 3.0, 1e-9);
    // 9 executed + 1 quarantined = 10 planned: contained.
    EXPECT_TRUE(score.contained());
}

TEST(Scoring, MisbehaviorVariantScoresContainmentNotDetection)
{
    const std::size_t i = catalogue_index("backend-crash");
    CampaignResult campaign;
    campaign.complete = true;
    PipelineStats &s = campaign.merged;
    s.test_programs = 4;
    s.tests_executed = 0;
    for (int t = 0; t < 4; ++t) {
        s.quarantine.add(Stage::Backend,
                         "test " + std::to_string(t),
                         FaultClass::BackendCrash, "crashed");
    }
    const defects::VariantScore score = defects::score_variant(
        {"backend-crash", {i}}, campaign);
    EXPECT_EQ(score.kind, defects::DefectKind::Misbehavior);
    EXPECT_FALSE(score.detectable);
    EXPECT_FALSE(score.detected);
    EXPECT_EQ(score.quarantined_backend, 4u);
    EXPECT_TRUE(score.contained());

    // An incomplete campaign — or a vanished test — is a containment
    // violation even with the same ledger.
    CampaignResult incomplete = campaign;
    incomplete.complete = false;
    EXPECT_FALSE(defects::score_variant({"backend-crash", {i}},
                                        incomplete)
                     .contained());
    campaign.merged.test_programs = 5;
    EXPECT_FALSE(defects::score_variant({"backend-crash", {i}},
                                        campaign)
                     .contained());
}

// ---------------------------------------------------------------------
// The patched-emulator regression (the paper's validation loop: fix
// the bugs, re-run the lifted tests, expect silence).
// ---------------------------------------------------------------------

TEST(PatchedEmulator, PipelineReportsNoLoFiDifferenceClusters)
{
    PipelineOptions options;
    options.instruction_filter = {
        index_of({0x50}),             // push eax
        index_of({0x01, 0x08}),       // add [eax], ecx
        index_of({0xc9}),             // leave
        index_of({0xcf}),             // iret
        index_of({0x0f, 0xb4, 0x03}), // lfs ecx, [ebx]
        index_of({0x0f, 0xb1, 0x0b}), // cmpxchg [ebx], ecx
        index_of({0x0f, 0x32}),       // rdmsr
        index_of({0x0f, 0x30}),       // wrmsr
        index_of({0x8e, 0xd8}),       // mov ds, ax
        index_of({0xd3, 0xe0}),       // shl eax, cl
    };
    options.max_paths_per_insn = 24;
    options.bugs = BugConfig::none();
    Pipeline pipeline(options);
    const PipelineStats &s = pipeline.run();

    EXPECT_GT(s.test_programs, 0u);
    EXPECT_EQ(s.tests_executed, s.test_programs);
    for (const harness::Cluster &c : s.lofi_clusters.clusters()) {
        EXPECT_EQ(c.root_cause.rfind("timeout-only-", 0), 0u)
            << "patched emulator still differs: "
            << s.lofi_clusters.to_string();
    }
}

} // namespace
} // namespace pokeemu
