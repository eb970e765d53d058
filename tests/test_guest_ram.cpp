/**
 * @file
 * Page-wise guest memory (arch/guest_ram.h): resets, snapshots and
 * diffs that touch only the written pages give the same results as
 * whole images.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "arch/guest_ram.h"
#include "arch/snapshot.h"
#include "harness/runner.h"
#include "pokeemu/pipeline.h"
#include "support/rng.h"
#include "testgen/baseline.h"

namespace pokeemu {
namespace {

using harness::Backend;
using harness::BackendRun;
using harness::TestRunner;

constexpr Backend kBackends[] = {Backend::HiFi, Backend::LoFi,
                                 Backend::Hardware};

/** nightly_regression's generated set: the first 40 rows at 16 paths
 *  each (166 tests). */
const std::vector<GeneratedTest> &
test_set()
{
    static const std::vector<GeneratedTest> tests = [] {
        PipelineOptions options;
        options.max_instructions = 40;
        options.max_paths_per_insn = 16;
        for (std::size_t i = 0; i < arch::insn_table().size(); ++i)
            options.instruction_filter.push_back(static_cast<int>(i));
        Pipeline pipeline(options);
        pipeline.explore_and_generate();
        return pipeline.tests();
    }();
    return tests;
}

/** The production Hi-Fi configuration, with cycle accounting on so
 *  snapshots carry nonzero cycle totals. */
TestRunner::Config
timed_config()
{
    TestRunner::Config config;
    config.hifi_options.compiled = hifi::CompiledExec::On;
    config.timing = true;
    return config;
}

/** @p snap with its memory on a base image of its own, so a diff
 *  takes the whole-image path. */
arch::Snapshot
materialized(const arch::Snapshot &snap)
{
    arch::Snapshot out = snap;
    out.ram = arch::RamView(arch::make_ram_image(snap.ram.to_bytes()));
    return out;
}

/** The kPageSize bytes of page @p page as @p view holds them. */
const u8 *
page_bytes(const arch::RamView &view, u32 page)
{
    const auto &pages = view.pages();
    const auto it = std::lower_bound(pages.begin(), pages.end(), page);
    if (it != pages.end() && *it == page)
        return view.page_data(it - pages.begin());
    return view.base()->data() + (std::size_t{page} << arch::kPageShift);
}

/** Byte-for-byte image equality, one page at a time. */
bool
same_image(const arch::RamView &x, const arch::RamView &y)
{
    if (x.size() != arch::kPhysMemSize || y.size() != arch::kPhysMemSize)
        return false;
    for (u32 page = 0; page < arch::kNumPages; ++page) {
        if (std::memcmp(page_bytes(x, page), page_bytes(y, page),
                        arch::kPageSize) != 0)
            return false;
    }
    return true;
}

void
expect_same_diff(const arch::SnapshotDiff &x, const arch::SnapshotDiff &y)
{
    EXPECT_EQ(x.to_string(), y.to_string());
    EXPECT_EQ(x.mem, y.mem);
    EXPECT_EQ(x.mem_total, y.mem_total);
}

TEST(GuestRam, BackToBackRunsMatchAFreshRunnerPerTest)
{
    ASSERT_FALSE(test_set().empty());
    TestRunner shared(timed_config());
    BackendRun run;
    u64 cycles = 0;
    for (const GeneratedTest &test : test_set()) {
        TestRunner fresh(timed_config());
        for (Backend backend : kBackends) {
            SCOPED_TRACE(test.id);
            SCOPED_TRACE(harness::backend_name(backend));
            shared.run_one_into(backend, test.program.code, run);
            const BackendRun expected =
                fresh.run_one(backend, test.program.code);
            EXPECT_EQ(run.snapshot.cpu, expected.snapshot.cpu);
            EXPECT_EQ(run.snapshot.cycles, expected.snapshot.cycles);
            EXPECT_EQ(run.insns, expected.insns);
            EXPECT_TRUE(same_image(run.snapshot.ram,
                                   expected.snapshot.ram));
            cycles += run.snapshot.cycles;
        }
    }
    EXPECT_GT(cycles, 0u);
}

TEST(GuestRam, SharedBaseDiffEqualsWholeImageDiff)
{
    TestRunner runner;
    u64 mem_diffs = 0;
    for (const GeneratedTest &test : test_set()) {
        SCOPED_TRACE(test.id);
        const harness::ThreeWayResult r = runner.run(test.program.code);
        const arch::Snapshot &hw = r.hw.snapshot;
        const arch::Snapshot hw_whole = materialized(hw);
        for (const BackendRun *side : {&r.lofi, &r.hifi}) {
            const arch::Snapshot &a = side->snapshot;
            ASSERT_EQ(a.ram.base(), hw.ram.base());
            const arch::SnapshotDiff paged = arch::diff_snapshots(a, hw);
            expect_same_diff(paged, arch::diff_snapshots(materialized(a),
                                                         hw_whole));
            mem_diffs += paged.mem_total > 0;
        }
    }
    // The set reaches the memory comparison, not only CPU fields.
    EXPECT_GT(mem_diffs, 0u);
}

TEST(GuestRam, SharedBaseDiffKeepsOrderAndCap)
{
    const arch::RamImage &base = testgen::baseline_ram_template();
    arch::GuestRam x, y;
    x.reset(base);
    y.reset(base);
    const auto flip = [&](arch::GuestRam &ram, u32 addr) {
        ram.write8(addr, static_cast<u8>(~(*base)[addr]));
    };
    // Written in descending page order; the diff must still ascend.
    for (u32 i = 0; i < 10; ++i) // Last page, x only.
        flip(x, arch::kPhysMemSize - arch::kPageSize + 3 * i);
    for (u32 i = 0; i < 40; ++i) { // Both sides, 20 bytes differ.
        const u32 addr = 0x200000 + 7 * i;
        if (i % 2 == 0)
            flip(x, addr);
        else
            x.write8(addr, (*base)[addr]); // Written, unchanged.
        y.write8(addr, (*base)[addr]);
    }
    for (u32 i = 0; i < 50; ++i) // Page 0x100, y only.
        flip(y, 0x100000 + 5 * i);

    arch::Snapshot a, b;
    x.snapshot_into(a.ram);
    y.snapshot_into(b.ram);
    EXPECT_EQ(a.ram.pages().size(), 2u);
    EXPECT_EQ(b.ram.pages().size(), 2u);

    const arch::SnapshotDiff paged = arch::diff_snapshots(a, b);
    EXPECT_EQ(paged.mem_total, 80u);
    ASSERT_EQ(paged.mem.size(), arch::SnapshotDiff::kMaxMemDiffs);
    EXPECT_TRUE(std::is_sorted(paged.mem.begin(), paged.mem.end()));
    EXPECT_EQ(paged.mem.front(), 0x100000u);
    EXPECT_EQ(paged.mem[50], 0x200000u);
    expect_same_diff(paged,
                     arch::diff_snapshots(materialized(a), materialized(b)));
}

TEST(GuestRam, ResetOntoAnotherImageAndBackRestoresTheTemplate)
{
    const arch::RamImage &tpl = testgen::baseline_ram_template();
    const std::vector<u8> code = {0x90, 0x90, 0xf4};
    arch::GuestRam ram;
    ram.reset(tpl, arch::layout::kPhysTestCode, code);
    ram.write8(0x1234, 0x55);

    ram.reset(arch::make_ram_image(std::vector<u8>(arch::kPhysMemSize,
                                                   0xcc)));
    EXPECT_EQ(ram.read8(0x1234), 0xcc);
    ram.write8(0x5000, 0x11);

    ram.reset(tpl);
    arch::RamView view;
    ram.snapshot_into(view);
    EXPECT_TRUE(view.pages().empty());
    EXPECT_TRUE(view.to_bytes() == *tpl);
    for (u32 addr = 0; addr < arch::kPhysMemSize; ++addr) {
        if (ram.read8(addr) != (*tpl)[addr]) {
            ADD_FAILURE() << "byte " << std::hex << addr;
            break;
        }
    }
}

// Random writes, reads (read8 and read32), resets and snapshots against
// a plain 4 MiB vector that each reset fills from an untouched copy of
// the base, so a write that reached a shared base shows at the next
// read of it.
TEST(GuestRam, MatchesAWholeImageModel)
{
    Rng rng(25);
    std::vector<u8> copies[2];
    arch::RamImage bases[2];
    for (int i = 0; i < 2; ++i) {
        copies[i].resize(arch::kPhysMemSize);
        for (u8 &byte : copies[i])
            byte = static_cast<u8>(rng.next());
        bases[i] = arch::make_ram_image(copies[i]);
    }

    arch::GuestRam ram;
    std::vector<u8> model(arch::kPhysMemSize, 0);
    const auto at = [&](u32 addr) -> u8 & {
        return model[addr & (arch::kPhysMemSize - 1)];
    };
    const auto model32 = [&](u32 addr) {
        return u32{at(addr)} | u32{at(addr + 1)} << 8 |
               u32{at(addr + 2)} << 16 | u32{at(addr + 3)} << 24;
    };
    // Most accesses land on a few hot pages, so pages are written again
    // after a reset; the rest anywhere, some past the end (they wrap).
    const auto address = [&]() -> u32 {
        const u32 offset = static_cast<u32>(rng.below(arch::kPageSize));
        if (rng.below(4) != 0)
            return static_cast<u32>(rng.below(6)) * 0x15000 + offset;
        return static_cast<u32>(rng.below(u64{2} * arch::kPhysMemSize));
    };
    std::size_t on = 0;
    arch::RamView view;
    u64 reads = 0, resets = 0, snapshots = 0;
    for (int step = 0; step < 20000; ++step) {
        const u64 op = rng.below(100);
        if (op < 55) {
            const u32 addr = address();
            const u8 value = static_cast<u8>(rng.next());
            ram.write8(addr, value);
            at(addr) = value;
        } else if (op < 97) {
            u32 addr = address();
            if (rng.flip()) {
                ASSERT_EQ(ram.read8(addr), at(addr))
                    << "step " << step << " addr " << std::hex << addr;
            } else {
                // Some straddle a page end.
                if (rng.flip())
                    addr = (addr | (arch::kPageSize - 1)) -
                           static_cast<u32>(rng.below(3));
                ASSERT_EQ(ram.read32(addr), model32(addr))
                    << "step " << step << " addr " << std::hex << addr;
            }
            ++reads;
        } else if (op < 99) {
            // The same base, the other one, and back.
            if (rng.flip())
                on ^= 1;
            std::vector<u8> code(rng.below(40));
            for (u8 &byte : code)
                byte = static_cast<u8>(rng.next());
            const u32 code_addr = address();
            ram.reset(bases[on], code_addr, code);
            model = copies[on];
            for (std::size_t i = 0; i < code.size(); ++i)
                at(code_addr + static_cast<u32>(i)) = code[i];
            ++resets;
        } else {
            ram.snapshot_into(view);
            ASSERT_TRUE(std::is_sorted(view.pages().begin(),
                                       view.pages().end()));
            ASSERT_TRUE(view.to_bytes() == model) << "step " << step;
            ++snapshots;
        }
    }
    EXPECT_GT(reads, 1000u);
    EXPECT_GT(resets, 100u);
    EXPECT_GT(snapshots, 20u);
    // A read32 that wraps at the end of memory.
    EXPECT_EQ(ram.read32(arch::kPhysMemSize - 2),
              model32(arch::kPhysMemSize - 2));
    for (int i = 0; i < 2; ++i)
        EXPECT_TRUE(*bases[i] == copies[i]) << "base " << i;
    // The all-zero image behind a fresh GuestRam is shared too.
    arch::GuestRam fresh;
    fresh.snapshot_into(view);
    EXPECT_TRUE(view.to_bytes() == std::vector<u8>(arch::kPhysMemSize, 0));
}

// A counter gate on the mechanism: a change that marks pages written
// wholesale fails here deterministically, whatever the host's timing.
TEST(GuestRam, TestsWriteAtMostEightPages)
{
    TestRunner runner;
    BackendRun run;
    std::size_t most = 0;
    for (const GeneratedTest &test : test_set()) {
        for (Backend backend : kBackends) {
            runner.run_one_into(backend, test.program.code, run);
            const std::size_t pages = run.snapshot.ram.pages().size();
            EXPECT_LE(pages, 8u) << "test " << test.id << " on "
                                 << harness::backend_name(backend);
            most = std::max(most, pages);
        }
    }
    EXPECT_GE(most, 1u); // The test code page, at least.
}

} // namespace
} // namespace pokeemu
