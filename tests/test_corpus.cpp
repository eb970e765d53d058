/** @file Tests for the persistent test corpus (nightly regression). */
#include <gtest/gtest.h>

#include <sstream>

#include "pokeemu/corpus.h"

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

Pipeline &
small_pipeline()
{
    static Pipeline *instance = [] {
        PipelineOptions options;
        options.instruction_filter = {
            index_of({0x50}),             // push eax
            index_of({0xc9}),             // leave
            index_of({0x0f, 0x32}),       // rdmsr
        };
        options.max_paths_per_insn = 16;
        auto *p = new Pipeline(options);
        p->explore_and_generate();
        return p;
    }();
    return *instance;
}

TEST(Corpus, SaveLoadRoundTrip)
{
    const auto &tests = small_pipeline().tests();
    ASSERT_FALSE(tests.empty());
    std::stringstream buffer;
    save_corpus(buffer, tests);
    const auto loaded = load_corpus(buffer);
    ASSERT_EQ(loaded.size(), tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i) {
        EXPECT_EQ(loaded[i].id, tests[i].id);
        EXPECT_EQ(loaded[i].code, tests[i].program.code);
        EXPECT_EQ(loaded[i].test_insn_offset,
                  tests[i].program.test_insn_offset);
        EXPECT_EQ(loaded[i].mnemonic, tests[i].insn.desc->mnemonic);
    }
}

TEST(Corpus, MalformedInputRejected)
{
    std::stringstream empty("not-a-corpus\n");
    EXPECT_THROW(load_corpus(empty), std::logic_error);

    std::stringstream truncated("pokeemu-corpus-v1\n3\n1 0 push ff\n");
    EXPECT_THROW(load_corpus(truncated), std::logic_error);

    std::stringstream bad_hex("pokeemu-corpus-v1\n1\n1 0 push zz\n");
    EXPECT_THROW(load_corpus(bad_hex), std::logic_error);

    std::stringstream no_count("pokeemu-corpus-v1\n");
    EXPECT_THROW(load_corpus(no_count), std::logic_error);

    std::stringstream odd_hex("pokeemu-corpus-v1\n1\n1 0 push fff\n");
    EXPECT_THROW(load_corpus(odd_hex), std::logic_error);

    // The test instruction offset lies beyond the 2-byte program.
    std::stringstream bad_offset("pokeemu-corpus-v1\n1\n7 4000 push 50f4\n");
    EXPECT_THROW(load_corpus(bad_offset), std::logic_error);
}

TEST(Corpus, MalformedInputIsADocumentedErrorNotAPanic)
{
    // A corrupt corpus file is a caller-input problem, not an internal
    // invariant failure: the message must identify the corpus loader,
    // not claim a pokeemu panic.
    std::stringstream bad("pokeemu-corpus-v1\n1\n1 0 push zz\n");
    try {
        load_corpus(bad);
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("corpus:", 0), 0u) << what;
        EXPECT_EQ(what.find("panic"), std::string::npos) << what;
    }
}

TEST(Corpus, ReplayFindsSeededBugsAndPassesWhenFixed)
{
    const auto &tests = small_pipeline().tests();
    std::stringstream buffer;
    save_corpus(buffer, tests);
    const auto loaded = load_corpus(buffer);

    const ExecutionTotals buggy =
        replay_corpus(loaded, lofi::BugConfig{});
    EXPECT_EQ(buggy.tests_executed, loaded.size());
    EXPECT_GT(buggy.lofi_diffs, 0u);

    const ExecutionTotals fixed =
        replay_corpus(loaded, lofi::BugConfig::none());
    EXPECT_EQ(fixed.lofi_diffs, 0u);
    EXPECT_EQ(fixed.timeouts, 0u);
}

TEST(Corpus, ReplayRefusesAnUndecodableTestInstruction)
{
    // Loads fine (the offset is in range), but 0f 0b is ud2: there is
    // no instruction to filter or cluster by, so replay must refuse
    // the test rather than count its differences unfiltered.
    std::stringstream buffer("pokeemu-corpus-v1\n1\n3 1 ud2 900f0bf4\n");
    const auto loaded = load_corpus(buffer);
    try {
        replay_corpus(loaded, lofi::BugConfig{});
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("corpus:", 0), 0u) << what;
    }
}

TEST(Corpus, LongRepIsAHiFiTimeoutNotAPanic)
{
    // mov edi, 0x300000; mov ecx, 0x80000; rep stosb; hlt. Hardware
    // and Lo-Fi retire the rep as one instruction; Hi-Fi's semantics
    // run out of their statement budget inside it.
    const std::vector<u8> code = {0xbf, 0x00, 0x00, 0x30, 0x00,
                                  0xb9, 0x00, 0x00, 0x08, 0x00,
                                  0xf3, 0xaa, 0xf4};
    const u32 rep_offset = 10;
    const std::optional<arch::DecodedInsn> insn =
        decode_test_insn(code, rep_offset);
    ASSERT_TRUE(insn.has_value());

    harness::TestRunner::Config cfg;
    cfg.bugs = lofi::BugConfig::none();
    harness::TestRunner runner(cfg);
    const harness::ThreeWayResult run = runner.run(code);
    EXPECT_TRUE(run.hifi.timed_out);
    EXPECT_FALSE(run.lofi.timed_out);
    EXPECT_FALSE(run.hw.timed_out);
    EXPECT_EQ(run.lofi.insns, run.hw.insns);

    ExecutionTotals totals;
    totals.add_test(7, *insn, run.hifi, run.lofi, run.hw, cfg.timing);
    EXPECT_EQ(totals.hifi_timeouts, 1u);
    EXPECT_EQ(totals.timeouts, 0u);
    EXPECT_EQ(totals.lofi_diffs, 0u);
    ASSERT_EQ(totals.hifi_clusters.clusters().size(), 1u);
    EXPECT_EQ(totals.hifi_clusters.clusters()[0].root_cause,
              "timeout-only-hifi");

    const ExecutionTotals replayed = replay_corpus(
        {CorpusTest{7, code, rep_offset, "rep-stosb"}},
        lofi::BugConfig::none());
    EXPECT_EQ(replayed.tests_executed, 1u);
    EXPECT_EQ(replayed.hifi_timeouts, 1u);
}

TEST(Corpus, SingleBugConfigsAreDistinguishable)
{
    // Replay with only one bug enabled at a time: each configuration
    // must produce a subset of the all-bugs differences, and the
    // per-bug counts must sum to at least the all-bugs count (bug
    // triggers are mostly disjoint per instruction class).
    const auto &tests = small_pipeline().tests();
    std::stringstream buffer;
    save_corpus(buffer, tests);
    const auto loaded = load_corpus(buffer);

    lofi::BugConfig only_seg = lofi::BugConfig::none();
    only_seg.no_segment_checks = true;
    lofi::BugConfig only_leave = lofi::BugConfig::none();
    only_leave.leave_nonatomic = true;
    lofi::BugConfig only_rdmsr = lofi::BugConfig::none();
    only_rdmsr.rdmsr_no_gp = true;

    const u64 seg = replay_corpus(loaded, only_seg).lofi_diffs;
    const u64 leave = replay_corpus(loaded, only_leave).lofi_diffs;
    const u64 rdmsr = replay_corpus(loaded, only_rdmsr).lofi_diffs;
    const u64 all =
        replay_corpus(loaded, lofi::BugConfig{}).lofi_diffs;

    EXPECT_GT(seg, 0u);   // push/leave tests cross segment checks.
    EXPECT_GT(leave, 0u); // leave atomicity.
    EXPECT_GT(rdmsr, 0u); // rdmsr #GP.
    EXPECT_GE(seg + leave + rdmsr, all);
}

} // namespace
} // namespace pokeemu
