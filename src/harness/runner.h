/**
 * @file
 * Test-program execution across the three backends (paper §5,
 * Figure 1(4)): each test boots from the reset state with the test
 * image installed, runs until hlt/exception/timeout, and yields a
 * snapshot per backend. Every backend resets onto the one shared
 * baseline image (testgen::baseline_ram_template) with the test
 * program installed, so back to back a reset copies back only the
 * pages the previous test wrote (arch/guest_ram.h).
 */
#ifndef POKEEMU_HARNESS_RUNNER_H
#define POKEEMU_HARNESS_RUNNER_H

#include "hifi/hifi_emulator.h"
#include "hw/vmm.h"
#include "lofi/lofi_emulator.h"
#include "support/fault.h"
#include "testgen/baseline.h"

namespace pokeemu::harness {

/** The systems under comparison. */
enum class Backend : u8 { HiFi, LoFi, Hardware };

const char *backend_name(Backend backend);

/** One backend's view of one test. */
struct BackendRun
{
    arch::Snapshot snapshot;
    bool timed_out = false;
    u64 insns = 0;
};

/** All three backends' views of one test. */
struct ThreeWayResult
{
    BackendRun hifi;
    BackendRun lofi;
    BackendRun hw;
};

/** See file comment. */
class TestRunner
{
  public:
    struct Config
    {
        lofi::BugConfig bugs{};
        hifi::SemanticsOptions hifi_options{};
        u64 max_insns = 1u << 14;
        /** Chaos hook: one occurrence per backend run (not owned). */
        support::FaultInjector *injector = nullptr;
        /** Misbehaviour class of the Lo-Fi variant under test. */
        lofi::Misbehavior lofi_misbehavior = lofi::Misbehavior::None;
        /**
         * Per-run watchdog around the Lo-Fi backend: instruction
         * budget (0 = unlimited) and a wall-clock cap in ms (0 =
         * unlimited). The instruction budget is deterministic — a
         * hang trips at the same point on every shard layout — while
         * the wall cap is a machine-dependent safety net, so only the
         * budget should be armed where byte-identical reports matter.
         */
        u64 watchdog_insns = 0;
        u64 watchdog_wall_ms = 0;
        /**
         * Enable cycle accounting (timing/cost_model.h) on all three
         * backends; per-run totals ride along in each BackendRun
         * snapshot. Off by default: with it off every snapshot carries
         * cycles == 0 and reports are byte-identical to a build
         * without the timing subsystem.
         */
        bool timing = false;
    };

    TestRunner(); ///< Default configuration (all Lo-Fi bugs seeded).
    explicit TestRunner(const Config &config);

    /** Run @p test_program (bytes for kPhysTestCode) everywhere. */
    ThreeWayResult run(const std::vector<u8> &test_program);

    /** Run on a single backend (benches time these separately). */
    BackendRun run_one(Backend backend,
                       const std::vector<u8> &test_program);

    /**
     * Like run_one, but snapshots into @p out's reusable buffers. The
     * snapshot shares the baseline image and copies only the pages
     * the run wrote.
     *
     * Throws FaultError(Execution) for a test program too large for
     * the test-code region (quarantinable per-test fault rather than
     * an image overrun).
     */
    void run_one_into(Backend backend,
                      const std::vector<u8> &test_program,
                      BackendRun &out);

    const hw::Vmm &vmm() const { return vmm_; }
    const lofi::LoFiEmulator &lofi() const { return lofi_; }
    const hifi::HiFiEmulator &hifi() const { return hifi_; }

  private:
    Config config_;
    hifi::HiFiEmulator hifi_; ///< Reused: keeps its semantics cache.
    lofi::LoFiEmulator lofi_;
    hw::Vmm vmm_;
    hw::GuestRun guest_run_; ///< Reusable hardware-run buffer.
};

} // namespace pokeemu::harness

#endif // POKEEMU_HARNESS_RUNNER_H
