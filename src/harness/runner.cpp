#include "harness/runner.h"

#include "testgen/testgen.h"

namespace pokeemu::harness {

namespace {

support::FaultSite
injection_site(Backend backend)
{
    switch (backend) {
      case Backend::HiFi: return support::FaultSite::BackendHiFi;
      case Backend::LoFi: return support::FaultSite::BackendLoFi;
      case Backend::Hardware: return support::FaultSite::BackendHw;
    }
    return support::FaultSite::BackendHw;
}

} // namespace

const char *
backend_name(Backend backend)
{
    switch (backend) {
      case Backend::HiFi: return "hifi";
      case Backend::LoFi: return "lofi";
      case Backend::Hardware: return "hardware";
    }
    return "?";
}

TestRunner::TestRunner() : TestRunner(Config{}) {}

TestRunner::TestRunner(const Config &config)
    : config_(config), hifi_(config.hifi_options),
      lofi_(config.bugs, config.lofi_misbehavior)
{
    hifi_.set_cycle_accounting(config.timing);
    lofi_.set_cycle_accounting(config.timing);
    vmm_.set_cycle_accounting(config.timing);
}

BackendRun
TestRunner::run_one(Backend backend,
                    const std::vector<u8> &test_program)
{
    BackendRun run;
    run_one_into(backend, test_program, run);
    return run;
}

void
TestRunner::run_one_into(Backend backend,
                         const std::vector<u8> &test_program,
                         BackendRun &out)
{
    if (config_.injector) {
        config_.injector->maybe_fail(
            injection_site(backend),
            std::string("runner: ") + backend_name(backend));
    }
    if (config_.injector && backend == Backend::LoFi) {
        // Chaos sites for the Stage::Backend containment path: the
        // injected fault is re-classed so the pipeline quarantines it
        // exactly like a genuinely misbehaving variant backend.
        try {
            config_.injector->maybe_fail(
                support::FaultSite::BackendCrash, "runner: lofi");
        } catch (const support::FaultError &e) {
            throw support::FaultError(
                support::FaultClass::BackendCrash, e.what());
        }
        try {
            config_.injector->maybe_fail(
                support::FaultSite::BackendHang, "runner: lofi");
        } catch (const support::FaultError &e) {
            throw support::FaultError(
                support::FaultClass::BackendHang, e.what());
        }
    }

    // An oversized program would spill out of the test-code region;
    // reject it as a quarantinable per-test fault.
    static_assert(arch::layout::kPhysTestCode +
                      testgen::kMaxTestProgramBytes <=
                  arch::kPhysMemSize);
    if (test_program.size() > testgen::kMaxTestProgramBytes) {
        throw support::FaultError(
            support::FaultClass::Execution,
            "runner: test program (" +
                std::to_string(test_program.size()) +
                " bytes) exceeds the test-code region");
    }
    const arch::RamImage &base = testgen::baseline_ram_template();
    const u32 code_addr = arch::layout::kPhysTestCode;
    const arch::CpuState reset = testgen::make_reset_state();

    switch (backend) {
      case Backend::HiFi: {
        hifi_.reset(reset, base, code_addr, test_program);
        const auto stop = hifi_.run(config_.max_insns);
        out.timed_out = stop == hifi::StopReason::InsnLimit;
        hifi_.snapshot_into(out.snapshot);
        out.insns = hifi_.insn_count();
        break;
      }
      case Backend::LoFi: {
        lofi_.reset(reset, base, code_addr, test_program);
        // Per-run watchdog: bounds the variant backend itself, so a
        // hung lo-fi variant is quarantined per-test instead of
        // stalling the campaign (see Config).
        support::Deadline watchdog = support::Deadline::with(
            config_.watchdog_wall_ms, config_.watchdog_insns);
        const auto stop = lofi_.run(config_.max_insns, &watchdog);
        out.timed_out = stop == backend::StopReason::InsnLimit;
        lofi_.snapshot_into(out.snapshot);
        out.insns = lofi_.insn_count();
        break;
      }
      case Backend::Hardware: {
        vmm_.run_test_into(reset, base, code_addr, test_program,
                           config_.max_insns, guest_run_);
        out.timed_out = guest_run_.trap == hw::TrapKind::Timeout;
        std::swap(out.snapshot, guest_run_.snapshot);
        out.insns = guest_run_.insns_executed;
        break;
      }
    }

    // Shape-validate every backend's snapshot before it reaches the
    // differ: a corrupting variant must surface as a quarantinable
    // per-test fault, not as downstream misbehaviour in comparison.
    if (out.snapshot.ram.size() != arch::kPhysMemSize) {
        throw support::FaultError(
            support::FaultClass::SnapshotCorrupt,
            std::string("runner: ") + backend_name(backend) +
                " snapshot has wrong RAM size");
    }
}

ThreeWayResult
TestRunner::run(const std::vector<u8> &test_program)
{
    ThreeWayResult result;
    run_one_into(Backend::HiFi, test_program, result.hifi);
    run_one_into(Backend::LoFi, test_program, result.lofi);
    run_one_into(Backend::Hardware, test_program, result.hw);
    return result;
}

} // namespace pokeemu::harness
