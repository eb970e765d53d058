/**
 * @file
 * Experiment E15 (cycle-fidelity model, DESIGN.md §16): what does
 * cycle accounting cost on the Hi-Fi replay hot path? Emits
 * BENCH_cycles.json.
 *
 * The cost model is a static per-(row, operand form) table lookup
 * plus an add per retirement, so enabling it must be nearly free —
 * the gate holds the measured overhead at or under 5% for both
 * dispatch modes (interpreted and compiled), measured as the ratio of
 * best-of-N wall times over the same generated test set (each test's
 * best of N, summed over the set). Two
 * correctness properties ride along: with timing on, interpreted and
 * compiled dispatch must report the same nonzero cycle total (the
 * model is dispatch-invariant), and with timing off every snapshot
 * must carry zero cycles.
 *
 * Scale knobs: POKEEMU_PATHS (test-set size), POKEEMU_REPS
 * (repetitions per configuration; best-of is reported).
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "harness/runner.h"
#include "hifi/compiled.h"

using namespace pokeemu;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
index_of(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    if (arch::decode(buf.data(), buf.size(), insn) !=
        arch::DecodeStatus::Ok) {
        return -1;
    }
    return insn.table_index;
}

struct Measurement
{
    double best_seconds = 0;
    u64 cycles = 0; ///< Summed over all runs of one repetition.
};

double
overhead(const Measurement &off, const Measurement &on)
{
    if (off.best_seconds <= 0)
        return 0.0;
    return std::max(0.0, on.best_seconds / off.best_seconds - 1.0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    bench::header("E15: cycle-accounting overhead",
                  "DESIGN.md §16 (timing-fidelity observable)");

    // The generated test set: the standard small-workload filter.
    PipelineOptions options;
    options.instruction_filter = {
        index_of({0x50}),       // push eax
        index_of({0xc9}),       // leave
        index_of({0x74, 0x00}), // jz
        index_of({0xd3, 0xe0}), // shl eax, cl
        index_of({0x01, 0x08}), // add [eax], ecx
    };
    options.max_paths_per_insn =
        bench::env_u64("POKEEMU_PATHS", smoke ? 8 : 24);
    Pipeline pipeline(options);
    pipeline.explore_and_generate();
    std::vector<testgen::TestProgram> programs;
    for (const GeneratedTest &test : pipeline.tests())
        programs.push_back(test.program);
    const u64 reps = bench::env_u64("POKEEMU_REPS", smoke ? 5 : 9);

    // Four Hi-Fi configurations: {interpreted, compiled} x {off, on},
    // plus the Lo-Fi (DirectCpu) pair for the report.
    struct Config
    {
        const char *name;
        hifi::CompiledExec compiled;
        bool timing;
        harness::Backend backend;
    };
    const Config configs[] = {
        {"interp_off", hifi::CompiledExec::Off, false,
         harness::Backend::HiFi},
        {"interp_on", hifi::CompiledExec::Off, true,
         harness::Backend::HiFi},
        {"compiled_off", hifi::CompiledExec::On, false,
         harness::Backend::HiFi},
        {"compiled_on", hifi::CompiledExec::On, true,
         harness::Backend::HiFi},
        {"lofi_off", hifi::CompiledExec::Off, false,
         harness::Backend::LoFi},
        {"lofi_on", hifi::CompiledExec::Off, true,
         harness::Backend::LoFi},
    };
    std::vector<std::unique_ptr<harness::TestRunner>> runners;
    for (const Config &config : configs) {
        harness::TestRunner::Config cfg;
        cfg.hifi_options.compiled = config.compiled;
        cfg.timing = config.timing;
        runners.push_back(std::make_unique<harness::TestRunner>(cfg));
    }
    // Best-of-N wall times per configuration, taken test by test and
    // summed over the test set. The six configurations take turns test
    // by test: a run takes well under a millisecond, so a burst of
    // load on the host lands on every configuration alike, and a
    // test's best time comes from a repetition the burst missed.
    Measurement results[6];
    std::vector<double> best(programs.size() * 6, 0.0);
    harness::BackendRun run;
    for (u64 r = 0; r < reps; ++r) {
        for (std::size_t p = 0; p < programs.size(); ++p) {
            for (int c = 0; c < 6; ++c) {
                const auto t0 = std::chrono::steady_clock::now();
                runners[c]->run_one_into(configs[c].backend,
                                         programs[p].code, run);
                const double t = seconds_since(t0);
                double &b = best[p * 6 + c];
                if (r == 0 || t < b)
                    b = t;
                if (r == 0)
                    results[c].cycles += run.snapshot.cycles;
            }
        }
    }
    for (std::size_t p = 0; p < programs.size(); ++p) {
        for (int c = 0; c < 6; ++c)
            results[c].best_seconds += best[p * 6 + c];
    }

    const double interp_overhead = overhead(results[0], results[1]);
    const double compiled_overhead = overhead(results[2], results[3]);
    const double lofi_overhead = overhead(results[4], results[5]);
    constexpr double kOverheadCap = 0.05;

    // Correctness ride-alongs.
    const bool off_charges_nothing =
        results[0].cycles == 0 && results[2].cycles == 0 &&
        results[4].cycles == 0;
    const bool dispatch_invariant =
        results[1].cycles > 0 && results[1].cycles == results[3].cycles;

    std::printf("test set: %zu programs, best of %llu reps\n",
                programs.size(),
                static_cast<unsigned long long>(reps));
    for (int c = 0; c < 6; ++c) {
        std::printf("  %-12s %.4fs  %llu cycles\n", configs[c].name,
                    results[c].best_seconds,
                    static_cast<unsigned long long>(results[c].cycles));
    }
    std::printf(
        "overhead: interpreted %.2f%%, compiled %.2f%%, lofi %.2f%% "
        "(cap %.0f%%)\n",
        interp_overhead * 100, compiled_overhead * 100,
        lofi_overhead * 100, kOverheadCap * 100);
    std::printf("timing-off charges nothing: %s\n",
                off_charges_nothing ? "PASS" : "FAIL");
    std::printf("dispatch-invariant totals: %s\n",
                dispatch_invariant ? "PASS" : "FAIL");

    const bool ok = interp_overhead <= kOverheadCap &&
        compiled_overhead <= kOverheadCap && off_charges_nothing &&
        dispatch_invariant;

    {
        std::FILE *out = std::fopen("BENCH_cycles.json", "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write BENCH_cycles.json\n");
            return 1;
        }
        std::fprintf(out, "{\n  \"bench\": \"cycles\",\n");
        std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
        std::fprintf(out, "  \"tests\": %zu,\n", programs.size());
        std::fprintf(out, "  \"reps\": %llu,\n",
                     static_cast<unsigned long long>(reps));
        for (int c = 0; c < 6; ++c) {
            std::fprintf(out, "  \"seconds_%s\": %.6f,\n",
                         configs[c].name, results[c].best_seconds);
        }
        std::fprintf(out, "  \"cycles_total\": %llu,\n",
                     static_cast<unsigned long long>(results[1].cycles));
        std::fprintf(out, "  \"overhead_interpreted\": %.4f,\n",
                     interp_overhead);
        std::fprintf(out, "  \"overhead_compiled\": %.4f,\n",
                     compiled_overhead);
        std::fprintf(out, "  \"overhead_lofi\": %.4f,\n",
                     lofi_overhead);
        std::fprintf(out, "  \"overhead_cap\": %.2f,\n", kOverheadCap);
        std::fprintf(out, "  \"off_charges_nothing\": %s,\n",
                     off_charges_nothing ? "true" : "false");
        std::fprintf(out, "  \"dispatch_invariant\": %s,\n",
                     dispatch_invariant ? "true" : "false");
        std::fprintf(out, "  \"ok\": %s\n}\n", ok ? "true" : "false");
        std::fclose(out);
    }
    std::printf("wrote BENCH_cycles.json\n");
    return ok ? 0 : 1;
}
