/**
 * @file
 * Allocation gate for guest memory and backend runs: with the counting
 * operator new of alloc_counter.h, requires that
 *  - once the process-wide images exist, a second Pipeline plus a
 *    second TestRunner making one run on each backend allocate under
 *    2 MiB in all. Neither a backend's GuestRam nor the Pipeline's
 *    StateSpec may hold a private copy of a 4 MiB image; one such copy
 *    alone breaks the bound;
 *  - on a warmed-up TestRunner with compiled semantics, as the
 *    campaign runs, a repeat run allocates nothing on Lo-Fi and
 *    hardware, and on Hi-Fi one block per interpreter fallback
 *    (ir::run_concrete's temporaries, which walker_alloc_gate allows).
 * Exit status 0 iff both hold.
 */
#include <cstdio>

#include "alloc_counter.h"
#include "harness/runner.h"
#include "pokeemu/pipeline.h"

namespace pokeemu {
namespace {

constexpr std::size_t kBoundBytes = std::size_t{2} << 20;

constexpr harness::Backend kBackends[] = {harness::Backend::HiFi,
                                          harness::Backend::LoFi,
                                          harness::Backend::Hardware};

double
mib(std::size_t bytes)
{
    return static_cast<double>(bytes) / (1 << 20);
}

int
run()
{
    // push eax; hlt: the run writes the stack page besides the code.
    const std::vector<u8> program = {0x50, 0xf4};
    const PipelineOptions options;

    // Warm-up: the first of each builds the baseline and zero images,
    // the decoder and semantics tables.
    const Pipeline first(options);
    harness::TestRunner first_runner;
    harness::BackendRun run;
    for (harness::Backend backend : kBackends)
        first_runner.run_one_into(backend, program, run);

    const test::AllocCount start = test::alloc_count();
    const Pipeline second(options);
    const test::AllocCount built = test::alloc_count();
    harness::TestRunner second_runner;
    for (harness::Backend backend : kBackends)
        second_runner.run_one_into(backend, program, run);
    const test::AllocCount end = test::alloc_count();

    const std::size_t pipeline_bytes = built.bytes - start.bytes;
    const std::size_t runner_bytes = end.bytes - built.bytes;
    const bool ok = pipeline_bytes + runner_bytes < kBoundBytes;
    std::printf("%-44s %5.2f MiB in %ld allocations\n", "second Pipeline",
                mib(pipeline_bytes), built.calls - start.calls);
    std::printf("%-44s %5.2f MiB in %ld allocations\n",
                "second TestRunner and one run per backend",
                mib(runner_bytes), end.calls - built.calls);
    std::printf("%-44s %5.2f MiB (under %.2f)  %s\n", "total",
                mib(pipeline_bytes + runner_bytes), mib(kBoundBytes),
                ok ? "ok" : "FAIL");

    harness::TestRunner::Config config;
    config.hifi_options.compiled = hifi::CompiledExec::On;
    harness::TestRunner warm_runner(config);
    for (harness::Backend backend : kBackends)
        warm_runner.run_one_into(backend, program, run);
    bool repeat_ok = true;
    for (harness::Backend backend : kBackends) {
        const u64 misses = warm_runner.hifi().compiled_misses();
        const long before = test::alloc_count().calls;
        warm_runner.run_one_into(backend, program, run);
        const long calls = test::alloc_count().calls - before;
        // Interpreted Hi-Fi instructions; 0 on the other backends.
        const long allowed =
            static_cast<long>(warm_runner.hifi().compiled_misses() - misses);
        const bool run_ok = calls <= allowed;
        std::printf("repeat run on %-8s (%2llu insns) %17ld allocations "
                    "(at most %ld)  %s\n",
                    harness::backend_name(backend),
                    static_cast<unsigned long long>(run.insns), calls,
                    allowed, run_ok ? "ok" : "FAIL");
        repeat_ok = repeat_ok && run_ok;
    }
    return ok && repeat_ok ? 0 : 1;
}

} // namespace
} // namespace pokeemu

int
main()
{
    return pokeemu::run();
}
