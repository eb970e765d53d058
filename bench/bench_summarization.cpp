/**
 * @file
 * Experiment E8 (paper §3.3.2): summarizing common computations.
 * Bochs' segment-descriptor cache update had 23 paths; executing it
 * inline inside each of six segment loads would multiply the search
 * space by 23^6 ~ 1.48e8, so the paper pre-explores it once and
 * substitutes a single formula. This bench explores the
 * segment-register-load instructions with and without the summary and
 * compares path counts, completeness and time.
 */
#include <chrono>

#include "bench_common.h"

using namespace pokeemu;

namespace {

struct Side
{
    u64 paths = 0;
    u64 queries = 0;
    u64 complete = 0;
    u64 insns = 0;
    double seconds = 0;
};

Side
run_side(bool use_summary, const symexec::Summary &summary,
         const explore::StateSpec &spec)
{
    // The segment-load instructions: mov sreg and the far loads.
    const std::vector<std::vector<u8>> encodings = {
        {0x8e, 0xd8},       // mov ds, ax
        {0x8e, 0xd0},       // mov ss, ax
        {0x8e, 0xe0},       // mov fs, ax
        {0xc4, 0x03},       // les eax, [ebx]
        {0xc5, 0x03},       // lds eax, [ebx]
        {0x0f, 0xb2, 0x03}, // lss eax, [ebx]
        {0x0f, 0xb4, 0x03}, // lfs eax, [ebx]
        {0x0f, 0xb5, 0x03}, // lgs eax, [ebx]
    };
    Side side;
    for (const auto &enc : encodings) {
        std::vector<u8> buf = enc;
        buf.resize(arch::kMaxInsnLength, 0);
        arch::DecodedInsn insn;
        if (arch::decode(buf.data(), buf.size(), insn) !=
            arch::DecodeStatus::Ok) {
            continue;
        }
        explore::StateExploreOptions options;
        options.max_paths = 512;
        options.use_descriptor_summary = use_summary;
        const auto t0 = std::chrono::steady_clock::now();
        const explore::StateExploreResult r =
            explore_instruction(insn, spec, &summary, options);
        side.seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        side.paths += r.stats.paths;
        side.queries += r.stats.solver_queries;
        side.complete += r.stats.complete ? 1 : 0;
        ++side.insns;
    }
    return side;
}

} // namespace

int
main()
{
    bench::header("E8: descriptor-load summarization ablation",
                  "paper §3.3.2 (23-path cache update, x23^6 avoided)");

    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    std::printf("helper paths folded into the summary: %llu "
                "(complete: %s; paper's Bochs helper had 23)\n\n",
                static_cast<unsigned long long>(summary.paths),
                summary.complete ? "yes" : "no");

    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    const Side with = run_side(true, summary, spec);
    const Side without = run_side(false, summary, spec);

    std::printf("                          summarized     inline\n");
    std::printf("segment-load insns        %-14llu %llu\n",
                static_cast<unsigned long long>(with.insns),
                static_cast<unsigned long long>(without.insns));
    std::printf("paths                     %-14llu %llu\n",
                static_cast<unsigned long long>(with.paths),
                static_cast<unsigned long long>(without.paths));
    std::printf("fully explored            %-14llu %llu\n",
                static_cast<unsigned long long>(with.complete),
                static_cast<unsigned long long>(without.complete));
    std::printf("solver queries            %-14llu %llu\n",
                static_cast<unsigned long long>(with.queries),
                static_cast<unsigned long long>(without.queries));
    std::printf("time                      %-13.2fs %.2fs\n",
                with.seconds, without.seconds);

    const bool shape_ok = with.paths < without.paths &&
                          with.complete == with.insns;
    std::printf("\nshape check (summary shrinks the path space and "
                "keeps loads fully explored): %s\n",
                shape_ok ? "PASS" : "FAIL");
    return shape_ok ? 0 : 1;
}
