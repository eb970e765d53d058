/**
 * @file
 * IR-optimizer bench: optimize instruction semantics across the table
 * and measure what the optimizer buys, emitting BENCH_iropt.json.
 *
 * Three measurements:
 *  - statement reduction: executable-statement counts before/after
 *    optimization, summed over the workload (the headline % that
 *    EXPERIMENTS.md quotes);
 *  - concrete replay wall-clock: every program is interpreted from
 *    many deterministic pseudo-random initial states, original vs
 *    optimized (the OptMode::On stage-4 speedup, isolated from the
 *    rest of the pipeline);
 *  - translation validation wall-clock: the build-time cost of
 *    proving each (original, optimized) pair with the solver in the
 *    environment the ir_equiv_all ctest gates (tools/equiv_env.h),
 *    plus the failure count.
 *
 * The smoke ctest run gates the optimizer contract: strictly positive
 * statement reduction over the workload, byte-identical replay outputs
 * on every sampled state, and zero validation failures.
 *
 * Scale knobs: POKEEMU_INSNS (workload stride cap; default full
 * table), POKEEMU_STATES (replay states per program).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/optimize.h"
#include "arch/decoder.h"
#include "bench_common.h"
#include "equiv_env.h"
#include "hifi/semantics.h"
#include "ir/eval.h"
#include "testgen/testgen.h"

using namespace pokeemu;
namespace layout = arch::layout;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Deterministic hashed initial state with a write overlay; same seed
 *  => same initial bytes, so overlays compare program outputs. ECX is
 *  pinned small so rep-prefixed programs terminate. */
class HashedMemory final : public ir::ConcreteMemory
{
  public:
    explicit HashedMemory(u64 seed) : seed_(seed) {}

    u64 load(u32 addr, unsigned size) override
    {
        u64 v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<u64>(byte(addr + i)) << (8 * i);
        return v;
    }

    void store(u32 addr, unsigned size, u64 value) override
    {
        for (unsigned i = 0; i < size; ++i)
            written_[addr + i] = static_cast<u8>(value >> (8 * i));
    }

    const std::map<u32, u8> &written() const { return written_; }

  private:
    u8 byte(u32 addr) const
    {
        const auto it = written_.find(addr);
        if (it != written_.end())
            return it->second;
        const u32 ecx = layout::gpr_addr(1);
        if (addr == ecx)
            return mix(addr) & 3;
        if (addr > ecx && addr < ecx + 4)
            return 0;
        return mix(addr);
    }

    u8 mix(u32 addr) const
    {
        u64 x = seed_ ^
            (static_cast<u64>(addr) * 0x9e3779b97f4a7c15ULL);
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return static_cast<u8>(x);
    }

    u64 seed_;
    std::map<u32, u8> written_;
};

struct Unit
{
    int index = 0;
    arch::DecodedInsn insn;
    ir::Program original;
    ir::Program optimized;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    bench::header("bench_iropt",
                  "IR optimization + translation validation (§7 "
                  "equivalence checking, aimed inward)");

    const int table_size = static_cast<int>(arch::insn_table().size());
    const int stride = smoke ? 8 : 1;
    const u64 states =
        bench::env_u64("POKEEMU_STATES", smoke ? 64 : 256);
    const u64 max_insns =
        bench::env_u64("POKEEMU_INSNS", static_cast<u64>(table_size));

    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    // Phase 1: optimize the workload and sum the statement stats.
    std::vector<Unit> units;
    u64 exec_before = 0;
    u64 exec_after = 0;
    double t_optimize = 0;
    for (int i = 0; i < table_size && units.size() < max_insns;
         i += stride) {
        const std::vector<u8> bytes = arch::canonical_encoding(i);
        arch::DecodedInsn insn;
        if (arch::decode(bytes.data(), bytes.size(), insn) !=
            arch::DecodeStatus::Ok) {
            continue;
        }
        hifi::SemanticsOptions sem_options;
        sem_options.descriptor_summary = &summary;
        Unit u;
        u.index = i;
        u.insn = insn;
        u.original = hifi::build_semantics(insn, sem_options);
        const auto t0 = std::chrono::steady_clock::now();
        analysis::OptResult r = analysis::optimize_program(u.original);
        t_optimize += seconds_since(t0);
        exec_before += r.stats.exec_before;
        exec_after += r.stats.exec_after;
        u.optimized = std::move(r.program);
        units.push_back(std::move(u));
    }
    const double reduction_pct = exec_before == 0
        ? 0.0
        : 100.0 *
            (1.0 -
             static_cast<double>(exec_after) /
                 static_cast<double>(exec_before));
    std::printf("workload: %zu programs, %llu -> %llu executable "
                "statements (%.1f%% reduction), optimize %.3fs\n",
                units.size(),
                static_cast<unsigned long long>(exec_before),
                static_cast<unsigned long long>(exec_after),
                reduction_pct, t_optimize);

    // Phase 2: concrete replay, original vs optimized, with a
    // byte-for-byte output cross-check on every state.
    u64 replay_mismatches = 0;
    u64 steps_original = 0;
    u64 steps_optimized = 0;
    double t_replay_off = 0;
    double t_replay_on = 0;
    for (const Unit &u : units) {
        for (u64 seed = 0; seed < states; ++seed) {
            HashedMemory ma(seed);
            auto t0 = std::chrono::steady_clock::now();
            const ir::RunResult ra = ir::run_concrete(u.original, ma);
            t_replay_off += seconds_since(t0);
            steps_original += ra.steps;

            HashedMemory mb(seed);
            t0 = std::chrono::steady_clock::now();
            const ir::RunResult rb =
                ir::run_concrete(u.optimized, mb);
            t_replay_on += seconds_since(t0);
            steps_optimized += rb.steps;

            const bool agree = ra.status == rb.status &&
                (ra.status != ir::RunStatus::Halted ||
                 ra.halt_code == rb.halt_code) &&
                ma.written() == mb.written();
            if (!agree) {
                ++replay_mismatches;
                std::printf("MISMATCH: insn %d seed %llu\n", u.index,
                            static_cast<unsigned long long>(seed));
            }
        }
    }
    const double speedup =
        t_replay_on == 0 ? 0.0 : t_replay_off / t_replay_on;
    std::printf("replay: %llu states/program, %.3fs original vs "
                "%.3fs optimized (%.2fx), steps %llu -> %llu, "
                "%llu mismatches\n",
                static_cast<unsigned long long>(states), t_replay_off,
                t_replay_on, speedup,
                static_cast<unsigned long long>(steps_original),
                static_cast<unsigned long long>(steps_optimized),
                static_cast<unsigned long long>(replay_mismatches));

    // Phase 3: translation validation (the ir_equiv_all cost).
    u64 validated = 0;
    u64 proven = 0;
    u64 validation_failures = 0;
    const auto tv = std::chrono::steady_clock::now();
    for (const Unit &u : units) {
        symexec::VarPool pool;
        const tools::EquivEnv env = tools::equiv_env(u.insn, spec, pool);
        const analysis::EquivResult res =
            analysis::validate_translation(u.original, u.optimized,
                                           pool, env.initial,
                                           env.options);
        ++validated;
        proven += res.equivalent && res.proven;
        validation_failures += !res.equivalent;
    }
    const double t_validation = seconds_since(tv);
    std::printf("validation: %llu programs, %llu proven, %llu "
                "failures, %.3fs (%.1f ms/program)\n",
                static_cast<unsigned long long>(validated),
                static_cast<unsigned long long>(proven),
                static_cast<unsigned long long>(validation_failures),
                t_validation,
                units.empty()
                    ? 0.0
                    : 1000.0 * t_validation /
                        static_cast<double>(units.size()));

    const bool ok = exec_after < exec_before &&
        replay_mismatches == 0 && validation_failures == 0;

    {
        std::FILE *out = std::fopen("BENCH_iropt.json", "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write BENCH_iropt.json\n");
            return 1;
        }
        std::fprintf(out, "{\n  \"bench\": \"iropt\",\n");
        std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
        std::fprintf(out, "  \"programs\": %zu,\n", units.size());
        std::fprintf(out, "  \"exec_before\": %llu,\n",
                     static_cast<unsigned long long>(exec_before));
        std::fprintf(out, "  \"exec_after\": %llu,\n",
                     static_cast<unsigned long long>(exec_after));
        std::fprintf(out, "  \"reduction_pct\": %.2f,\n", reduction_pct);
        std::fprintf(out, "  \"optimize_seconds\": %.6f,\n", t_optimize);
        std::fprintf(out, "  \"replay_states_per_program\": %llu,\n",
                     static_cast<unsigned long long>(states));
        std::fprintf(out, "  \"replay_seconds_original\": %.6f,\n",
                     t_replay_off);
        std::fprintf(out, "  \"replay_seconds_optimized\": %.6f,\n",
                     t_replay_on);
        std::fprintf(out, "  \"replay_speedup\": %.3f,\n", speedup);
        std::fprintf(out, "  \"replay_steps_original\": %llu,\n",
                     static_cast<unsigned long long>(steps_original));
        std::fprintf(out, "  \"replay_steps_optimized\": %llu,\n",
                     static_cast<unsigned long long>(steps_optimized));
        std::fprintf(out, "  \"replay_mismatches\": %llu,\n",
                     static_cast<unsigned long long>(replay_mismatches));
        std::fprintf(out, "  \"validated\": %llu,\n",
                     static_cast<unsigned long long>(validated));
        std::fprintf(out, "  \"proven\": %llu,\n",
                     static_cast<unsigned long long>(proven));
        std::fprintf(out, "  \"validation_failures\": %llu,\n",
                     static_cast<unsigned long long>(validation_failures));
        std::fprintf(out, "  \"validation_seconds\": %.6f,\n",
                     t_validation);
        std::fprintf(out, "  \"ok\": %s\n}\n", ok ? "true" : "false");
        std::fclose(out);
    }
    std::printf("wrote BENCH_iropt.json\n");
    return ok ? 0 : 1;
}
