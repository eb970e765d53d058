/**
 * @file
 * Experiment E9 (paper §3.1.2): decision-procedure performance. The
 * paper's claim about STP/Z3 — "their results are precise but produced
 * quickly, with most queries completing in a fraction of a second" —
 * must hold for this repository's from-scratch bit-vector solver too,
 * or the whole exploration strategy collapses. This bench uses
 * google-benchmark on exploration-shaped queries and reports the
 * aggregate latency observed during a real exploration.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace pokeemu;
namespace E = ir::E;

namespace {

/** Segment-limit + page-walk shaped feasibility query. */
void
BM_PathConditionQuery(benchmark::State &state)
{
    for (auto _ : state) {
        solver::Solver solver;
        auto esp = E::var(1, "esp", 32);
        auto limit = E::var(2, "limit", 32);
        auto pte = E::var(3, "pte", 8);
        auto addr = E::sub(esp, E::constant(32, 4));
        std::vector<ir::ExprRef> conds = {
            E::ule(addr, limit),
            E::eq(E::extract(pte, 0, 1), E::bool_const(true)),
            E::ult(E::constant(32, 0x200000), addr),
        };
        benchmark::DoNotOptimize(solver.check(conds));
    }
}
BENCHMARK(BM_PathConditionQuery);

/** Incremental re-query with a growing path condition. */
void
BM_IncrementalQueries(benchmark::State &state)
{
    for (auto _ : state) {
        solver::Solver solver;
        auto x = E::var(1, "x", 32);
        std::vector<ir::ExprRef> conds;
        for (u32 i = 0; i < 24; ++i) {
            conds.push_back(
                E::ne(E::band(x, E::constant(32, 1u << i)),
                      E::constant(32, 0)));
            benchmark::DoNotOptimize(solver.check(conds));
        }
    }
}
BENCHMARK(BM_IncrementalQueries);

/** Flags-heavy query (adder + parity circuits). */
void
BM_FlagsQuery(benchmark::State &state)
{
    for (auto _ : state) {
        solver::Solver solver;
        auto a = E::var(1, "a", 32);
        auto b = E::var(2, "b", 32);
        auto sum = E::add(a, b);
        std::vector<ir::ExprRef> conds = {
            E::eq(sum, E::constant(32, 0)),
            E::ne(a, E::constant(32, 0)),
            E::eq(E::extract(a, 31, 1), E::extract(b, 31, 1)),
        };
        benchmark::DoNotOptimize(solver.check(conds));
    }
}
BENCHMARK(BM_FlagsQuery);

/** 64-bit division circuit (the heaviest op in div semantics). */
void
BM_DivisionQuery(benchmark::State &state)
{
    for (auto _ : state) {
        solver::Solver solver;
        auto num = E::var(1, "num", 64);
        auto den = E::var(2, "den", 32);
        auto q = E::binop(ir::BinOpKind::UDiv, num, E::zext(den, 64));
        std::vector<ir::ExprRef> conds = {
            E::ne(den, E::constant(32, 0)),
            E::ult(E::constant(64, 0xffffffffull), q),
        };
        benchmark::DoNotOptimize(solver.check(conds));
    }
}
BENCHMARK(BM_DivisionQuery);

} // namespace

int
main(int argc, char **argv)
{
    bench::header("E9: decision-procedure latency",
                  "paper §3.1.2 (queries in a fraction of a second)");

    // Aggregate latency during a real exploration.
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);
    std::vector<u8> bytes = {0xcf}; // iret: query-heavy.
    bytes.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    arch::decode(bytes.data(), bytes.size(), insn);
    explore::StateExploreOptions options;
    options.max_paths = 128;

    // Re-run the exploration to harvest solver statistics.
    symexec::VarPool pool;
    hifi::SemanticsOptions sem_options;
    sem_options.descriptor_summary = &summary;
    const ir::Program semantics =
        hifi::build_semantics(insn, sem_options);
    symexec::ExplorerConfig config;
    config.max_paths = options.max_paths;
    config.preconditions = spec.preconditions(pool);
    symexec::PathExplorer explorer(semantics, pool,
                                   spec.initial_fn(pool), config);
    explorer.explore([](const symexec::PathInfo &,
                        symexec::SymbolicMemory &) {});
    const solver::SolverStats &stats = explorer.solver_stats();
    std::printf("iret exploration: %llu queries, %.3fms mean, "
                "%.1fms max, %llu sat / %llu unsat\n\n",
                static_cast<unsigned long long>(stats.queries),
                1e3 * stats.total_seconds /
                    std::max<u64>(1, stats.queries),
                1e3 * stats.max_seconds,
                static_cast<unsigned long long>(stats.sat),
                static_cast<unsigned long long>(stats.unsat));
    const bool shape_ok = stats.max_seconds < 1.0;
    std::printf("shape check (every query under a second): %s\n\n",
                shape_ok ? "PASS" : "FAIL");

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return shape_ok ? 0 : 1;
}
