/**
 * @file
 * semgen_check: per-instruction differential test of every compiled
 * handler against the IR interpreter (the ground truth it was
 * generated from).
 *
 * For each compiled unit, both executions start from byte-identical
 * worlds — a hifi::ReplayMemory seeded per (unit, state) whose
 * deterministic background pattern stands in for a random initial
 * machine state, with random immediate/displacement parameter values
 * poked for generic units — and must agree exactly on RunResult
 * (status, halt code, retired-statement count), the store journal,
 * and thrown-exception outcomes.
 *
 * It also checks each unit's emitted cycle-cost triple
 * (compiled_cost_table(), timing/cost_model.h) against a fresh
 * timing::derive_cost() of the compiled program. The staleness stamp
 * folds fresh derivations, not the emitted triples, so only this check
 * sees a triple semgen emitted wrongly.
 *
 * It then proves each unit's optimization: the unit is rebuilt with
 * the optimizer off, re-optimized (which must print identically to the
 * compiled program), and the (original, optimized) pair is proven
 * equivalent by the translation validator in ir_equiv's environment
 * (equiv_env.h) plus a symbolic param block, so generic units are
 * proven for every immediate and displacement. ir_equiv_all proves the
 * descriptor-summary builds of the canonical rows; this proves the
 * generic-parameter programs — canonical and variant operand forms —
 * that replay actually runs.
 *
 * Any divergence, cost mismatch, counterexample or unproven unit
 * prints the unit and exits nonzero, failing the semgen_crosscheck_all
 * ctest.
 */
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/optimize.h"
#include "equiv_env.h"
#include "hifi/compiled.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "testgen/testgen.h"
#include "timing/cost_model.h"

using namespace pokeemu;
using hifi::CompiledUnit;
using hifi::ReplayMemory;

namespace {

/** One execution's observable behaviour. */
struct Outcome
{
    bool threw = false;
    std::string error;
    ir::RunResult result;
    std::vector<ReplayMemory::StoreRec> journal;

    bool
    operator==(const Outcome &o) const
    {
        if (threw != o.threw)
            return false;
        if (threw)
            return error == o.error;
        return result.status == o.result.status &&
            result.halt_code == o.result.halt_code &&
            result.steps == o.result.steps && journal == o.journal;
    }
};

constexpr u64 kMaxSteps = 1u << 14;

Outcome
run_interpreter(const CompiledUnit &unit, ReplayMemory &memory)
{
    Outcome out;
    try {
        out.result = ir::run_concrete(unit.program, memory, kMaxSteps);
    } catch (const std::exception &e) {
        out.threw = true;
        out.error = e.what();
    }
    out.journal = memory.journal();
    return out;
}

Outcome
run_handler(hifi::CompiledHandler handler, ReplayMemory &memory)
{
    Outcome out;
    try {
        out.result = handler(memory, kMaxSteps);
    } catch (const std::exception &e) {
        out.threw = true;
        out.error = e.what();
    }
    out.journal = memory.journal();
    return out;
}

void
describe(const Outcome &o)
{
    if (o.threw) {
        std::printf("    threw: %s\n", o.error.c_str());
        return;
    }
    std::printf("    status=%d halt_code=0x%x steps=%llu stores=%zu\n",
                static_cast<int>(o.result.status), o.result.halt_code,
                static_cast<unsigned long long>(o.result.steps),
                o.journal.size());
}

/** Prove @p unit's optimization; returns "" or why it is not proven. */
std::string
prove_optimization(const CompiledUnit &unit,
                   const explore::StateSpec &spec)
{
    hifi::SemanticsOptions options =
        hifi::compiled_build_options(unit.params_ok);
    options.opt = analysis::OptMode::Off;
    const ir::Program original = hifi::build_semantics(unit.insn, options);
    const ir::Program optimized =
        analysis::optimize_program(original).program;
    if (ir::to_string(optimized) != ir::to_string(unit.program))
        return "re-optimized program differs from the compiled one";

    symexec::VarPool pool;
    tools::EquivEnv env = tools::equiv_env(unit.insn, spec, pool);
    // Generic programs read immediate/displacement values from the
    // param block, which the spec pins to zero: make them symbolic so
    // the proof covers every parameter value.
    env.initial = [spec_initial = env.initial, &pool](u32 addr) {
        if (addr >= hifi::param_block::kImm &&
            addr < hifi::param_block::kDisp + 4) {
            return pool.get("param_" + std::to_string(addr), 8);
        }
        return spec_initial(addr);
    };
    const analysis::EquivResult res = analysis::validate_translation(
        original, optimized, pool, env.initial, env.options);
    if (!res.equivalent) {
        return "counterexample\n" +
            (res.counterexample ? res.counterexample->to_string(pool)
                                : std::string());
    }
    return res.proven ? "" : "not proven (exploration incomplete)";
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--states N] [--seed S] [--only M] [--quiet]\n"
        "  --states N  random initial states per unit (default 256)\n"
        "  --seed S    base seed (default 1)\n"
        "  --only M    restrict to mnemonic or table index M\n"
        "  --quiet     summary line only\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    u64 states = 256;
    u64 seed = 1;
    std::string only;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--states" && i + 1 < argc) {
            states = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--only" && i + 1 < argc) {
            only = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    const auto &units = hifi::compiled_units();
    const hifi::CompiledTable &table = hifi::compiled_table();
    const hifi::CompiledCostTable &costs = hifi::compiled_cost_table();
    if (table.num_entries != units.size() ||
        costs.num != units.size()) {
        std::fprintf(stderr,
                     "semgen_check: table has %zu entries, %zu cost "
                     "rows, %zu units built — regenerate\n",
                     table.num_entries, costs.num, units.size());
        return 1;
    }
    if (table.semantics_hash != hifi::compiled_expected_hash()) {
        std::fprintf(stderr,
                     "semgen_check: stale table (hash mismatch) — "
                     "regenerate\n");
        return 1;
    }

    // The pipeline's exploration environment (as in ir_equiv).
    symexec::VarPool summary_pool;
    const symexec::Summary summary =
        hifi::summarize_descriptor_load(summary_pool);
    const explore::StateSpec spec(testgen::baseline_cpu_state(), &summary);

    u64 units_checked = 0;
    u64 runs = 0;
    u64 mismatches = 0;
    u64 cost_mismatches = 0;
    u64 unproven = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        const CompiledUnit &unit = units[u];
        const char *name = unit.insn.desc->mnemonic;
        if (!only.empty() && only != name &&
            only != std::to_string(unit.insn.table_index)) {
            continue;
        }
        ++units_checked;
        const timing::UnitCost &emitted = costs.costs[u];
        const timing::UnitCost derived = timing::derive_cost(unit.program);
        if (!(emitted == derived)) {
            ++cost_mismatches;
            std::printf("COST MISMATCH unit %zu (%s, row %d): emitted "
                        "{%llu,%llu,%llu} derived {%llu,%llu,%llu}\n",
                        u, name, unit.insn.table_index,
                        static_cast<unsigned long long>(emitted.base),
                        static_cast<unsigned long long>(
                            emitted.mem_accesses),
                        static_cast<unsigned long long>(
                            emitted.fault_extra),
                        static_cast<unsigned long long>(derived.base),
                        static_cast<unsigned long long>(
                            derived.mem_accesses),
                        static_cast<unsigned long long>(
                            derived.fault_extra));
        }
        const std::string proof = prove_optimization(unit, spec);
        if (!proof.empty()) {
            ++unproven;
            std::printf("UNPROVEN unit %zu (%s%s, row %d): %s\n", u,
                        name, unit.variant ? ", variant" : "",
                        unit.insn.table_index, proof.c_str());
        }
        for (u64 s = 0; s < states; ++s) {
            const u64 base = mix64(seed ^ mix64(u * 8192 + s));
            // Generic units read value parameters from the param
            // block; vary them independently of the background.
            const u32 imm = unit.params_ok
                ? static_cast<u32>(mix64(base ^ 1))
                : unit.insn.imm;
            const u32 disp = unit.params_ok
                ? static_cast<u32>(mix64(base ^ 2))
                : unit.insn.disp;

            ReplayMemory ref_mem(base);
            ref_mem.poke(hifi::param_block::kImm, 4, imm);
            ref_mem.poke(hifi::param_block::kDisp, 4, disp);
            const Outcome ref = run_interpreter(unit, ref_mem);

            ReplayMemory gen_mem(base);
            gen_mem.poke(hifi::param_block::kImm, 4, imm);
            gen_mem.poke(hifi::param_block::kDisp, 4, disp);
            const Outcome gen =
                run_handler(table.entries[u].handler, gen_mem);

            ++runs;
            if (ref == gen)
                continue;
            ++mismatches;
            if (!quiet) {
                std::printf("MISMATCH unit %zu (%s%s, row %d) state "
                            "%llu imm=0x%x disp=0x%x\n  interpreter:\n",
                            u, name, unit.variant ? ", variant" : "",
                            unit.insn.table_index,
                            static_cast<unsigned long long>(s), imm,
                            disp);
                describe(ref);
                std::printf("  handler:\n");
                describe(gen);
            }
        }
    }

    std::printf("semgen_check: %llu units, %llu runs, %llu mismatches, "
                "%llu cost mismatches; %llu/%llu optimizations proven\n",
                static_cast<unsigned long long>(units_checked),
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(cost_mismatches),
                static_cast<unsigned long long>(units_checked - unproven),
                static_cast<unsigned long long>(units_checked));
    if (units_checked == 0) {
        std::fprintf(stderr, "semgen_check: no unit matched --only\n");
        return 1;
    }
    const bool ok =
        mismatches == 0 && cost_mismatches == 0 && unproven == 0;
    return ok ? 0 : 1;
}
