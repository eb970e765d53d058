/**
 * @file
 * timing_crosscheck: proves the cycle-fidelity model is one model, no
 * matter who consumes it (DESIGN.md §16).
 *
 * Two properties, over every compiled unit:
 *
 *  1. The semgen-emitted cost table matches a fresh derivation from
 *     the unit's IR program — the table compiled into the binary is
 *     exactly what derive_cost() produces today (the FNV staleness
 *     hash also folds these triples, so a drift fails the build's
 *     stale-table check; this tool localizes which unit drifted).
 *  2. Interpreted and compiled execution charge identical cycles for
 *     identical retirements: both dispatch paths resolve the same
 *     (table row, operand form) cost and the same fault surcharge, so
 *     for byte-identical seeded worlds their per-retirement charges
 *     must be equal. Runs each unit from N seeded states through the
 *     IR interpreter and the generated handler and compares the
 *     charge each outcome implies.
 *
 * Any mismatch prints the unit and exits nonzero, failing the
 * timing_crosscheck_all ctest.
 */
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "hifi/compiled.h"
#include "hifi/semantics.h"
#include "support/rng.h"
#include "timing/cost_model.h"

using namespace pokeemu;
using hifi::CompiledUnit;
using hifi::ReplayMemory;

namespace {

constexpr u64 kMaxSteps = 1u << 14;

struct Outcome
{
    bool threw = false;
    ir::RunResult result;
};

Outcome
run_one(const CompiledUnit &unit, hifi::CompiledHandler handler,
        ReplayMemory &memory)
{
    Outcome out;
    try {
        out.result = handler != nullptr
            ? handler(memory, kMaxSteps)
            : ir::run_concrete(unit.program, memory, kMaxSteps);
    } catch (const std::exception &) {
        out.threw = true;
    }
    return out;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--states N] [--seed S] [--quiet]\n"
        "  --states N  seeded initial states per unit (default 16)\n"
        "  --seed S    base seed (default 1)\n"
        "  --quiet     summary line only\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    u64 states = 16;
    u64 seed = 1;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--states" && i + 1 < argc) {
            states = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 0);
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
                     "timing_crosscheck: table has %zu entries, %zu "
                     "cost rows, %zu units built — regenerate\n",
                     table.num_entries, costs.num, units.size());
        return 1;
    }
    if (table.semantics_hash != hifi::compiled_expected_hash()) {
        std::fprintf(stderr,
                     "timing_crosscheck: stale table (hash mismatch) "
                     "— regenerate\n");
        return 1;
    }

    u64 runs = 0;
    u64 cost_mismatches = 0;
    u64 charge_mismatches = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        const CompiledUnit &unit = units[u];
        const char *name = unit.insn.desc->mnemonic;

        // Property 1: emitted cost triple == fresh derivation.
        const timing::UnitCost derived = timing::derive_cost(unit.program);
        if (!(costs.costs[u] == derived)) {
            ++cost_mismatches;
            if (!quiet) {
                std::printf(
                    "COST MISMATCH unit %zu (%s, row %d): emitted "
                    "{%llu,%llu,%llu} derived {%llu,%llu,%llu}\n",
                    u, name, unit.insn.table_index,
                    static_cast<unsigned long long>(costs.costs[u].base),
                    static_cast<unsigned long long>(
                        costs.costs[u].mem_accesses),
                    static_cast<unsigned long long>(
                        costs.costs[u].fault_extra),
                    static_cast<unsigned long long>(derived.base),
                    static_cast<unsigned long long>(
                        derived.mem_accesses),
                    static_cast<unsigned long long>(
                        derived.fault_extra));
            }
        }

        // Property 2: equal per-retirement charges, interpreted vs
        // compiled, from byte-identical seeded worlds. Both paths key
        // the model by (row, operand form), so the only way charges
        // can differ is a halt-code disagreement — surfaced here as a
        // charge mismatch (and by semgen_check as a semantic one).
        const hifi::CompiledEntry &entry = table.entries[u];
        const bool mem_form = entry.shape.has_modrm &&
            (entry.shape.modrm >> 6) != 3;
        const timing::UnitCost &cost = timing::cost_model().cost_for(
            unit.insn.table_index, mem_form);
        for (u64 s = 0; s < states; ++s) {
            const u64 base = mix64(seed ^ mix64(u * 8192 + s));
            const u32 imm = unit.params_ok
                ? static_cast<u32>(mix64(base ^ 1))
                : unit.insn.imm;
            const u32 disp = unit.params_ok
                ? static_cast<u32>(mix64(base ^ 2))
                : unit.insn.disp;

            ReplayMemory ref_mem(base);
            ref_mem.poke(hifi::param_block::kImm, 4, imm);
            ref_mem.poke(hifi::param_block::kDisp, 4, disp);
            const Outcome ref = run_one(unit, nullptr, ref_mem);

            ReplayMemory gen_mem(base);
            gen_mem.poke(hifi::param_block::kImm, 4, imm);
            gen_mem.poke(hifi::param_block::kDisp, 4, disp);
            const Outcome gen = run_one(unit, entry.handler, gen_mem);

            ++runs;
            if (ref.threw || gen.threw) {
                // A thrown run retires nothing and charges nothing on
                // either path; disagreement in throwing itself is
                // semgen_check's department.
                if (ref.threw != gen.threw)
                    ++charge_mismatches;
                continue;
            }
            const u64 ref_charge = cost.charge(
                (ref.result.halt_code & hifi::kHaltException) != 0);
            const u64 gen_charge = cost.charge(
                (gen.result.halt_code & hifi::kHaltException) != 0);
            if (ref_charge == gen_charge)
                continue;
            ++charge_mismatches;
            if (!quiet) {
                std::printf(
                    "CHARGE MISMATCH unit %zu (%s, row %d) state %llu: "
                    "interpreter %llu cycles (halt 0x%x), handler %llu "
                    "cycles (halt 0x%x)\n",
                    u, name, unit.insn.table_index,
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(ref_charge),
                    ref.result.halt_code,
                    static_cast<unsigned long long>(gen_charge),
                    gen.result.halt_code);
            }
        }
    }

    std::printf("timing_crosscheck: %zu units, %llu runs, %llu cost "
                "mismatches, %llu charge mismatches\n",
                units.size(), static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(cost_mismatches),
                static_cast<unsigned long long>(charge_mismatches));
    return (cost_mismatches == 0 && charge_mismatches == 0) ? 0 : 1;
}
