/**
 * @file
 * Cycle-cost model for the VX86 semantics: the timing-fidelity
 * observable (ROADMAP "new observable"; pose64 post-mortem,
 * SNIPPETS.md snippet 1).
 *
 * The paper compares only *architectural* state, which is blind to an
 * emulator whose results are right while its cycle accounting is
 * systematically wrong. This module attaches a deterministic cycle
 * cost to every instruction so all three backends (Hi-Fi interpreter,
 * Hi-Fi compiled dispatch, DirectCpu-based Lo-Fi/hardware) can report
 * per-run cycle totals that the harness diffs as a new difference
 * class, TimingDivergence, clustered separately from state diffs and
 * timeouts.
 *
 * Costs are *derived from the IR programs themselves* (derive_cost):
 * a per-unit base proportional to the retired-statement count plus a
 * per-memory-access increment for every Load/Store that can reach
 * guest physical memory, plus a fault-path surcharge for units that
 * can raise an exception. Derivation walks the same canonical
 * programs semgen compiles (compiled_build_options, optimizer on), so
 * symbolic exploration, the interpreter, and the generated native
 * handlers all observe identical accounting — and tools/semgen emits
 * the very table it compiled against (compiled_cost_table), folded
 * into the FNV staleness stamp so the ctests that check the stamp
 * catch a stale cost table just like stale handlers.
 *
 * The model is deliberately *static per (row, operand form)*: equal
 * retired instruction sequences always charge equal cycles, so with
 * no timing defect seeded the backends agree cycle-for-cycle and the
 * merged campaign report stays byte-identical across shard counts,
 * OptMode and CompiledExec (optimized and unoptimized programs
 * execute different statement counts; charging dynamically would
 * leak the mode into the report).
 *
 * Every derived cost component is even by construction, so a
 * systematic halving defect (defects: half_cycle_accounting) divides
 * totals exactly and lands deterministically in the 2x ratio bucket.
 */
#ifndef POKEEMU_TIMING_COST_MODEL_H
#define POKEEMU_TIMING_COST_MODEL_H

#include <string>
#include <vector>

#include "arch/decoder.h"
#include "ir/stmt.h"

namespace pokeemu::timing {

/// @name Cost constants (all even; see file comment).
/// @{
/** Charged per Load/Store that can reach guest physical memory. */
constexpr u64 kMemAccessCost = 4;
/** Flat charge when an instruction faults before its semantics run
 *  (fetch starvation, undecodable bytes, rejected alias). */
constexpr u64 kFaultPathCycles = 8;
/** Surcharge when the semantics themselves raise an exception. */
constexpr u64 kExceptionCycles = 16;
/// @}

/** Cycle cost of one compiled unit, derived from its IR program. */
struct UnitCost
{
    /** Per-retirement base: 2 + 2 * (non-comment statements / 8). */
    u64 base = 2;
    /** Guest-memory Load/Store statements in the program. */
    u64 mem_accesses = 0;
    /** Added when the run faults in-semantics; kExceptionCycles if
     *  the program has a reachable exception halt, else 0. */
    u64 fault_extra = 0;

    /** The undefected charge for one retirement of this unit. */
    u64 charge(bool faulted) const
    {
        return base + kMemAccessCost * mem_accesses +
            (faulted ? fault_extra : 0);
    }

    bool operator==(const UnitCost &o) const
    {
        return base == o.base && mem_accesses == o.mem_accesses &&
            fault_extra == o.fault_extra;
    }
};

/**
 * Derive @p program's cost by walking its statements: every
 * non-comment statement contributes to the base; Load/Store
 * statements whose address is a constant below the guest-physical
 * window are register-file traffic (CPU state image / insn-buffer
 * scratch) folded into the base, all others count as memory
 * accesses; a Halt whose code is non-constant or carries the
 * exception bit makes the fault path reachable.
 */
UnitCost derive_cost(const ir::Program &program);

/**
 * Per-instruction cost lookup keyed on (table row, operand form).
 * The two ModRM operand forms of a row execute different IR (the
 * memory form loads/stores guest RAM where the register form touches
 * the state image), so they cost differently; rows with only one
 * compiled form serve both forms from it.
 */
class CostModel
{
  public:
    /** Record the cost of one compiled form of a row. */
    void set(int table_index, bool mem_form, const UnitCost &cost);

    /** Cost serving (@p table_index, @p mem_form); falls back to the
     *  row's other form, then to a minimal default for rows with no
     *  compiled unit. */
    const UnitCost &cost_for(int table_index, bool mem_form) const;

    const UnitCost &cost_for(const arch::DecodedInsn &insn) const
    {
        return cost_for(insn.table_index, insn.is_memory_operand());
    }

    bool empty() const { return rows_.empty(); }

  private:
    struct RowCost
    {
        UnitCost form[2]; ///< [0] register form, [1] memory form.
        bool have[2] = {false, false};
    };

    std::vector<RowCost> rows_;
    UnitCost fallback_{};
};

/**
 * The process-wide model, built once from the semgen-generated cost
 * table (hifi::compiled_cost_table) — no semantics are rebuilt at
 * run time, so enabling timing costs one table scan. semgen_check
 * compares the generated table with fresh derivation, and the FNV
 * staleness stamp catches a change to the derivation rules.
 */
const CostModel &cost_model();

/**
 * Ratio-bucketed root cause for a timing divergence: @p hw_cycles
 * from the hardware oracle vs @p backend_cycles from @p backend
 * ("lofi" or "hifi"). Buckets: "cycles-zero-<b>" (either side zero),
 * "cycles-under-<b>" / "cycles-<2|3>x-under-<b>" /
 * "cycles-4x+-under-<b>" with the rounded hw/backend ratio, and the
 * symmetric "over" family. Callers compare cycles only on otherwise
 * clean runs, so these clusters never mix with state-diff or
 * timeout clusters.
 */
std::string divergence_label(u64 hw_cycles, u64 backend_cycles,
                             const std::string &backend);

} // namespace pokeemu::timing

#endif // POKEEMU_TIMING_COST_MODEL_H
