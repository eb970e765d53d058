/**
 * @file
 * Build-time compiled semantics handlers for concrete replay.
 *
 * tools/semgen loads every instruction row's semantics program (built
 * with the fixed options below, optimizer on), lowers it to a
 * straight-line/branchy C++ function over the ir::ConcreteMemory
 * interface, and emits one handler per unit plus the dispatch table
 * returned by compiled_table() — the WinUAE gencpu shape
 * (table -> generator -> handlers.cpp) applied to IR semantics.
 *
 * A handler is generated from one canonical encoding but serves every
 * encoding with the same *structural shape* (length, prefixes, ModRM,
 * SIB): value immediates and the displacement are parameterized
 * through the param_block loads (SemanticsOptions::generic_params),
 * which the dispatcher writes before calling the handler. The few
 * rows whose builder branches on immediate *values* in C++
 * (compiled_params_ok() == false) compile specialized and only match
 * their canonical values.
 *
 * Staleness stamp: semgen stamps compiled_expected_hash() — a hash of
 * every unit's printed program and shape — into the table. The build
 * regenerates the table whenever semgen relinks, and the ctests that
 * compare the stamp (semgen_crosscheck_all and
 * CompiledTable.StampMatchesExpectedHash) catch a stale or corrupt
 * table; replay itself never re-derives the hash.
 */
#ifndef POKEEMU_HIFI_COMPILED_H
#define POKEEMU_HIFI_COMPILED_H

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "arch/decoder.h"
#include "hifi/semantics.h"
#include "ir/eval.h"
#include "timing/cost_model.h"

namespace pokeemu::hifi {

/**
 * One generated handler. Mirrors ir::run_concrete on the unit's
 * program exactly, including RunResult::steps (retired IR statements,
 * not native operations) and the step-limit/assume/halt outcomes.
 */
using CompiledHandler = ir::RunResult (*)(ir::ConcreteMemory &memory,
                                          u64 max_steps);

/** The structural shape a handler was generated from; dispatch
 *  requires an exact match (register numbers and operand forms are
 *  baked into the generated code). */
struct CompiledShape
{
    int table_index = -1;
    u8 length = 0;
    bool lock = false;
    bool rep = false;
    bool repne = false;
    s8 seg_override = -1;
    bool has_modrm = false;
    u8 modrm = 0;
    bool has_sib = false;
    u8 sib = 0;
    /** Immediate/displacement values are parameterized; when false the
     *  canonical imm/disp/imm_sel below must also match exactly. */
    bool params_ok = true;
    u32 imm = 0;
    u32 disp = 0;
    u16 imm_sel = 0;
};

struct CompiledEntry
{
    CompiledShape shape;
    CompiledHandler handler;
};

/** The generated dispatch table (defined by semgen's output). Entries
 *  are grouped by table_index: row r's entries occupy
 *  [row_begin[r], row_begin[r + 1]). */
struct CompiledTable
{
    const CompiledEntry *entries;
    std::size_t num_entries;
    const u32 *row_begin; ///< rows + 1 offsets into entries.
    std::size_t rows;
    u64 semantics_hash; ///< Stamp of compiled_expected_hash().
};

/** Defined in the semgen-generated translation unit. */
const CompiledTable &compiled_table();

/** The generated per-unit cycle-cost table (timing/cost_model.h),
 *  parallel to CompiledTable::entries: costs[i] is the cost semgen
 *  derived from the exact program it compiled into entries[i].
 *  compiled_expected_hash() folds freshly derived triples, so a change
 *  to the derivation rules stales the table together with the
 *  handlers; semgen_check compares every emitted triple with a fresh
 *  derivation, which also catches a triple emitted wrongly. */
struct CompiledCostTable
{
    const timing::UnitCost *costs;
    std::size_t num;
};

/** Defined in the semgen-generated translation unit. */
const CompiledCostTable &compiled_cost_table();

/** Does @p insn match @p shape (see CompiledShape)? */
bool shape_matches(const CompiledShape &shape,
                   const arch::DecodedInsn &insn);

/** Find the handler entry serving @p insn, or nullptr. */
const CompiledEntry *compiled_find(const arch::DecodedInsn &insn);

/**
 * Can this op's immediates be parameterized? False for the rows whose
 * builder branches on immediate values in C++ (int imm8 selects the
 * vector; far jmp/call decompose the selector): those compile
 * specialized to the canonical encoding's values.
 */
bool compiled_params_ok(arch::Op op);

/** The fixed options every compiled unit is built with. The emulator
 *  only dispatches to handlers when its own options agree on the one
 *  behavioral knob (hifi_far_fetch_order). */
SemanticsOptions compiled_build_options(bool params_ok);

/** One buildable unit: a canonical (or memory-form variant) encoding
 *  and its generic program. Order defines handler indices. */
struct CompiledUnit
{
    arch::DecodedInsn insn;
    ir::Program program;
    bool params_ok = true;
    bool variant = false; ///< Alternate operand-form re-encoding.
};

/**
 * The alternate operand-form re-encoding of a ModRM row, when one
 * decodes back to the same row: canonical encodings prefer the
 * [disp32] memory form (mod=0, rm=5), so the variant is the register
 * form (mod=3) — and vice versa for the few register-form canonicals.
 * Replayed boot/test code uses both forms, and each form needs its
 * own handler (operand shape is baked into the generated code).
 */
std::vector<u8> variant_encoding(int table_index);

/** Build every compiled unit, in table order (canonical first, then
 *  the memform variant when one exists). */
std::vector<CompiledUnit> build_compiled_units();

/** Process-wide lazily-built units (shared by the checking tools and
 *  tests). */
const std::vector<CompiledUnit> &compiled_units();

/** Hash over every unit's shape + printed program; must equal the
 *  stamp in compiled_table(). */
u64 compiled_expected_hash();

/**
 * A self-contained ConcreteMemory for differential testing and
 * benchmarking of semantics programs outside a full emulator: the
 * HiFiEmulator address map (CPU state image, instruction-buffer
 * scratch, wrapped guest physical RAM) backed by a deterministic
 * per-address byte pattern plus a sparse write overlay, with a journal
 * of every store. Two runs over equal seeds see identical loads, so
 * comparing (RunResult, journal) decides behavioral equality without
 * copying the 4 MiB RAM image.
 */
class ReplayMemory : public ir::ConcreteMemory
{
  public:
    struct StoreRec
    {
        u32 addr = 0;
        unsigned size = 0;
        u64 value = 0;

        bool operator==(const StoreRec &o) const
        {
            return addr == o.addr && size == o.size && value == o.value;
        }
    };

    explicit ReplayMemory(u64 seed = 0) : seed_(seed) {}

    /** Forget writes and reseed the pattern. */
    void reset(u64 seed);

    u64 load(u32 addr, unsigned size) override;
    void store(u32 addr, unsigned size, u64 value) override;

    /** Write without journaling (test setup: params, CPU fields). */
    void poke(u32 addr, unsigned size, u64 value);

    const std::vector<StoreRec> &journal() const { return journal_; }

  private:
    /** Mirror of HiFiEmulator::resolve + the per-byte guest-phys wrap;
     *  throws std::out_of_range outside the mapped regions. */
    u32 map_byte(u32 addr, unsigned i) const;
    u8 byte_at(u32 mapped) const;

    u64 seed_ = 0;
    std::unordered_map<u32, u8> overlay_;
    std::vector<StoreRec> journal_;
};

} // namespace pokeemu::hifi

#endif // POKEEMU_HIFI_COMPILED_H
