/**
 * @file
 * Concrete VX86 instruction decoder.
 *
 * Used by the semantics generator (to build per-instruction IR) and by
 * all three backends at replay: the Hi-Fi emulator, the Lo-Fi
 * emulator and the hardware model. Stage 1 explores an IR
 * re-implementation of the same rules (hifi/decoder_ir.h) so the
 * decode logic itself can be explored symbolically;
 * DecoderIr.AgreesWithTableDecoderOnRandomBytes keeps the two in
 * agreement, fetch faults included, so what replay decodes is what
 * stage 1 explored.
 */
#ifndef POKEEMU_ARCH_DECODER_H
#define POKEEMU_ARCH_DECODER_H

#include "arch/insn_table.h"

namespace pokeemu::arch {

enum class DecodeStatus : u8 {
    Ok,
    Invalid,  ///< #UD: not a legal instruction of the subset.
    TooLong,  ///< #GP: more than 15 bytes.
};

/** Maximum encodable instruction length, as on x86. */
constexpr unsigned kMaxInsnLength = 15;

/** Maximum number of prefix bytes the subset accepts. */
constexpr unsigned kMaxPrefixes = 4;

/** A fully decoded instruction. */
struct DecodedInsn
{
    u8 bytes[kMaxInsnLength] = {};
    u8 length = 0;

    int table_index = -1;          ///< Index into insn_table().
    const InsnDesc *desc = nullptr;

    bool lock = false;
    bool rep = false;   ///< F3.
    bool repne = false; ///< F2.
    s8 seg_override = -1; ///< Seg index or -1.

    u16 opcode = 0;
    bool has_modrm = false;
    u8 modrm = 0, mod = 0, reg = 0, rm = 0;
    bool has_sib = false;
    u8 sib = 0, scale = 0, index = 0, base = 0;
    bool has_disp = false;
    u32 disp = 0;
    u32 imm = 0;
    u16 imm_sel = 0; ///< Selector half of a FarPtr immediate.

    bool is_memory_operand() const { return has_modrm && mod != 3; }
};

/** True when the op's ModRM form must be a memory operand (mod != 3). */
bool op_requires_memory(Op op);

/**
 * Decode the byte sequence at @p bytes (up to @p len bytes available).
 * On Ok, @p out is fully populated including desc and table_index.
 */
DecodeStatus decode(const u8 *bytes, std::size_t len, DecodedInsn &out);

/** Render a decoded instruction (for reports and examples). */
std::string to_string(const DecodedInsn &insn);

/**
 * Canonical encoding for table row @p table_index: no prefixes,
 * register form where legal (memory-only forms use a [disp32]
 * operand), zero immediates. Decodes back to the same row; used when
 * a caller selects instructions directly instead of running the
 * instruction-set exploration.
 */
std::vector<u8> canonical_encoding(int table_index);

} // namespace pokeemu::arch

#endif // POKEEMU_ARCH_DECODER_H
