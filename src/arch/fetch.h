/**
 * @file
 * Instruction fetch and decode, shared by all three backends.
 *
 * The paper explores the Hi-Fi emulator's decoder and semantics, not
 * its instruction fetch; here the fetch is harness code, written once
 * for the Hi-Fi emulator, the Lo-Fi emulator and the hardware model.
 * It reads up to 15 bytes at CS:EIP through the CS limit and the page
 * tables, walking the tables once per page it touches, and decodes
 * them once with the table decoder (arch/decoder.h).
 */
#ifndef POKEEMU_ARCH_FETCH_H
#define POKEEMU_ARCH_FETCH_H

#include <optional>

#include "arch/decoder.h"
#include "arch/guest_ram.h"

namespace pokeemu::arch {

/** A guest fault: what fetch_insn reports, and what the direct
 *  backend throws during execution. */
struct GuestFault
{
    u8 vector;
    u32 error_code;
    bool has_error_code;
    bool set_cr2;
    u32 cr2;
};

/**
 * Fetch the instruction at CS:EIP of @p cpu from @p ram and decode it
 * into @p insn. The fetch stops at the first byte past the CS limit
 * (#GP(0), when @p check_cs_limit) or on an unmapped page (#PF, when
 * paging is on). The decode's status maps to a fault: Invalid is #UD;
 * TooLong is the fetch's own fault when it stopped short, else #GP(0)
 * (more than 15 bytes).
 *
 * @param set_accessed set the accessed bits of the PDEs and PTEs the
 *        fetch walks (translate_linear's set_accessed_dirty).
 * @return the fault, or nullopt when @p insn holds the instruction.
 */
std::optional<GuestFault> fetch_insn(GuestRam &ram, const CpuState &cpu,
                                     bool check_cs_limit,
                                     bool set_accessed, DecodedInsn &insn);

} // namespace pokeemu::arch

#endif // POKEEMU_ARCH_FETCH_H
