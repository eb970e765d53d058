/**
 * @file
 * Two-level x86 paging: PDE/PTE bit definitions and the concrete page
 * walk shared by the Lo-Fi emulator and the hardware model. (The Hi-Fi
 * emulator implements the same walk in IR so it can be explored
 * symbolically; its flag-bit addresses are what Figure 3 marks
 * symbolic.)
 */
#ifndef POKEEMU_ARCH_PAGING_H
#define POKEEMU_ARCH_PAGING_H

#include <optional>

#include "arch/guest_ram.h"

namespace pokeemu::arch {

/// @name PDE/PTE bits (identical in both levels for the subset).
/// @{
constexpr u32 kPtePresent = 1u << 0;
constexpr u32 kPteRw = 1u << 1;
constexpr u32 kPteUser = 1u << 2;
constexpr u32 kPteAccessed = 1u << 5;
constexpr u32 kPteDirty = 1u << 6;
constexpr u32 kPteFrameMask = 0xfffff000;
/// @}

/** Page-fault error-code bits. */
constexpr u32 kPfErrPresent = 1u << 0; ///< Fault on a present page.
constexpr u32 kPfErrWrite = 1u << 1;
constexpr u32 kPfErrUser = 1u << 2;

/** What a translation attempt needs to know about the access. */
struct AccessIntent
{
    bool write = false;
    bool user = false;
};

/** Result of a page walk: either a physical address or a #PF record. */
struct TranslateResult
{
    bool ok = false;
    u32 phys = 0;
    u32 pf_error = 0; ///< Error code when !ok.
};

/**
 * Concrete two-level page walk.
 *
 * @param ram guest physical memory.
 * @param cr3 page-directory base.
 * @param linear linear address to translate.
 * @param intent access type for permission checks.
 * @param wp CR0.WP: when set, supervisor writes honor read-only PTEs.
 * @param set_accessed_dirty update A/D bits in RAM on success (real
 *        hardware behaviour; an emulator bug knob disables it).
 */
TranslateResult translate_linear(GuestRam &ram, u32 cr3, u32 linear,
                                 AccessIntent intent, bool wp,
                                 bool set_accessed_dirty);

} // namespace pokeemu::arch

#endif // POKEEMU_ARCH_PAGING_H
