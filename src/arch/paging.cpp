#include "arch/paging.h"

namespace pokeemu::arch {

namespace {

void
write32_phys(GuestRam &ram, u32 phys, u32 v)
{
    for (unsigned i = 0; i < 4; ++i)
        ram.write8(phys + i, static_cast<u8>(v >> (8 * i)));
}

} // namespace

TranslateResult
translate_linear(GuestRam &ram, u32 cr3, u32 linear, AccessIntent intent,
                 bool wp, bool set_accessed_dirty)
{
    TranslateResult result;
    const u32 err_base = (intent.write ? kPfErrWrite : 0) |
                         (intent.user ? kPfErrUser : 0);

    const u32 pde_addr =
        (cr3 & kPteFrameMask) + (((linear >> 22) & 0x3ff) << 2);
    const u32 pde = ram.read32(pde_addr);
    if (!(pde & kPtePresent)) {
        result.pf_error = err_base;
        return result;
    }

    const u32 pte_addr =
        (pde & kPteFrameMask) + (((linear >> 12) & 0x3ff) << 2);
    const u32 pte = ram.read32(pte_addr);
    if (!(pte & kPtePresent)) {
        result.pf_error = err_base;
        return result;
    }

    // Combined permissions: most restrictive of PDE and PTE.
    const bool user_ok = (pde & kPteUser) && (pte & kPteUser);
    const bool rw_ok = (pde & kPteRw) && (pte & kPteRw);
    if (intent.user && !user_ok) {
        result.pf_error = err_base | kPfErrPresent;
        return result;
    }
    if (intent.write && !rw_ok && (intent.user || wp)) {
        result.pf_error = err_base | kPfErrPresent;
        return result;
    }

    if (set_accessed_dirty) {
        if (!(pde & kPteAccessed))
            write32_phys(ram, pde_addr, pde | kPteAccessed);
        u32 new_pte = pte | kPteAccessed;
        if (intent.write)
            new_pte |= kPteDirty;
        if (new_pte != pte)
            write32_phys(ram, pte_addr, new_pte);
    }

    result.ok = true;
    result.phys = (pte & kPteFrameMask) | (linear & 0xfff);
    return result;
}

} // namespace pokeemu::arch
