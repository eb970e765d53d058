#include "arch/fetch.h"

#include "arch/paging.h"

namespace pokeemu::arch {

std::optional<GuestFault>
fetch_insn(GuestRam &ram, const CpuState &cpu, bool check_cs_limit,
           bool set_accessed, DecodedInsn &insn)
{
    const SegmentReg &cs = cpu.seg[kCs];
    const bool paging = (cpu.cr0 & kCr0Pg) != 0;
    u8 buf[kMaxInsnLength] = {};
    unsigned avail = 0;
    std::optional<GuestFault> fault;
    u32 frame = 0; // Physical page of the current linear page.
    for (; avail < kMaxInsnLength; ++avail) {
        const u32 off = cpu.eip + avail;
        if (check_cs_limit && off > cs.limit) {
            fault = GuestFault{kExcGp, 0, true, false, 0};
            break;
        }
        const u32 lin = cs.base + off;
        const u32 page_off = lin & (kPageSize - 1);
        if (!paging) {
            frame = lin - page_off;
        } else if (avail == 0 || page_off == 0) {
            // A fetch only reads, so walking a page again would give
            // the same frame and write no accessed bit.
            const TranslateResult tr =
                translate_linear(ram, cpu.cr3, lin, {false, false},
                                 (cpu.cr0 & kCr0Wp) != 0, set_accessed);
            if (!tr.ok) {
                fault = GuestFault{kExcPf, tr.pf_error, true, true, lin};
                break;
            }
            frame = tr.phys - page_off;
        }
        buf[avail] = ram.read8(frame + page_off);
    }

    switch (decode(buf, avail, insn)) {
      case DecodeStatus::Ok:
        return std::nullopt;
      case DecodeStatus::Invalid:
        return GuestFault{kExcUd, 0, false, false, 0};
      case DecodeStatus::TooLong:
        break;
    }
    // The decoder needed a byte it was not given: the one the fetch
    // faulted on, or a sixteenth.
    if (fault)
        return fault;
    return GuestFault{kExcGp, 0, true, false, 0};
}

} // namespace pokeemu::arch
