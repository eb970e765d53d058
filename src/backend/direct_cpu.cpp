#include "backend/direct_cpu.h"

#include "arch/descriptors.h"
#include "arch/fetch.h"
#include "arch/paging.h"
#include "timing/cost_model.h"

namespace pokeemu::backend {

using arch::AluKind;
using arch::CpuState;
using arch::DecodedInsn;
using arch::Op;
using arch::ShiftKind;

Behavior
hardware_behavior()
{
    return Behavior{};
}

namespace {

[[noreturn]] void
raise(u8 vector, u32 error, bool has_error)
{
    throw arch::GuestFault{vector, error, has_error, false, 0};
}

[[noreturn]] void
raise_pf(u32 error, u32 cr2)
{
    throw arch::GuestFault{arch::kExcPf, error, true, true, cr2};
}

bool
parity_even(u64 res)
{
    return (__builtin_popcountll(res & 0xff) & 1) == 0;
}

} // namespace

DirectCpu::DirectCpu(Behavior behavior) : behavior_(behavior) {}

void
DirectCpu::reset(const CpuState &cpu, const arch::RamImage &base,
                 u32 code_addr, std::span<const u8> code)
{
    cpu_ = cpu;
    ram_.reset(base, code_addr, code);
    insn_count_ = 0;
    cycles_ = 0;
}

void
DirectCpu::reset(const CpuState &cpu, const std::vector<u8> &ram)
{
    reset(cpu, arch::make_ram_image(ram), 0, {});
}

void
DirectCpu::snapshot_into(arch::Snapshot &out) const
{
    out.cpu = cpu_;
    ram_.snapshot_into(out.ram);
    out.cycles = cycles_;
}

void
DirectCpu::charge(int table_index, bool mem_form, bool faulted)
{
    if (!behavior_.cycle_accounting)
        return;
    const timing::UnitCost &cost =
        timing::cost_model().cost_for(table_index, mem_form);
    u64 total = cost.base;
    if (!behavior_.mem_access_cost_dropped)
        total += timing::kMemAccessCost * cost.mem_accesses;
    if (faulted)
        total += cost.fault_extra;
    if (behavior_.half_cycle_accounting)
        total >>= 1;
    cycles_ += total;
}

void
DirectCpu::charge_fault_path()
{
    if (!behavior_.cycle_accounting)
        return;
    u64 total = timing::kFaultPathCycles;
    if (behavior_.half_cycle_accounting)
        total >>= 1;
    cycles_ += total;
}

// ---------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------

u32
DirectCpu::seg_check(const Work &w, unsigned seg, u32 offset,
                     unsigned size, bool write) const
{
    const arch::SegmentReg &s = w.c.seg[seg];
    if (!behavior_.enforce_segment_checks)
        return s.base + offset;

    const u8 vector = seg == arch::kSs ? arch::kExcSs : arch::kExcGp;
    if ((s.selector & 0xfffc) == 0)
        raise(vector, 0, true);
    if (!(s.access & arch::kDescPresent))
        raise(vector, 0, true);
    const bool is_code = (s.access & arch::kDescCode) != 0;
    const bool rw = (s.access & arch::kDescRw) != 0;
    if (write) {
        if (is_code || !rw)
            raise(vector, 0, true);
    } else {
        if (is_code && !rw)
            raise(vector, 0, true);
    }
    const u32 last = offset + (size - 1);
    const bool wraps = last < offset;
    const bool expand_down =
        !is_code && (s.access & arch::kDescDc) != 0;
    bool bad;
    if (expand_down) {
        const u32 upper = s.db ? 0xffffffffu : 0xffffu;
        // Valid expand-down offsets are (limit, upper]; the seeded
        // off-by-one defect admits offset == limit as well.
        const bool below = behavior_.seg_limit_off_by_one
            ? offset < s.limit
            : offset <= s.limit;
        bad = wraps || below || last > upper;
    } else {
        // Valid offsets end at limit; the seeded off-by-one defect
        // faults the last valid byte (last >= limit, overflow-safe).
        const bool beyond = behavior_.seg_limit_off_by_one
            ? last >= s.limit
            : last > s.limit;
        bad = wraps || beyond;
    }
    if (bad)
        raise(vector, 0, true);
    return s.base + offset;
}

u32
DirectCpu::translate(const Work &w, u32 linear, bool write)
{
    if (!(w.c.cr0 & arch::kCr0Pg))
        return linear;
    const bool wp = (w.c.cr0 & arch::kCr0Wp) != 0;
    auto tr = arch::translate_linear(ram_, w.c.cr3, linear,
                                     {write, false}, wp,
                                     behavior_.set_pte_accessed_dirty);
    if (!tr.ok)
        raise_pf(tr.pf_error | (write ? arch::kPfErrWrite : 0),
                 linear);
    return tr.phys;
}

u64
DirectCpu::read_phys(u32 phys, unsigned size) const
{
    u64 v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<u64>(ram_.read8(phys + i)) << (8 * i);
    return v;
}

void
DirectCpu::write_phys(u32 phys, unsigned size, u64 value)
{
    for (unsigned i = 0; i < size; ++i)
        ram_.write8(phys + i, static_cast<u8>(value >> (8 * i)));
}

u64
DirectCpu::read_mem(Work &w, unsigned seg, u32 offset, unsigned size)
{
    const u32 lin = seg_check(w, seg, offset, size, false);
    const u32 phys = translate(w, lin, false);
    return read_phys(phys, size);
}

u32
DirectCpu::prepare_write(Work &w, unsigned seg, u32 offset,
                         unsigned size)
{
    const u32 lin = seg_check(w, seg, offset, size, true);
    return translate(w, lin, true);
}

void
DirectCpu::write_mem(Work &w, unsigned seg, u32 offset, unsigned size,
                     u64 value)
{
    write_phys(prepare_write(w, seg, offset, size), size, value);
}

// ---------------------------------------------------------------------
// Registers and flags.
// ---------------------------------------------------------------------

u64
DirectCpu::get_reg(const Work &w, unsigned r, unsigned width) const
{
    switch (width) {
      case 32: return w.c.gpr[r];
      case 16: return w.c.gpr[r] & 0xffff;
      case 8:
        return r < 4 ? (w.c.gpr[r] & 0xff)
                     : ((w.c.gpr[r - 4] >> 8) & 0xff);
    }
    panic("bad register width");
}

void
DirectCpu::set_reg(Work &w, unsigned r, unsigned width, u64 value)
{
    switch (width) {
      case 32:
        w.c.gpr[r] = static_cast<u32>(value);
        return;
      case 16:
        w.c.gpr[r] = (w.c.gpr[r] & 0xffff0000u) |
                     static_cast<u32>(value & 0xffff);
        return;
      case 8:
        if (r < 4) {
            w.c.gpr[r] =
                (w.c.gpr[r] & 0xffffff00u) |
                static_cast<u32>(value & 0xff);
        } else {
            w.c.gpr[r - 4] =
                (w.c.gpr[r - 4] & 0xffff00ffu) |
                (static_cast<u32>(value & 0xff) << 8);
        }
        return;
    }
    panic("bad register width");
}

void
DirectCpu::set_flags_szp(Work &w, u64 res, unsigned width,
                         u32 extra_set, u32 extra_clear)
{
    u32 fl = w.c.eflags;
    fl &= ~(arch::kFlagSf | arch::kFlagZf | arch::kFlagPf | extra_clear);
    const u64 m = truncate(res, width);
    if (get_bit(m, width - 1))
        fl |= arch::kFlagSf;
    if (m == 0)
        fl |= arch::kFlagZf;
    if (parity_even(m))
        fl |= arch::kFlagPf;
    fl |= extra_set;
    fl |= arch::kFlagFixed1;
    w.c.eflags = fl;
}

void
DirectCpu::flags_add(Work &w, u64 a, u64 b, u64 cin, unsigned width)
{
    const u64 am = truncate(a, width), bm = truncate(b, width);
    // Seeded defect: byte-op flags computed by the 32-bit helper, so
    // CF/OF/SF/ZF come from the wrong bit positions. Operands are
    // still the byte values the emulator extracted.
    const unsigned fw =
        behavior_.alu8_flags_wide && width == 8 ? 32 : width;
    const u64 wide = am + bm + cin;
    const u64 res = truncate(wide, fw);
    u32 set = 0;
    if (get_bit(wide, fw))
        set |= arch::kFlagCf;
    const bool sa = get_bit(am, fw - 1), sb = get_bit(bm, fw - 1),
               sr = get_bit(res, fw - 1);
    if (sa == sb && sa != sr)
        set |= arch::kFlagOf;
    if ((am ^ bm ^ res) & 0x10)
        set |= arch::kFlagAf;
    set_flags_szp(w, res, fw, set,
                  arch::kFlagCf | arch::kFlagOf | arch::kFlagAf);
}

void
DirectCpu::flags_sub(Work &w, u64 a, u64 b, u64 bin, unsigned width)
{
    const u64 am = truncate(a, width), bm = truncate(b, width);
    const unsigned fw =
        behavior_.alu8_flags_wide && width == 8 ? 32 : width;
    const u64 wide = am - bm - bin;
    const u64 res = truncate(wide, fw);
    u32 set = 0;
    if (get_bit(wide, fw))
        set |= arch::kFlagCf;
    const bool sa = get_bit(am, fw - 1), sb = get_bit(bm, fw - 1),
               sr = get_bit(res, fw - 1);
    if (sa != sb && sa != sr)
        set |= arch::kFlagOf;
    if ((am ^ bm ^ res) & 0x10)
        set |= arch::kFlagAf;
    set_flags_szp(w, res, fw, set,
                  arch::kFlagCf | arch::kFlagOf | arch::kFlagAf);
}

void
DirectCpu::flags_logic(Work &w, u64 res, unsigned width)
{
    const unsigned fw =
        behavior_.alu8_flags_wide && width == 8 ? 32 : width;
    set_flags_szp(w, truncate(res, width), fw, 0,
                  arch::kFlagCf | arch::kFlagOf | arch::kFlagAf);
}

bool
DirectCpu::cond_cc(const Work &w, unsigned cc) const
{
    const u32 fl = w.c.eflags;
    const bool cf = fl & arch::kFlagCf;
    const bool pf = fl & arch::kFlagPf;
    const bool zf = fl & arch::kFlagZf;
    const bool sf = fl & arch::kFlagSf;
    const bool of = fl & arch::kFlagOf;
    bool base = false;
    switch (cc >> 1) {
      case 0: base = of; break;
      case 1: base = cf; break;
      case 2: base = zf; break;
      case 3: base = cf || zf; break;
      case 4: base = sf; break;
      case 5: base = pf; break;
      case 6: base = sf != of; break;
      case 7: base = zf || (sf != of); break;
    }
    return (cc & 1) ? !base : base;
}

// ---------------------------------------------------------------------
// Operands.
// ---------------------------------------------------------------------

unsigned
DirectCpu::effective_segment(const DecodedInsn &insn) const
{
    if (insn.seg_override >= 0)
        return static_cast<unsigned>(insn.seg_override);
    if (insn.has_sib) {
        if (insn.base == arch::kEbp && insn.mod == 0)
            return arch::kDs;
        if (insn.base == arch::kEsp || insn.base == arch::kEbp)
            return arch::kSs;
        return arch::kDs;
    }
    if (insn.mod != 0 && insn.rm == arch::kEbp)
        return arch::kSs;
    return arch::kDs;
}

u32
DirectCpu::effective_address(const Work &w,
                             const DecodedInsn &insn) const
{
    u32 ea = insn.disp;
    if (insn.has_sib) {
        if (!(insn.base == 5 && insn.mod == 0))
            ea += w.c.gpr[insn.base];
        if (insn.index != 4)
            ea += w.c.gpr[insn.index] << insn.scale;
    } else if (!(insn.mod == 0 && insn.rm == 5)) {
        ea += w.c.gpr[insn.rm];
    }
    return ea;
}

u64
DirectCpu::read_rm(Work &w, const DecodedInsn &insn, unsigned width)
{
    if (insn.mod == 3)
        return get_reg(w, insn.rm, width);
    return read_mem(w, effective_segment(insn),
                    effective_address(w, insn), width / 8);
}

void
DirectCpu::write_rm(Work &w, const DecodedInsn &insn, unsigned width,
                    u64 value)
{
    if (insn.mod == 3) {
        set_reg(w, insn.rm, width, value);
        return;
    }
    write_mem(w, effective_segment(insn), effective_address(w, insn),
              width / 8, value);
}

void
DirectCpu::push32(Work &w, u32 value)
{
    const u32 new_esp = w.c.gpr[arch::kEsp] - 4;
    write_mem(w, arch::kSs, new_esp, 4, value);
    w.c.gpr[arch::kEsp] = new_esp;
}

u32
DirectCpu::pop32(Work &w)
{
    const u32 v = static_cast<u32>(
        read_mem(w, arch::kSs, w.c.gpr[arch::kEsp], 4));
    w.c.gpr[arch::kEsp] += 4;
    return v;
}

// ---------------------------------------------------------------------
// Segment loading.
// ---------------------------------------------------------------------

void
DirectCpu::load_segment(Work &w, unsigned seg, u16 selector)
{
    const bool is_null = (selector & 0xfffc) == 0;
    if (seg == arch::kSs && is_null)
        raise(arch::kExcGp, 0, true);
    if (is_null) {
        w.c.seg[seg] = arch::SegmentReg{};
        w.c.seg[seg].selector = selector;
        return;
    }
    if (selector & 0x4) // TI=1: no LDT in the subset.
        raise(arch::kExcGp, selector & 0xfffc, true);
    const u32 index = selector >> 3;
    if (w.c.gdtr.limit < index * 8 + 7)
        raise(arch::kExcGp, selector & 0xfffc, true);

    // The GDT base is a linear address; the subset requires it to be
    // identity-mapped (the baseline guarantees this), matching the
    // Hi-Fi emulator's physical read.
    const u32 desc_addr = w.c.gdtr.base + index * 8;
    u8 bytes[8];
    for (unsigned i = 0; i < 8; ++i)
        bytes[i] = ram_.read8(desc_addr + i);
    const arch::Descriptor d = arch::decode_descriptor(bytes);

    bool bad_type = !d.is_code_data();
    if (seg == arch::kSs)
        bad_type = bad_type || d.is_code() || !d.writable();
    else
        bad_type = bad_type || (d.is_code() && !d.writable());
    if (bad_type)
        raise(arch::kExcGp, selector & 0xfffc, true);
    if (!d.present()) {
        raise(seg == arch::kSs ? arch::kExcSs : arch::kExcNp,
              selector & 0xfffc, true);
    }

    arch::SegmentReg out = arch::make_segment_reg(selector, d);
    if (behavior_.set_descriptor_accessed) {
        out.access |= arch::kDescAccessed;
        ram_.write8(desc_addr + 5, bytes[5] | arch::kDescAccessed);
    }
    w.c.seg[seg] = out;
}

// ---------------------------------------------------------------------
// Step: fetch and decode (arch/fetch.h), execute.
// ---------------------------------------------------------------------

bool
DirectCpu::step()
{
    if (cpu_.halted)
        return false;

    // Cost key of the instruction whose semantics are executing, for
    // fault-path charging from the handler below (the DecodedInsn
    // itself dies with the try scope). row < 0 = faulted before its
    // semantics ran (fetch/decode/alias): flat fault-path charge,
    // mirroring HiFiEmulator's pre-semantics sites.
    int charge_row = -1;
    bool charge_memform = false;
    Work w{cpu_};
    try {
        // The seeded segment-check and A/D-bit bugs act on the fetch
        // too.
        DecodedInsn insn;
        if (const auto fault = arch::fetch_insn(
                ram_, w.c, behavior_.enforce_segment_checks,
                behavior_.set_pte_accessed_dirty, insn)) {
            throw *fault;
        }
        if (!behavior_.accept_alias_encodings && insn.desc->is_alias)
            raise(arch::kExcUd, 0, false);

        charge_row = insn.table_index;
        charge_memform = insn.is_memory_operand();
        execute(w, insn);
        cpu_ = w.c;
        ++insn_count_;
        charge(charge_row, charge_memform, false);
        return true;
    } catch (const arch::GuestFault &f) {
        // Commit the working state as mutated so far (string progress
        // and the seeded non-atomicity bugs rely on this), then record
        // the fault and halt (abstract halting handler, paper §4.1).
        w.c.exception.vector = f.vector;
        w.c.exception.error_code = f.error_code;
        w.c.exception.has_error_code = f.has_error_code;
        if (f.set_cr2)
            w.c.cr2 = f.cr2;
        w.c.halted = 1;
        cpu_ = w.c;
        if (charge_row >= 0)
            charge(charge_row, charge_memform, true);
        else
            charge_fault_path();
        return false;
    }
}

StopReason
DirectCpu::run(u64 max_insns)
{
    for (u64 i = 0; i < max_insns; ++i) {
        if (!step()) {
            return cpu_.exception.present() ? StopReason::Exception
                                            : StopReason::Halted;
        }
    }
    return StopReason::InsnLimit;
}

} // namespace pokeemu::backend
