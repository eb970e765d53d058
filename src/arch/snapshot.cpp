#include "arch/snapshot.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace pokeemu::arch {

namespace {

void
field(SnapshotDiff &diff, const std::string &name, u64 a, u64 b)
{
    if (a != b)
        diff.cpu.push_back({name, a, b});
}

/** Record the bytes where @p x and @p y (@p n bytes each, at physical
 *  address @p addr) differ, in ascending order. */
void
compare_bytes(SnapshotDiff &diff, const u8 *x, const u8 *y, std::size_t n,
              std::size_t addr)
{
    const auto note = [&](std::size_t i) {
        if (x[i] != y[i]) {
            ++diff.mem_total;
            if (diff.mem.size() < SnapshotDiff::kMaxMemDiffs)
                diff.mem.push_back(static_cast<u32>(addr + i));
        }
    };
    // Word at a time: byte loops would dominate otherwise.
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        u64 wx, wy;
        std::memcpy(&wx, x + i, 8);
        std::memcpy(&wy, y + i, 8);
        if (wx == wy)
            continue;
        for (std::size_t k = i; k < i + 8; ++k)
            note(k);
    }
    for (; i < n; ++i)
        note(i);
}

} // namespace

SnapshotDiff
diff_snapshots(const Snapshot &a, const Snapshot &b)
{
    SnapshotDiff diff;
    for (unsigned r = 0; r < kNumGprs; ++r)
        field(diff, gpr_name(r), a.cpu.gpr[r], b.cpu.gpr[r]);
    field(diff, "eip", a.cpu.eip, b.cpu.eip);
    field(diff, "eflags", a.cpu.eflags, b.cpu.eflags);
    field(diff, "cr0", a.cpu.cr0, b.cpu.cr0);
    field(diff, "cr2", a.cpu.cr2, b.cpu.cr2);
    field(diff, "cr3", a.cpu.cr3, b.cpu.cr3);
    field(diff, "cr4", a.cpu.cr4, b.cpu.cr4);
    field(diff, "gdtr.base", a.cpu.gdtr.base, b.cpu.gdtr.base);
    field(diff, "gdtr.limit", a.cpu.gdtr.limit, b.cpu.gdtr.limit);
    field(diff, "idtr.base", a.cpu.idtr.base, b.cpu.idtr.base);
    field(diff, "idtr.limit", a.cpu.idtr.limit, b.cpu.idtr.limit);
    for (unsigned s = 0; s < kNumSegs; ++s) {
        const std::string p = std::string("seg.") + seg_name(s) + ".";
        field(diff, p + "sel", a.cpu.seg[s].selector,
              b.cpu.seg[s].selector);
        field(diff, p + "base", a.cpu.seg[s].base, b.cpu.seg[s].base);
        field(diff, p + "limit", a.cpu.seg[s].limit, b.cpu.seg[s].limit);
        field(diff, p + "access", a.cpu.seg[s].access,
              b.cpu.seg[s].access);
        field(diff, p + "db", a.cpu.seg[s].db, b.cpu.seg[s].db);
    }
    field(diff, "msr.sysenter_cs", a.cpu.msr.sysenter_cs,
          b.cpu.msr.sysenter_cs);
    field(diff, "msr.sysenter_esp", a.cpu.msr.sysenter_esp,
          b.cpu.msr.sysenter_esp);
    field(diff, "msr.sysenter_eip", a.cpu.msr.sysenter_eip,
          b.cpu.msr.sysenter_eip);
    field(diff, "exc.vector", a.cpu.exception.vector,
          b.cpu.exception.vector);
    field(diff, "exc.error", a.cpu.exception.error_code,
          b.cpu.exception.error_code);
    field(diff, "exc.has_error", a.cpu.exception.has_error_code,
          b.cpu.exception.has_error_code);
    field(diff, "halted", a.cpu.halted, b.cpu.halted);

    if (a.ram.base() && a.ram.base() == b.ram.base()) {
        // Shared base: a page neither side wrote equals the base in
        // both. Walk the union of the written pages in ascending order.
        const u8 *base = a.ram.base()->data();
        const std::vector<u32> &pa = a.ram.pages();
        const std::vector<u32> &pb = b.ram.pages();
        std::size_t i = 0, j = 0;
        while (i < pa.size() || j < pb.size()) {
            u32 page = i < pa.size() ? pa[i] : pb[j];
            if (j < pb.size())
                page = std::min(page, pb[j]);
            const std::size_t off = std::size_t{page} << kPageShift;
            const u8 *x = base + off;
            const u8 *y = base + off;
            if (i < pa.size() && pa[i] == page)
                x = a.ram.page_data(i++);
            if (j < pb.size() && pb[j] == page)
                y = b.ram.page_data(j++);
            compare_bytes(diff, x, y, kPageSize, off);
        }
        return diff;
    }
    const std::vector<u8> x = a.ram.to_bytes();
    const std::vector<u8> y = b.ram.to_bytes();
    compare_bytes(diff, x.data(), y.data(), std::min(x.size(), y.size()),
                  0);
    if (x.size() != y.size())
        diff.mem_total += 1; // Size mismatch counts as a difference.
    return diff;
}

std::string
SnapshotDiff::to_string() const
{
    std::ostringstream os;
    for (const FieldDiff &f : cpu) {
        os << f.field << ": " << std::hex << f.a << " vs " << f.b
           << std::dec << "\n";
    }
    if (mem_total > 0) {
        os << mem_total << " memory byte(s) differ, first at:";
        for (u32 addr : mem)
            os << " " << std::hex << addr << std::dec;
        os << "\n";
    }
    return os.str();
}

} // namespace pokeemu::arch
