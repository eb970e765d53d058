#include "explore/state_spec.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "testgen/baseline.h"

namespace pokeemu::explore {

namespace layout = arch::layout;
namespace E = ir::E;
using ir::ExprRef;

namespace {

/** EFLAGS bits marked symbolic (Figure 3): status + DF + IOPL/NT/AC. */
constexpr u32 kEflagsMask = 0x47cd5;
/** CR0 bits marked symbolic: MP EM TS NE WP AM (PE/PG pinned). */
constexpr u32 kCr0Mask = 0x5002e;
/** CR4 bits marked symbolic: TSD DE. */
constexpr u32 kCr4Mask = 0x0c;
/** PDE/PTE flag bits marked symbolic: P RW US A D (pointers pinned). */
constexpr u8 kPteMask = 0x67;

std::string
hex_name(const char *prefix, u32 value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s%08x", prefix, value);
    return buf;
}

} // namespace

StateSpec::StateSpec(const arch::CpuState &baseline_cpu,
                     const symexec::Summary *summary)
    : baseline_cpu_(baseline_cpu),
      baseline_ram_(testgen::baseline_ram_after_init()),
      baseline_image_(layout::kCpuStateSize, 0), summary_(summary)
{
    arch::pack_cpu_state(baseline_cpu_, baseline_image_.data());

    // General-purpose registers: fully symbolic.
    for (unsigned r = 0; r < arch::kNumGprs; ++r) {
        for (unsigned i = 0; i < 4; ++i) {
            add_cpu_byte(layout::kOffGpr + 4 * r + i, 0xff,
                         std::string("gpr_") + arch::gpr_name(r) +
                             "_b" + std::to_string(i));
        }
    }
    // EFLAGS / CR0 / CR4: masked.
    for (unsigned i = 0; i < 4; ++i) {
        const u8 fm = static_cast<u8>(kEflagsMask >> (8 * i));
        if (fm)
            add_cpu_byte(layout::kOffEflags + i, fm,
                         "eflags_b" + std::to_string(i));
        const u8 c0 = static_cast<u8>(kCr0Mask >> (8 * i));
        if (c0)
            add_cpu_byte(layout::kOffCr0 + i, c0,
                         "cr0_b" + std::to_string(i));
        const u8 c4 = static_cast<u8>(kCr4Mask >> (8 * i));
        if (c4)
            add_cpu_byte(layout::kOffCr4 + i, c4,
                         "cr4_b" + std::to_string(i));
    }
    // Sysenter MSRs: fully symbolic.
    const struct { u32 off; const char *name; } msrs[] = {
        {layout::kOffMsrSysenterCs, "msr_cs"},
        {layout::kOffMsrSysenterEsp, "msr_esp"},
        {layout::kOffMsrSysenterEip, "msr_eip"},
    };
    for (const auto &m : msrs) {
        for (unsigned i = 0; i < 4; ++i) {
            add_cpu_byte(m.off + i, 0xff,
                         std::string(m.name) + "_b" +
                             std::to_string(i));
        }
    }

    // GDT entries 2..15: fully symbolic descriptor bytes (entry 0 is
    // the architectural null, entry 1 backs the pinned CS).
    for (unsigned e = 2; e < layout::kGdtEntries; ++e) {
        for (unsigned i = 0; i < 8; ++i) {
            add_ram_byte(baseline_cpu_.gdtr.base + 8 * e + i, 0xff,
                         "gdt" + std::to_string(e) + "_b" +
                             std::to_string(i));
        }
    }

    // Page-directory and page-table flag bits (low byte of each
    // entry); frame pointers stay pinned.
    for (unsigned i = 0; i < 1024; ++i) {
        add_ram_byte(layout::kPhysPageDir + 4 * i, kPteMask,
                     hex_name("pde_", i));
        add_ram_byte(layout::kPhysPageTable + 4 * i, kPteMask,
                     hex_name("pte_", i));
    }

    // Segment caches derived from GDT bytes via the summary.
    if (summary_) {
        for (unsigned s : {arch::kSs, arch::kDs, arch::kEs, arch::kFs,
                           arch::kGs}) {
            summarized_segs_[s] = baseline_cpu_.seg[s].selector >> 3;
        }
    }
}

void
StateSpec::add_cpu_byte(u32 image_off, u8 mask, const std::string &name)
{
    ByteSpec spec;
    spec.mask = mask;
    spec.baseline = static_cast<u8>(baseline_image_[image_off] & ~mask);
    spec.var_name = name;
    spec.location = {VarLocation::Kind::CpuByte, image_off, mask};
    bytes_[layout::kCpuBase + image_off] = spec;
    by_name_[name] = spec.location;
}

void
StateSpec::add_ram_byte(u32 ram_addr, u8 mask, const std::string &name)
{
    ByteSpec spec;
    spec.mask = mask;
    spec.baseline = static_cast<u8>(baseline_ram_[ram_addr] & ~mask);
    spec.var_name = name;
    spec.location = {VarLocation::Kind::RamByte, ram_addr, mask};
    bytes_[layout::kGuestPhysBase + ram_addr] = spec;
    by_name_[name] = spec.location;
}

namespace {

/** The five outputs of the descriptor-load summary for one GDT entry. */
struct CacheExprs
{
    ExprRef base, limit, access, db, fault_class;
};

/**
 * The summary's outputs over the eight descriptor-byte variables of GDT
 * entry @p gdt_index in @p pool.
 *
 * A unit makes 14 such calls for two GDT entries: preconditions and
 * initial_fn, for the explorer's pool and again for the analysis pool,
 * whose variables come out the same because both pools are asked in
 * the same order. Substitution returns interned nodes, so each thread
 * keeps its results keyed by the summary's output nodes and the byte
 * nodes. Interning is per thread, and so is the cache; an entry holds
 * its key's nodes, so no key pointer can be freed and reused.
 */
CacheExprs
instantiate_summary(const symexec::Summary &summary,
                    symexec::VarPool &pool, unsigned gdt_index)
{
    struct Entry
    {
        std::array<ExprRef, 5> outputs;
        std::array<ExprRef, 8> bytes;
        CacheExprs exprs;
    };
    thread_local std::vector<Entry> cache;

    Entry entry;
    std::copy_n(summary.outputs.begin(), entry.outputs.size(),
                entry.outputs.begin());
    for (unsigned i = 0; i < 8; ++i) {
        entry.bytes[i] = pool.get("gdt" + std::to_string(gdt_index) +
                                      "_b" + std::to_string(i),
                                  8);
    }
    for (const Entry &cached : cache) {
        if (cached.outputs == entry.outputs && cached.bytes == entry.bytes)
            return cached.exprs;
    }

    auto instantiate = [&](const ExprRef &tmpl) {
        return ir::substitute(
            tmpl, [&](const ir::Expr &leaf) -> ExprRef {
                if (leaf.kind() != ir::ExprKind::Var)
                    return nullptr;
                const std::string &n = leaf.name();
                if (n.rfind("desc_byte_", 0) == 0)
                    return entry.bytes[n[10] - '0'];
                return nullptr;
            });
    };
    entry.exprs.base = instantiate(entry.outputs[0]);
    entry.exprs.limit = instantiate(entry.outputs[1]);
    entry.exprs.access = instantiate(entry.outputs[2]);
    entry.exprs.db = instantiate(entry.outputs[3]);
    entry.exprs.fault_class = instantiate(entry.outputs[4]);
    cache.push_back(entry);
    return entry.exprs;
}

} // namespace

symexec::InitialByteFn
StateSpec::initial_fn(symexec::VarPool &pool) const
{
    // Precompute the summary-derived segment-cache bytes.
    auto prepared = std::make_shared<std::map<u32, ExprRef>>();
    for (const auto &[seg, gdt_index] : summarized_segs_) {
        const CacheExprs c =
            instantiate_summary(*summary_, pool, gdt_index);
        const ExprRef access_loaded =
            E::bor(c.access, E::constant(8, arch::kDescAccessed));
        for (unsigned i = 0; i < 4; ++i) {
            (*prepared)[layout::seg_addr(seg, layout::kSegBase) + i] =
                E::extract(c.base, 8 * i, 8);
            (*prepared)[layout::seg_addr(seg, layout::kSegLimit) + i] =
                E::extract(c.limit, 8 * i, 8);
        }
        (*prepared)[layout::seg_addr(seg, layout::kSegAccess)] =
            access_loaded;
        (*prepared)[layout::seg_addr(seg, layout::kSegDb)] = c.db;
    }

    // Capture what the lambda needs by value/shared pointer; `this`
    // outlives explorations by construction.
    return [this, &pool, prepared](u32 addr) -> ExprRef {
        auto pit = prepared->find(addr);
        if (pit != prepared->end())
            return pit->second;

        auto sit = bytes_.find(addr);
        if (sit != bytes_.end()) {
            const ByteSpec &spec = sit->second;
            ExprRef var = pool.get(spec.var_name, 8);
            if (spec.mask == 0xff)
                return var;
            return E::bor(E::band(var, E::constant(8, spec.mask)),
                          E::constant(8, spec.baseline));
        }

        // CPU image bytes not in the spec: pinned to baseline.
        if (addr >= layout::kCpuBase &&
            addr < layout::kCpuBase + layout::kCpuStateSize) {
            return E::constant(8,
                               baseline_image_[addr - layout::kCpuBase]);
        }
        // Decoder/semantics scratch: concrete zero.
        if (addr >= layout::kInsnBufBase &&
            addr < layout::kInsnBufBase + 0x100) {
            return E::constant(8, 0);
        }
        if (addr >= layout::kGuestPhysBase &&
            addr < layout::kGuestPhysBase + arch::kPhysMemSize) {
            const u32 ram = addr - layout::kGuestPhysBase;
            // Pinned regions: IDT (per the paper), the descriptor and
            // page tables' non-spec bytes, all code, and the stack
            // page the initializer itself uses.
            const bool pinned =
                (ram >= layout::kPhysIdt &&
                 ram < layout::kPhysIdt + 256 * 8) ||
                (ram >= layout::kPhysPageDir &&
                 ram < layout::kPhysPageTable + 0x1000) ||
                (ram >= layout::kPhysGdt &&
                 ram < layout::kPhysGdt + 8 * layout::kGdtEntries) ||
                (ram >= layout::kPhysHandlerStub &&
                 ram < layout::kPhysHandlerStub + 0x100) ||
                (ram >= layout::kPhysBaselineCode &&
                 ram < layout::kPhysBaselineCode + 0x1000) ||
                (ram >= layout::kPhysTestCode &&
                 ram < layout::kPhysTestCode + 0x1000);
            if (pinned)
                return E::constant(8, baseline_ram_[ram]);
            // Everything else: unused physical memory, symbolic on
            // demand (paper §3.3.1).
            return pool.get(hex_name("mem_", ram), 8);
        }
        return E::constant(8, 0);
    };
}

std::vector<ExprRef>
StateSpec::preconditions(symexec::VarPool &pool) const
{
    std::vector<ExprRef> pre;
    if (!summary_)
        return pre;
    // Each summarized cache must correspond to a loadable descriptor,
    // so the generated initializer's segment reload cannot fault.
    std::map<unsigned, bool> seen;
    for (const auto &[seg, gdt_index] : summarized_segs_) {
        if (seen.count(gdt_index))
            continue;
        seen[gdt_index] = true;
        const CacheExprs c =
            instantiate_summary(*summary_, pool, gdt_index);
        pre.push_back(E::eq(c.fault_class, E::constant(8, 0)));
        // The stack segment additionally needs writable data; the
        // data segments need "not execute-only code" (the reload
        // gadget's rules).
        const ExprRef is_code = E::extract(c.access, 3, 1);
        const ExprRef rw = E::extract(c.access, 1, 1);
        if (seg == arch::kSs) {
            pre.push_back(E::land(E::lnot(is_code), rw));
        } else {
            pre.push_back(
                E::lnot(E::land(is_code, E::lnot(rw))));
        }
    }
    return pre;
}

solver::Assignment
StateSpec::baseline_assignment(const symexec::VarPool &pool) const
{
    solver::Assignment base;
    for (const ExprRef &var : pool.all()) {
        auto loc = locate(var->name());
        if (!loc)
            continue;
        u8 value = 0;
        if (loc->kind == VarLocation::Kind::CpuByte)
            value = baseline_image_[loc->addr];
        else
            value = baseline_ram_[loc->addr];
        base.set(var->var_id(), value);
    }
    return base;
}

std::optional<VarLocation>
StateSpec::locate(const std::string &var_name) const
{
    auto it = by_name_.find(var_name);
    if (it != by_name_.end())
        return it->second;
    if (var_name.rfind("mem_", 0) == 0) {
        const u32 addr = static_cast<u32>(
            std::strtoul(var_name.c_str() + 4, nullptr, 16));
        return VarLocation{VarLocation::Kind::RamByte, addr, 0xff};
    }
    return std::nullopt;
}

std::string
StateSpec::to_string() const
{
    std::ostringstream os;
    os << "symbolic machine state (Figure 3 analog):\n";
    os << "  gpr[eax..edi]      32 bytes, fully symbolic\n";
    os << "  eflags             mask 0x" << std::hex << kEflagsMask
       << " (status, DF, IOPL, NT, AC)\n";
    os << "  cr0                mask 0x" << kCr0Mask
       << " (MP EM TS NE WP AM; PE/PG pinned)\n";
    os << "  cr4                mask 0x" << kCr4Mask << " (TSD DE)\n"
       << std::dec;
    os << "  sysenter msrs      12 bytes, fully symbolic\n";
    os << "  gdt entries 2..15  112 bytes, fully symbolic\n";
    os << "  pde/pte flags      2048 entries, mask 0x67 each\n";
    os << "  segment caches     ss/ds/es/fs/gs derived from GDT bytes"
          " via the descriptor-load summary\n";
    os << "  unused memory      symbolic on demand, one var per byte\n";
    os << "  pinned             eip, cs, selectors, gdtr/idtr, cr3,"
          " table pointers, IF/TF/VM/RF, PE/PG\n";
    os << "  specified bytes    " << specified_bytes() << "\n";
    return os.str();
}

} // namespace pokeemu::explore
