#include "testgen/testgen.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "arch/assembler.h"

namespace pokeemu::testgen {

namespace layout = arch::layout;

namespace {

/**
 * One initializer gadget: an emitter plus dependency metadata
 * (paper §4.2: "an assembly-language instruction sequence ... plus
 * additional constraints specifying its prerequisites and side
 * effects").
 */
struct Gadget
{
    std::string name;
    /** Tags this gadget must run after (dependency edges by tag). */
    std::vector<std::string> after;
    /** Tag(s) this gadget provides. */
    std::string tag;
    std::function<void(arch::Assembler &, std::vector<std::string> &)>
        emit;
};

/** Kahn topological sort; returns false on a cycle. */
bool
topo_sort(std::vector<Gadget> &gadgets)
{
    std::map<std::string, std::vector<std::size_t>> by_tag;
    for (std::size_t i = 0; i < gadgets.size(); ++i)
        by_tag[gadgets[i].tag].push_back(i);

    const std::size_t n = gadgets.size();
    std::vector<std::set<std::size_t>> edges(n); // pred -> succ
    std::vector<std::size_t> indegree(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::string &dep : gadgets[i].after) {
            auto it = by_tag.find(dep);
            if (it == by_tag.end())
                continue;
            for (std::size_t p : it->second) {
                if (p != i && edges[p].insert(i).second)
                    ++indegree[i];
            }
        }
    }
    // Stable Kahn: lowest original index first, preserving the
    // natural emission order among independent gadgets.
    std::vector<std::size_t> order;
    std::set<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i) {
        if (indegree[i] == 0)
            ready.insert(i);
    }
    while (!ready.empty()) {
        const std::size_t i = *ready.begin();
        ready.erase(ready.begin());
        order.push_back(i);
        for (std::size_t s : edges[i]) {
            if (--indegree[s] == 0)
                ready.insert(s);
        }
    }
    if (order.size() != n)
        return false;
    std::vector<Gadget> sorted;
    sorted.reserve(n);
    for (std::size_t i : order)
        sorted.push_back(std::move(gadgets[i]));
    gadgets = std::move(sorted);
    return true;
}

std::string
hex32(u32 v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", v);
    return buf;
}

} // namespace

std::string
TestProgram::to_string() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < listing.size(); ++i)
        os << (i + 1) << "  " << listing[i] << "\n";
    return os.str();
}

GenResult
generate_test_program(const arch::DecodedInsn &insn,
                      const solver::Assignment &assignment,
                      const explore::StateSpec &spec,
                      const symexec::VarPool &pool)
{
    return generate_sequence_test_program({insn}, assignment, spec,
                                          pool);
}

GenResult
generate_sequence_test_program(
    const std::vector<arch::DecodedInsn> &insns,
    const solver::Assignment &assignment,
    const explore::StateSpec &spec, const symexec::VarPool &pool)
{
    const arch::CpuState &base_cpu = spec.baseline_cpu();
    const arch::RamView &base_ram = spec.baseline_ram();

    // ------------------------------------------------------------
    // Resolve the assignment into byte-level differences.
    // ------------------------------------------------------------
    u8 base_image[layout::kCpuStateSize];
    arch::pack_cpu_state(base_cpu, base_image);

    std::map<u32, u8> cpu_bytes; // image offset -> test value.
    std::map<u32, u8> ram_bytes; // physical address -> test value.
    for (const ir::ExprRef &var : pool.all()) {
        const auto loc = spec.locate(var->name());
        if (!loc)
            continue;
        const u8 raw = static_cast<u8>(assignment.get(var->var_id()));
        if (loc->kind == explore::VarLocation::Kind::CpuByte) {
            const u8 value =
                static_cast<u8>((raw & loc->mask) |
                                (base_image[loc->addr] & ~loc->mask));
            if (value != base_image[loc->addr])
                cpu_bytes[loc->addr] = value;
        } else {
            const u8 value =
                static_cast<u8>((raw & loc->mask) |
                                (base_ram[loc->addr] & ~loc->mask));
            if (value != base_ram[loc->addr])
                ram_bytes[loc->addr] = value;
        }
    }

    // Reassemble 32-bit CPU fields from (possibly partial) byte diffs.
    auto field32 = [&](u32 off, bool &differs) -> u32 {
        u32 v = 0;
        differs = false;
        for (unsigned i = 0; i < 4; ++i) {
            auto it = cpu_bytes.find(off + i);
            const u8 byte =
                it != cpu_bytes.end() ? it->second : base_image[off + i];
            differs |= it != cpu_bytes.end();
            v |= static_cast<u32>(byte) << (8 * i);
        }
        return v;
    };

    // ------------------------------------------------------------
    // Instantiate gadgets (paper §4.2).
    // ------------------------------------------------------------
    std::vector<Gadget> gadgets;
    bool eax_clobbered = false;
    bool ecx_clobbered = false;

    // EFLAGS: must run while the baseline stack is intact.
    {
        bool differs;
        const u32 value = field32(layout::kOffEflags, differs);
        if (differs) {
            gadgets.push_back(
                {"eflags",
                 {},
                 "flags",
                 [value](arch::Assembler &a,
                         std::vector<std::string> &lst) {
                     a.push_imm32(value);
                     a.popfd();
                     lst.push_back("push $" + hex32(value) +
                                   " ; popfd        // eflags");
                 }});
        }
    }

    // Plain memory writes (not page tables): need the baseline DS and
    // page mapping, so they precede segment reloads and PTE pokes.
    std::map<u32, u8> pte_writes;
    std::set<unsigned> touched_gdt_entries;
    for (const auto &[addr, value] : ram_bytes) {
        const bool is_pt =
            addr >= layout::kPhysPageDir &&
            addr < layout::kPhysPageTable + 0x1000;
        if (is_pt) {
            pte_writes[addr] = value;
            continue;
        }
        if (addr >= layout::kPhysGdt &&
            addr < layout::kPhysGdt + 8 * layout::kGdtEntries) {
            touched_gdt_entries.insert((addr - layout::kPhysGdt) / 8);
        }
        gadgets.push_back(
            {"mem write " + hex32(addr),
             {"flags"},
             "mem",
             [addr = addr, value = value](
                 arch::Assembler &a, std::vector<std::string> &lst) {
                 a.mov_mem_imm8(addr, value);
                 char buf[64];
                 std::snprintf(buf, sizeof buf, "movb $0x%02x, %s",
                               value, hex32(addr).c_str());
                 lst.push_back(buf);
             }});
    }

    // MSR writes: clobber ECX and EAX.
    {
        const struct { u32 off; u32 index; const char *name; } msrs[] = {
            {layout::kOffMsrSysenterCs, 0x174, "sysenter_cs"},
            {layout::kOffMsrSysenterEsp, 0x175, "sysenter_esp"},
            {layout::kOffMsrSysenterEip, 0x176, "sysenter_eip"},
        };
        for (const auto &m : msrs) {
            bool differs;
            const u32 value = field32(m.off, differs);
            if (!differs)
                continue;
            eax_clobbered = true;
            ecx_clobbered = true;
            const u32 index = m.index;
            gadgets.push_back(
                {std::string("msr ") + m.name,
                 {"flags", "mem"},
                 "msr",
                 [index, value](arch::Assembler &a,
                                std::vector<std::string> &lst) {
                     a.mov_r32_imm32(arch::kEcx, index);
                     a.mov_r32_imm32(arch::kEax, value);
                     a.wrmsr();
                     lst.push_back("wrmsr " + hex32(index) + " <- " +
                                   hex32(value));
                 }});
        }
    }

    // Control registers (CR0/CR4): clobber EAX.
    {
        const struct { u32 off; unsigned crn; } crs[] = {
            {layout::kOffCr0, 0},
            {layout::kOffCr4, 4},
        };
        for (const auto &cr : crs) {
            bool differs;
            const u32 value = field32(cr.off, differs);
            if (!differs)
                continue;
            eax_clobbered = true;
            const unsigned crn = cr.crn;
            gadgets.push_back(
                {"cr" + std::to_string(crn),
                 {"flags", "mem"},
                 "cr",
                 [crn, value](arch::Assembler &a,
                              std::vector<std::string> &lst) {
                     a.mov_r32_imm32(arch::kEax, value);
                     a.mov_cr_r32(crn, arch::kEax);
                     lst.push_back("mov cr" + std::to_string(crn) +
                                   " <- " + hex32(value));
                 }});
        }
    }

    // Segment reloads: any segment whose backing GDT entry was edited
    // must be reloaded so the hidden cache picks up the new descriptor
    // (the paper's "lines 2 and 3 require lines 4 and 5").
    {
        std::set<unsigned> reload;
        for (unsigned s : {arch::kDs, arch::kEs, arch::kFs, arch::kGs,
                           arch::kSs}) {
            const unsigned entry = base_cpu.seg[s].selector >> 3;
            if (touched_gdt_entries.count(entry))
                reload.insert(s);
        }
        for (unsigned s : reload) {
            eax_clobbered = true;
            const u16 selector = base_cpu.seg[s].selector;
            const auto seg = static_cast<arch::Seg>(s);
            gadgets.push_back(
                {std::string("reload ") + arch::seg_name(s),
                 {"mem", "flags", "pte"},
                 "sreg",
                 [selector, seg](arch::Assembler &a,
                                 std::vector<std::string> &lst) {
                     a.mov_r32_imm32(arch::kEax, selector);
                     a.mov_sreg_r16(seg, arch::kEax);
                     lst.push_back(
                         std::string("mov ") + arch::seg_name(seg) +
                         ", " + hex32(selector) +
                         "   // force descriptor reload");
                 }});
        }
    }

    // Page-table pokes: after everything that relies on the baseline
    // mapping (memory writes, the eflags stack push) but before the
    // segment reloads — the pokes are DS-relative, so they must run
    // while DS still has the baseline flat descriptor, and a reload
    // reads its descriptor physically (never through paging), so it
    // cannot be hurt by a poke that unmaps low memory. Descending
    // address order, because the pokes themselves go through the
    // identity mapping: page-table bytes (0x2xxx) must land before a
    // page-directory byte (0x1xxx) can unmap the low 4 MiB, and PDE0's
    // present-bit byte (the lowest address of all) must land last.
    for (auto it = pte_writes.rbegin(); it != pte_writes.rend(); ++it) {
        const auto &[addr, value] = *it;
        gadgets.push_back(
            {"pte write " + hex32(addr),
             {"flags", "mem"},
             "pte",
             [addr = addr, value = value](arch::Assembler &a,
                           std::vector<std::string> &lst) {
                 a.mov_mem_imm8(addr, value);
                 char buf[64];
                 std::snprintf(buf, sizeof buf, "movb $0x%02x, %s (pte)",
                               value, hex32(addr).c_str());
                 lst.push_back(buf);
             }});
    }

    // General-purpose registers: everything but EAX, then EAX last
    // (the paper's "restore killed %eax").
    {
        for (unsigned r = 0; r < arch::kNumGprs; ++r) {
            if (r == arch::kEax)
                continue;
            bool differs;
            const u32 value = field32(layout::kOffGpr + 4 * r, differs);
            const bool clobbered = r == arch::kEcx && ecx_clobbered;
            if (!differs && !clobbered)
                continue;
            const auto reg = static_cast<arch::Gpr>(r);
            gadgets.push_back(
                {std::string("set ") + arch::gpr_name(r),
                 {"flags", "mem", "msr", "cr", "sreg", "pte"},
                 "gpr",
                 [reg, value](arch::Assembler &a,
                              std::vector<std::string> &lst) {
                     a.mov_r32_imm32(reg, value);
                     lst.push_back(std::string("mov ") +
                                   arch::gpr_name(reg) + ", " +
                                   hex32(value));
                 }});
        }
        bool differs;
        const u32 eax = field32(layout::kOffGpr + 4 * arch::kEax,
                                differs);
        if (differs || eax_clobbered) {
            gadgets.push_back(
                {"set eax",
                 {"flags", "mem", "msr", "cr", "sreg", "pte", "gpr"},
                 "eax",
                 [eax](arch::Assembler &a,
                       std::vector<std::string> &lst) {
                     a.mov_r32_imm32(arch::kEax, eax);
                     lst.push_back("mov eax, " + hex32(eax) +
                                   "   // restore killed eax");
                 }});
        }
    }

    GenResult result;
    if (!topo_sort(gadgets)) {
        result.status = GenStatus::CyclicDependency;
        return result;
    }

    // ------------------------------------------------------------
    // Assemble: gadgets, then the test instruction, then hlt.
    // ------------------------------------------------------------
    arch::Assembler a(layout::kPhysTestCode);
    for (const Gadget &g : gadgets)
        g.emit(a, result.program.listing);
    result.program.gadget_count = static_cast<u32>(gadgets.size());
    result.program.test_insn_offset =
        a.pc() - layout::kPhysTestCode;
    for (const arch::DecodedInsn &insn : insns) {
        std::vector<u8> bytes(insn.bytes, insn.bytes + insn.length);
        a.append(bytes);
        result.program.listing.push_back(
            arch::to_string(insn) + "   // the test instruction");
    }
    a.hlt();
    result.program.listing.push_back("hlt   // the end");
    result.program.code = a.bytes();

    if (result.program.code.size() > kMaxTestProgramBytes) {
        result.status = GenStatus::TooLarge;
        return result;
    }
    return result;
}

} // namespace pokeemu::testgen
