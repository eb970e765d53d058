/**
 * @file
 * Compiled-semantics unit construction and staleness hashing: the
 * parts shared by the generator (tools/semgen) and the tools and tests
 * that check its output. Kept free of references to compiled_table()
 * so semgen itself links against the core library without a generated
 * table; dispatch lives in compiled_dispatch.cpp.
 */
#include "hifi/compiled.h"

#include <stdexcept>

#include "ir/printer.h"

namespace pokeemu::hifi {

bool
compiled_params_ok(arch::Op op)
{
    switch (op) {
      case arch::Op::IntImm8:  // Vector baked into the fault path.
      case arch::Op::JmpFar:   // Builder branches on selector fields.
      case arch::Op::CallFar:
        return false;
      default:
        return true;
    }
}

SemanticsOptions
compiled_build_options(bool params_ok)
{
    SemanticsOptions options;
    options.hifi_far_fetch_order = true; // The seeded Bochs order.
    options.descriptor_summary = nullptr; // Self-contained programs.
    options.opt = analysis::OptMode::On;
    options.generic_params = params_ok;
    return options;
}

std::vector<u8>
variant_encoding(int table_index)
{
    const std::vector<u8> canonical =
        arch::canonical_encoding(table_index);
    arch::DecodedInsn insn;
    if (arch::decode(canonical.data(), canonical.size(), insn) !=
            arch::DecodeStatus::Ok ||
        !insn.has_modrm) {
        return {};
    }
    // Canonical encodings carry no prefixes, so the ModRM byte sits
    // right after the (possibly 0x0f-prefixed) opcode.
    const std::size_t modrm_pos = canonical[0] == 0x0f ? 2 : 1;
    std::vector<u8> bytes(canonical.begin(),
                          canonical.begin() + modrm_pos);
    std::size_t tail = modrm_pos + 1; // Past ModRM (no SIB: rm != 4).
    u8 expect_mod;
    if (insn.mod == 3) {
        // Register canonical -> [disp32] memory variant.
        bytes.push_back(static_cast<u8>((insn.modrm & 0x38) | 0x05));
        bytes.insert(bytes.end(), 4, 0); // disp32 = 0.
        expect_mod = 0;
    } else {
        // [disp32] memory canonical -> register (mod=3, rm=0) variant.
        bytes.push_back(static_cast<u8>(0xc0 | (insn.modrm & 0x38)));
        tail += 4; // Skip the canonical encoding's disp32.
        expect_mod = 3;
    }
    bytes.insert(bytes.end(), canonical.begin() + tail,
                 canonical.end()); // Immediate bytes, if any.
    arch::DecodedInsn variant;
    if (arch::decode(bytes.data(), bytes.size(), variant) !=
            arch::DecodeStatus::Ok ||
        variant.table_index != table_index ||
        variant.mod != expect_mod || variant.has_sib) {
        return {};
    }
    return bytes;
}

std::vector<CompiledUnit>
build_compiled_units()
{
    std::vector<CompiledUnit> units;
    const auto &table = arch::insn_table();
    units.reserve(table.size() * 2);
    for (std::size_t i = 0; i < table.size(); ++i) {
        const int index = static_cast<int>(i);
        const std::vector<u8> canonical = arch::canonical_encoding(index);
        arch::DecodedInsn insn;
        if (arch::decode(canonical.data(), canonical.size(), insn) !=
                arch::DecodeStatus::Ok ||
            insn.table_index != index) {
            throw std::logic_error(
                "compiled units: canonical encoding failed to decode");
        }
        CompiledUnit unit;
        unit.insn = insn;
        unit.params_ok = compiled_params_ok(insn.desc->op);
        unit.program =
            build_semantics(insn, compiled_build_options(unit.params_ok));
        units.push_back(std::move(unit));

        const std::vector<u8> mem = variant_encoding(index);
        if (mem.empty())
            continue;
        arch::DecodedInsn minsn;
        if (arch::decode(mem.data(), mem.size(), minsn) !=
            arch::DecodeStatus::Ok) {
            continue;
        }
        CompiledUnit mu;
        mu.insn = minsn;
        mu.params_ok = compiled_params_ok(minsn.desc->op);
        mu.program =
            build_semantics(minsn, compiled_build_options(mu.params_ok));
        mu.variant = true;
        units.push_back(std::move(mu));
    }
    return units;
}

const std::vector<CompiledUnit> &
compiled_units()
{
    static const std::vector<CompiledUnit> units = build_compiled_units();
    return units;
}

namespace {

constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;

void
hash_bytes(u64 &h, const void *data, std::size_t n)
{
    const u8 *p = static_cast<const u8 *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void
hash_u64(u64 &h, u64 v)
{
    hash_bytes(h, &v, sizeof v);
}

u64
compute_expected_hash()
{
    u64 h = kFnvOffset;
    const auto &units = compiled_units();
    hash_u64(h, units.size());
    for (const CompiledUnit &unit : units) {
        hash_u64(h, static_cast<u64>(unit.insn.table_index));
        hash_bytes(h, unit.insn.bytes, unit.insn.length);
        hash_u64(h, unit.params_ok);
        hash_u64(h, unit.variant);
        const std::string text = ir::to_string(unit.program);
        hash_u64(h, text.size());
        hash_bytes(h, text.data(), text.size());
        // Fold the derived cycle cost so a change to the derivation
        // rules (timing/cost_model.h) stales the emitted cost table
        // exactly like a semantics change stales the handlers.
        const timing::UnitCost cost = timing::derive_cost(unit.program);
        hash_u64(h, cost.base);
        hash_u64(h, cost.mem_accesses);
        hash_u64(h, cost.fault_extra);
    }
    return h;
}

} // namespace

u64
compiled_expected_hash()
{
    // Deriving the hash rebuilds and prints every unit's program, so
    // it is computed once per process.
    static const u64 hash = compute_expected_hash();
    return hash;
}

// ---------------------------------------------------------------------
// ReplayMemory.
// ---------------------------------------------------------------------

void
ReplayMemory::reset(u64 seed)
{
    seed_ = seed;
    overlay_.clear();
    journal_.clear();
}

u32
ReplayMemory::map_byte(u32 addr, unsigned i) const
{
    namespace layout = arch::layout;
    // Mirrors HiFiEmulator::load/store: guest physical accesses wrap
    // modulo the memory size per byte; other regions are flat.
    u32 a = addr + i;
    if (addr >= layout::kGuestPhysBase) {
        a = layout::kGuestPhysBase +
            ((addr - layout::kGuestPhysBase + i) &
             (arch::kPhysMemSize - 1));
    }
    const bool mapped =
        (a >= layout::kCpuBase &&
         a < layout::kCpuBase + layout::kCpuStateSize) ||
        (a >= layout::kInsnBufBase && a < layout::kInsnBufBase + 0x100) ||
        (a >= layout::kGuestPhysBase &&
         a < layout::kGuestPhysBase + arch::kPhysMemSize);
    if (!mapped)
        throw std::out_of_range("ReplayMemory: access outside regions");
    return a;
}

u8
ReplayMemory::byte_at(u32 mapped) const
{
    const auto it = overlay_.find(mapped);
    if (it != overlay_.end())
        return it->second;
    // splitmix64 over (seed, address): deterministic background
    // pattern without materializing the address space.
    u64 z = seed_ + 0x9e3779b97f4a7c15ull * (mapped + 1ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<u8>(z ^ (z >> 31));
}

u64
ReplayMemory::load(u32 addr, unsigned size)
{
    u64 v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<u64>(byte_at(map_byte(addr, i))) << (8 * i);
    return v;
}

void
ReplayMemory::store(u32 addr, unsigned size, u64 value)
{
    journal_.push_back({addr, size, value});
    for (unsigned i = 0; i < size; ++i) {
        overlay_[map_byte(addr, i)] =
            static_cast<u8>(value >> (8 * i));
    }
}

void
ReplayMemory::poke(u32 addr, unsigned size, u64 value)
{
    for (unsigned i = 0; i < size; ++i) {
        overlay_[map_byte(addr, i)] =
            static_cast<u8>(value >> (8 * i));
    }
}

} // namespace pokeemu::hifi
