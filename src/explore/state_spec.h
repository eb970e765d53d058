/**
 * @file
 * The symbolic machine-state specification — the reproduction of the
 * paper's Figure 3.
 *
 * The spec decides, bit by bit, which parts of the machine state the
 * exploration treats as symbolic (paper §3.3.1):
 *  - all general-purpose registers;
 *  - the EFLAGS status bits, DF, IOPL, NT and AC (IF/TF/VM/RF pinned);
 *  - CR0's MP/EM/TS/NE/WP/AM bits (PE and PG pinned to 1: 32-bit
 *    protected mode with paging is the test target);
 *  - CR4's low feature bits;
 *  - the sysenter MSRs;
 *  - the GDT descriptor bytes of the data/stack segments — the hidden
 *    segment caches are *derived* from those bytes through the
 *    descriptor-load summary (paper §3.3.2), with a loadability
 *    precondition so every explored state is reachable by the test
 *    initializer (paper §3.4's motivation);
 *  - the flag bits of every page-table entry (frame pointers pinned);
 *  - all otherwise-unused physical memory, one fresh variable per
 *    byte, created on demand.
 * Everything else (EIP, CS, selectors, table bases, CR3) is pinned to
 * the baseline, exactly like the paper pins pointers and mode bits.
 */
#ifndef POKEEMU_EXPLORE_STATE_SPEC_H
#define POKEEMU_EXPLORE_STATE_SPEC_H

#include <map>
#include <optional>

#include "arch/guest_ram.h"
#include "arch/layout.h"
#include "arch/state.h"
#include "symexec/explorer.h"
#include "symexec/summarize.h"

namespace pokeemu::explore {

/** Where a symbolic variable lives in the real machine. */
struct VarLocation
{
    enum class Kind : u8 {
        CpuByte,  ///< Byte offset into the packed CPU state image.
        RamByte,  ///< Guest physical memory address.
    };
    Kind kind;
    u32 addr;
    u8 mask; ///< Bits of the byte this variable controls.
};

/** See file comment. */
class StateSpec
{
  public:
    /**
     * Build the Figure-3 spec over @p baseline_cpu and the process-wide
     * post-initializer memory (testgen::baseline_ram_after_init, read
     * in place, not copied). @p summary is the descriptor-load summary
     * used to derive segment caches; may be null to inline nothing
     * (the caches are then pinned concrete — used by ablations).
     */
    StateSpec(const arch::CpuState &baseline_cpu,
              const symexec::Summary *summary);

    /**
     * Initial-contents policy for a PathExplorer. Creates variables in
     * @p pool on demand; deterministic by address.
     */
    symexec::InitialByteFn initial_fn(symexec::VarPool &pool) const;

    /**
     * Preconditions to install in the ExplorerConfig: one
     * "descriptor loadable" constraint per summarized segment cache.
     * Valid after initial_fn(pool) has been requested (the constraints
     * reference pool variables).
     */
    std::vector<ir::ExprRef>
    preconditions(symexec::VarPool &pool) const;

    /** Baseline values for minimization (var id -> baseline bits). */
    solver::Assignment baseline_assignment(
        const symexec::VarPool &pool) const;

    /** Map a variable (by name) to its machine location. */
    std::optional<VarLocation>
    locate(const std::string &var_name) const;

    /** Total specified symbolic bytes (the paper's "~400 bytes"). */
    std::size_t specified_bytes() const { return bytes_.size(); }

    /** Render the spec as a Figure-3-style bit map (for the bench). */
    std::string to_string() const;

    const arch::CpuState &baseline_cpu() const { return baseline_cpu_; }
    const arch::RamView &baseline_ram() const { return baseline_ram_; }

  private:
    struct ByteSpec
    {
        u8 mask;      ///< Symbolic bits.
        u8 baseline;  ///< Concrete value of the pinned bits.
        std::string var_name;
        VarLocation location;
    };

    void add_cpu_byte(u32 image_off, u8 mask, const std::string &name);
    void add_ram_byte(u32 ram_addr, u8 mask, const std::string &name);

    arch::CpuState baseline_cpu_;
    const arch::RamView &baseline_ram_;
    std::vector<u8> baseline_image_;
    const symexec::Summary *summary_;
    /** Keyed by IR address. */
    std::map<u32, ByteSpec> bytes_;
    std::map<std::string, VarLocation> by_name_;
    /** Segments whose caches are summary-derived: seg -> GDT index. */
    std::map<unsigned, unsigned> summarized_segs_;
};

} // namespace pokeemu::explore

#endif // POKEEMU_EXPLORE_STATE_SPEC_H
