/**
 * @file
 * Final-state snapshots and their comparison.
 *
 * After a test program halts (or faults), every backend produces a
 * Snapshot of the CPU state and the full physical memory (paper §5:
 * "we generate a snapshot of the state of the CPU and of the physical
 * memory", with a common file format to simplify comparison — here the
 * common format is this struct). Memory is a RamView: the shared base
 * image plus copies of the pages the run wrote (arch/guest_ram.h).
 * diff_snapshots is the core of the difference-analysis step (paper
 * Figure 1(5)).
 */
#ifndef POKEEMU_ARCH_SNAPSHOT_H
#define POKEEMU_ARCH_SNAPSHOT_H

#include <string>
#include <vector>

#include "arch/guest_ram.h"
#include "arch/state.h"

namespace pokeemu::arch {

/** CPU + physical memory at the end of a test run. */
struct Snapshot
{
    CpuState cpu;
    RamView ram; ///< kPhysMemSize bytes.
    /** Cycles charged over the run (timing/cost_model.h); 0 when the
     *  backend ran without cycle accounting. Deliberately ignored by
     *  diff_snapshots: timing is its own difference class
     *  (TimingDivergence), compared by the harness only on runs whose
     *  architectural state already agrees. */
    u64 cycles = 0;
};

/** One differing CPU field. */
struct FieldDiff
{
    std::string field; ///< e.g. "eax", "eflags", "seg.ss.limit".
    u64 a = 0;
    u64 b = 0;
};

/** Result of comparing two snapshots. */
struct SnapshotDiff
{
    std::vector<FieldDiff> cpu;
    /** Differing memory byte addresses (capped at kMaxMemDiffs). */
    std::vector<u32> mem;
    u64 mem_total = 0; ///< Total differing bytes (not capped).

    static constexpr std::size_t kMaxMemDiffs = 64;

    bool empty() const { return cpu.empty() && mem_total == 0; }

    std::string to_string() const;
};

/**
 * Field-by-field and byte-by-byte comparison. When both memories share
 * a base image only the pages either side wrote are compared, since
 * every other page equals the base in both; otherwise both images are
 * materialized and scanned whole. Either way the result is the same.
 */
SnapshotDiff diff_snapshots(const Snapshot &a, const Snapshot &b);

} // namespace pokeemu::arch

#endif // POKEEMU_ARCH_SNAPSHOT_H
