/**
 * @file
 * Guest physical memory as a shared base image plus the pages a run
 * wrote.
 *
 * The paper's harness resets the guest between tests without rebooting
 * and snapshots physical memory after every test (§5). A test writes a
 * handful of the 1,024 pages — its own code page, its stack, the
 * descriptor accessed bits and the page-table A/D bits — so every
 * backend runs on a private working copy of one immutable base image
 * (RamImage) and records which pages it wrote:
 *
 *  - GuestRam::reset onto the same base copies back only the written
 *    pages; a different base costs one full copy.
 *  - A snapshot (RamView) holds the shared base plus copies of the
 *    written pages.
 *  - diff_snapshots (arch/snapshot.h) compares only the pages either
 *    side wrote when both snapshots share a base.
 *
 * GuestRam exposes its bytes only through read8/write8, so no write
 * can skip the record.
 */
#ifndef POKEEMU_ARCH_GUEST_RAM_H
#define POKEEMU_ARCH_GUEST_RAM_H

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "arch/state.h"

namespace pokeemu::arch {

/** A shared, immutable physical-memory image. */
using RamImage = std::shared_ptr<const std::vector<u8>>;

/** Wrap @p bytes as a RamImage. */
RamImage make_ram_image(std::vector<u8> bytes);

constexpr u32 kPageShift = 12;
constexpr u32 kPageSize = 1u << kPageShift;
constexpr u32 kNumPages = kPhysMemSize >> kPageShift;

/**
 * Read-only physical memory of a snapshot: the base image with copies
 * of the pages the run wrote laid over it.
 */
class RamView
{
  public:
    RamView() = default;

    /** All of @p base, no page written. */
    explicit RamView(RamImage base) : base_(std::move(base)) {}

    /** Image size in bytes (kPhysMemSize from every sound backend). */
    std::size_t size() const { return base_ ? base_->size() : 0; }

    u8 operator[](std::size_t addr) const;

    /** The whole image as one buffer. */
    std::vector<u8> to_bytes() const;

    const RamImage &base() const { return base_; }

    /** Numbers of the written pages, ascending. */
    const std::vector<u32> &pages() const { return pages_; }

    /** The kPageSize bytes of page pages()[i]. */
    const u8 *
    page_data(std::size_t i) const
    {
        return bytes_.data() + i * kPageSize;
    }

  private:
    friend class GuestRam;

    RamImage base_;
    std::vector<u32> pages_;
    std::vector<u8> bytes_; ///< pages_.size() pages, in pages_ order.
};

/** A backend's guest physical memory (see file comment). */
class GuestRam
{
  public:
    GuestRam(); ///< All zero.

    /**
     * Make memory equal to @p base (kPhysMemSize bytes), then write
     * @p code at @p code_addr (recorded like any guest write).
     */
    void reset(const RamImage &base, u32 code_addr = 0,
               std::span<const u8> code = {});

    /// @name Byte access. Addresses wrap modulo kPhysMemSize, the
    /// wrap rule every backend shares.
    /// @{
    u8 read8(u32 phys) const { return mem_[phys & (kPhysMemSize - 1)]; }

    void
    write8(u32 phys, u8 value)
    {
        phys &= kPhysMemSize - 1;
        const u32 page = phys >> kPageShift;
        if (!written_[page]) {
            written_[page] = true;
            pages_.push_back(page);
        }
        mem_[phys] = value;
    }
    /// @}

    /** The base plus copies of the written pages, reusing @p out's
     *  buffers. */
    void snapshot_into(RamView &out) const;

  private:
    RamImage base_;
    std::vector<u8> mem_;                   ///< Working copy.
    std::array<bool, kNumPages> written_{}; ///< Per page.
    std::vector<u32> pages_;                ///< Written, in write order.
};

} // namespace pokeemu::arch

#endif // POKEEMU_ARCH_GUEST_RAM_H
