/**
 * @file
 * Guest physical memory as a shared base image plus copies of the
 * pages a run wrote.
 *
 * The paper's harness resets the guest between tests without rebooting
 * and snapshots physical memory after every test (§5). A test writes a
 * handful of the 1,024 pages — its own code page, its stack, the
 * descriptor accessed bits and the page-table A/D bits — so no backend
 * keeps a working copy of memory. GuestRam is copy-on-write over one
 * immutable base image (RamImage):
 *
 *  - Each page is read through a page table that points into the base
 *    until the page is first written; that write copies the page into
 *    a private buffer, and buffers are recycled across resets.
 *  - GuestRam::reset re-points pages instead of copying them: only the
 *    written pages on the same base, all pages on a different one.
 *  - A snapshot (RamView) holds the shared base plus copies of the
 *    written pages.
 *  - diff_snapshots (arch/snapshot.h) compares only the pages either
 *    side wrote when both snapshots share a base.
 *
 * GuestRam exposes its bytes only through read8, read32 and write8,
 * so no write can reach the shared base.
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

    // The page tables point into this object's own buffers.
    GuestRam(const GuestRam &) = delete;
    GuestRam &operator=(const GuestRam &) = delete;

    /**
     * Make memory equal to @p base (kPhysMemSize bytes), then write
     * @p code at @p code_addr (recorded like any guest write).
     */
    void reset(const RamImage &base, u32 code_addr = 0,
               std::span<const u8> code = {});

    /// @name Byte access. Addresses wrap modulo kPhysMemSize, the
    /// wrap rule every backend shares.
    /// @{
    u8
    read8(u32 phys) const
    {
        phys &= kPhysMemSize - 1;
        return read_[phys >> kPageShift][phys & (kPageSize - 1)];
    }

    /** Four bytes at @p phys, little-endian, with one page lookup when
     *  they share a page (page-table walks read these). */
    u32
    read32(u32 phys) const
    {
        phys &= kPhysMemSize - 1;
        const u32 off = phys & (kPageSize - 1);
        if (off > kPageSize - 4) {
            return u32{read8(phys)} | u32{read8(phys + 1)} << 8 |
                   u32{read8(phys + 2)} << 16 | u32{read8(phys + 3)} << 24;
        }
        const u8 *p = read_[phys >> kPageShift] + off;
        return u32{p[0]} | u32{p[1]} << 8 | u32{p[2]} << 16 |
               u32{p[3]} << 24;
    }

    void
    write8(u32 phys, u8 value)
    {
        phys &= kPhysMemSize - 1;
        u8 *page = write_[phys >> kPageShift];
        if (page == nullptr)
            page = copy_page(phys >> kPageShift);
        page[phys & (kPageSize - 1)] = value;
    }
    /// @}

    /** The base plus copies of the written pages, reusing @p out's
     *  buffers. */
    void snapshot_into(RamView &out) const;

  private:
    /** First write to @p page: give it a private copy of its bytes. */
    u8 *copy_page(u32 page);

    RamImage base_;
    /** Per page: its bytes, in the base or in its private copy. */
    std::array<const u8 *, kNumPages> read_{};
    /** Per page: its private copy, null until the page is written. */
    std::array<u8 *, kNumPages> write_{};
    std::vector<u32> pages_; ///< Written, in write order.
    /** Page buffers: pages_[i] is held in buffers_[i]; the rest are
     *  spares kept from earlier runs. */
    std::vector<std::unique_ptr<u8[]>> buffers_;
};

} // namespace pokeemu::arch

#endif // POKEEMU_ARCH_GUEST_RAM_H
