#include "arch/guest_ram.h"

#include <algorithm>
#include <cstring>

namespace pokeemu::arch {

RamImage
make_ram_image(std::vector<u8> bytes)
{
    return std::make_shared<const std::vector<u8>>(std::move(bytes));
}

u8
RamView::operator[](std::size_t addr) const
{
    assert(addr < size());
    const u32 page = static_cast<u32>(addr >> kPageShift);
    const auto it = std::lower_bound(pages_.begin(), pages_.end(), page);
    if (it == pages_.end() || *it != page)
        return (*base_)[addr];
    return page_data(it - pages_.begin())[addr & (kPageSize - 1)];
}

std::vector<u8>
RamView::to_bytes() const
{
    if (!base_)
        return {};
    std::vector<u8> bytes = *base_;
    for (std::size_t i = 0; i < pages_.size(); ++i) {
        std::memcpy(bytes.data() + (std::size_t{pages_[i]} << kPageShift),
                    page_data(i), kPageSize);
    }
    return bytes;
}

GuestRam::GuestRam()
{
    static const RamImage zeros =
        make_ram_image(std::vector<u8>(kPhysMemSize, 0));
    base_ = zeros;
    mem_ = *zeros;
}

void
GuestRam::reset(const RamImage &base, u32 code_addr,
                std::span<const u8> code)
{
    if (!base || base->size() != kPhysMemSize)
        panic("GuestRam: base image is not kPhysMemSize bytes");
    if (base == base_) {
        for (u32 page : pages_) {
            const std::size_t off = std::size_t{page} << kPageShift;
            std::memcpy(mem_.data() + off, base->data() + off, kPageSize);
        }
    } else {
        std::memcpy(mem_.data(), base->data(), kPhysMemSize);
        base_ = base;
    }
    for (u32 page : pages_)
        written_[page] = false;
    pages_.clear();
    for (std::size_t i = 0; i < code.size(); ++i)
        write8(code_addr + static_cast<u32>(i), code[i]);
}

void
GuestRam::snapshot_into(RamView &out) const
{
    out.base_ = base_;
    out.pages_.assign(pages_.begin(), pages_.end());
    std::sort(out.pages_.begin(), out.pages_.end());
    out.bytes_.resize(out.pages_.size() * kPageSize);
    for (std::size_t i = 0; i < out.pages_.size(); ++i) {
        std::memcpy(out.bytes_.data() + i * kPageSize,
                    mem_.data() + (std::size_t{out.pages_[i]} << kPageShift),
                    kPageSize);
    }
}

} // namespace pokeemu::arch
