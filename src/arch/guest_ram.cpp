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
    reset(zeros);
}

void
GuestRam::reset(const RamImage &base, u32 code_addr,
                std::span<const u8> code)
{
    if (!base || base->size() != kPhysMemSize)
        panic("GuestRam: base image is not kPhysMemSize bytes");
    const auto repoint = [&](u32 page) {
        read_[page] = base->data() + (std::size_t{page} << kPageShift);
        write_[page] = nullptr;
    };
    if (base == base_) {
        for (u32 page : pages_)
            repoint(page);
    } else {
        base_ = base;
        for (u32 page = 0; page < kNumPages; ++page)
            repoint(page);
    }
    pages_.clear();
    for (std::size_t i = 0; i < code.size(); ++i)
        write8(code_addr + static_cast<u32>(i), code[i]);
}

u8 *
GuestRam::copy_page(u32 page)
{
    if (pages_.size() == buffers_.size())
        buffers_.push_back(std::make_unique_for_overwrite<u8[]>(kPageSize));
    u8 *copy = buffers_[pages_.size()].get();
    std::memcpy(copy, read_[page], kPageSize);
    pages_.push_back(page);
    read_[page] = copy;
    write_[page] = copy;
    return copy;
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
                    write_[out.pages_[i]], kPageSize);
    }
}

} // namespace pokeemu::arch
