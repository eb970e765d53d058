#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

pokeemu::test::AllocCount counted;

void *
counted_alloc(std::size_t n)
{
    ++counted.calls;
    counted.bytes += n;
    return std::malloc(n ? n : 1);
}

} // namespace

namespace pokeemu::test {

AllocCount
alloc_count()
{
    return counted;
}

} // namespace pokeemu::test

void *
operator new(std::size_t n)
{
    if (void *p = counted_alloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return counted_alloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return counted_alloc(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
