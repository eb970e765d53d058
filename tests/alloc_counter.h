/**
 * @file
 * A counting global operator new for the allocation gates. Linking
 * alloc_counter.cpp into an executable replaces the allocator with one
 * that counts calls and bytes. A counter, not a timer, so a gate's
 * result does not depend on the host. The sanitizers replace the
 * allocator too, so the gates are built without them only.
 */
#ifndef POKEEMU_TESTS_ALLOC_COUNTER_H
#define POKEEMU_TESTS_ALLOC_COUNTER_H

#include <cstddef>

namespace pokeemu::test {

/** Allocations made so far in the process (not thread-safe: the
 *  gates run on one thread). */
struct AllocCount
{
    long calls = 0;
    std::size_t bytes = 0;
};

AllocCount alloc_count();

} // namespace pokeemu::test

#endif // POKEEMU_TESTS_ALLOC_COUNTER_H
