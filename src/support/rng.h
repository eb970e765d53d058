/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Exploration in the paper makes random choices (which unexplored subtree
 * of the decision tree to enter, which concrete index to pick for a large
 * table). For reproducible experiments every random choice in PokeEMU
 * flows through a seeded Rng instance.
 */
#ifndef POKEEMU_SUPPORT_RNG_H
#define POKEEMU_SUPPORT_RNG_H

#include "support/common.h"

namespace pokeemu {

/** splitmix64 finalizer, the one 64->64 mixer: Rng seeding, the
 *  options and campaign fingerprints, the solver memo's key hash and
 *  the chaos streams all use it, so changing it moves every one. */
constexpr u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seedable xoshiro256** generator with convenience range helpers. */
class Rng
{
  public:
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initialize the state from a single 64-bit seed (splitmix64). */
    void reseed(u64 seed);

    /** Next raw 64-bit value. */
    u64 next();

    /** Uniform value in [0, bound); bound must be nonzero. */
    u64 below(u64 bound);

    /** Uniform boolean. */
    bool flip() { return (next() & 1) != 0; }

  private:
    u64 state_[4];
};

} // namespace pokeemu

#endif // POKEEMU_SUPPORT_RNG_H
