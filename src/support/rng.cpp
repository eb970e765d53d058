#include "support/rng.h"

namespace pokeemu {

namespace {

u64
rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

void
Rng::reseed(u64 seed)
{
    // splitmix64: word i is mix64(seed + i * gamma).
    for (auto &word : state_) {
        word = mix64(seed);
        seed += 0x9e3779b97f4a7c15ULL;
    }
}

u64
Rng::next()
{
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

u64
Rng::below(u64 bound)
{
    assert(bound != 0);
    // Rejection sampling to avoid modulo bias.
    const u64 threshold = (~bound + 1) % bound;
    for (;;) {
        const u64 value = next();
        if (value >= threshold)
            return value % bound;
    }
}

} // namespace pokeemu
