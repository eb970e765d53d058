/**
 * @file
 * Solver-query memoization (the Empc observation: the symbolic-
 * execution hot loop is dominated by redundant path-condition solver
 * work that is memoizable across paths of one instruction).
 *
 * The explorer re-executes from the program entry for every path
 * (§3.1.2 re-execution instead of state forking), so sibling paths
 * re-submit feasibility queries over shared path-condition prefixes:
 * every descent into the non-model branch direction needs a witnessing
 * model for `prefix ∧ polarity` even when an earlier run already
 * solved exactly that conjunction. QueryMemo answers those in two
 * tiers:
 *
 *  1. Exact: verdict and, for Sat, the satisfying assignment over the
 *     query's variables, keyed by the conjunction's set of interned
 *     conjuncts — a re-submitted conjunction becomes a table lookup.
 *  2. Model reuse (the FuzzBALL satisfying-assignment cache idiom): on
 *     an exact miss, recent cached models are evaluated against the
 *     new conjunction; any assignment that satisfies every conjunct
 *     witnesses Sat without touching the SAT solver. This is how a
 *     deeper query (ancestor prefix plus a few new conjuncts) reuses
 *     the ancestor's model, and why only the conjuncts outside the
 *     donor's own key are evaluated: its model satisfies the rest.
 *
 * Scope and determinism: one QueryMemo belongs to one worker (no
 * locking), and entries are cleared at each unit-of-work boundary
 * (`begin_unit`). Unit scoping is what keeps a sharded campaign's
 * output byte-identical regardless of shard count: a cache entry
 * carried across units would hand unit B a model (and a SAT-solver
 * call history) that depends on which units happened to run earlier
 * on the same worker — i.e. on the shard layout. Cleared per unit,
 * every unit's exploration is a pure function of (instruction,
 * options). Hit/miss counters accumulate across units so a campaign
 * can report its overall memo effectiveness.
 */
#ifndef POKEEMU_SOLVER_MEMO_H
#define POKEEMU_SOLVER_MEMO_H

#include <unordered_map>
#include <vector>

#include "ir/expr.h"

namespace pokeemu::solver {

/**
 * Canonical identity of one feasibility query: the sorted, deduplicated
 * interned nodes of the conjunction's non-constant conjuncts.
 * Expressions are hash-consed, so node identity is structural identity
 * and two queries share a key exactly when they are the same set of
 * conjuncts; structural hashes, which can collide, only order the key
 * and pick its bucket. Sorting makes the key order-insensitive (a
 * permuted prefix is the same conjunction). Interning is per thread
 * and interned nodes are never freed, so the pointers stay valid and
 * comparable for as long as the one worker that owns a memo runs.
 */
using QueryKey = std::vector<const ir::Expr *>;

/** One memoized verdict. The model covers exactly the variables that
 *  appear in the conjunction — enough to witness satisfiability. */
struct MemoEntry
{
    bool sat = false;
    std::unordered_map<u32, u64> model;
};

/** Cumulative (per-worker) and per-unit memo counters. */
struct MemoStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 unit_hits = 0;   ///< Since the last begin_unit().
    u64 unit_misses = 0;
};

/** See file comment. */
class QueryMemo
{
  public:
    /**
     * Canonicalize @p conditions into @p out. Returns false when the
     * conjunction contains a constant-false conjunct (trivially Unsat;
     * not worth caching). Constant-true conjuncts are dropped.
     */
    static bool canonical_key(const std::vector<ir::ExprRef> &conditions,
                              QueryKey &out);

    /**
     * Entry answering @p conditions (canonicalized as @p key), or
     * null. Tries the exact key first, then model reuse over the most
     * recently cached satisfying assignments (newest first — the
     * deepest prefixes are the likeliest to subsume a new extension);
     * a reused model is re-inserted under @p key, zero-filled for the
     * query's unconstrained variables, so the next identical query is
     * an exact hit. Counts one hit or one miss. Deterministic: the
     * scan order is a pure function of the unit's query history.
     */
    const MemoEntry *find(const QueryKey &key,
                          const std::vector<ir::ExprRef> &conditions);

    void insert(const QueryKey &key, MemoEntry entry);

    /**
     * Start a new unit of work: drop all entries (see file comment for
     * why) and reset the per-unit counters; cumulative counters are
     * kept.
     */
    void begin_unit();

    const MemoStats &stats() const { return stats_; }
    std::size_t entries() const { return entries_.size(); }

  private:
    struct KeyHash
    {
        std::size_t operator()(const QueryKey &key) const;
    };

    /** Models tried per exact miss; bounds reuse cost on units with
     *  hundreds of queries while keeping the common subsumption wins
     *  (a run's own ancestors are always the newest entries). */
    static constexpr std::size_t kMaxModelScan = 16;

    using Entries = std::unordered_map<QueryKey, MemoEntry, KeyHash>;

    Entries entries_;
    /** Sat entries with their keys, in insertion order (node-based
     *  map: pointers are stable); cleared with entries_ at unit
     *  boundaries. */
    std::vector<const Entries::value_type *> models_;
    MemoStats stats_;
};

} // namespace pokeemu::solver

#endif // POKEEMU_SOLVER_MEMO_H
