/**
 * @file
 * Abstract value domains for the IR dataflow engine: known-bits and
 * unsigned intervals, fused into one Fact per value.
 *
 * A Fact over-approximates the set of concrete values an expression
 * can take: bit i is *known* when every concrete value agrees on it
 * (`zeros`/`ones` masks), and every concrete value lies in the
 * unsigned interval [lo, hi]. The two views tighten each other
 * (normalize()): known leading bits bound the interval, and interval
 * bounds pin leading bits. The paper's exploration cost is dominated
 * by per-branch solver queries; a branch condition whose Fact decides
 * to a constant needs no query at all (dataflow.h).
 *
 * Soundness contract, relied on by the explorer's pruning and the
 * over-approximation property tests: for every concrete assignment
 * consistent with the FactEnv, eval_fact(e).contains(eval_expr(e)).
 */
#ifndef POKEEMU_ANALYSIS_DOMAINS_H
#define POKEEMU_ANALYSIS_DOMAINS_H

#include <optional>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"

namespace pokeemu::analysis {

/** See file comment. */
struct Fact
{
    unsigned width = 1;
    /** Bit set: that result bit is known to be 0 / known to be 1. */
    u64 zeros = 0;
    u64 ones = 0;
    /** Unsigned interval bounds, inclusive; lo <= hi unless bottom. */
    u64 lo = 0;
    u64 hi = 0;
    /** No concrete value satisfies this fact (contradiction). */
    bool bottom = false;

    /** All w-bit values. */
    static Fact top(unsigned w);
    /** Exactly @p value. */
    static Fact constant(unsigned w, u64 value);
    /** Known-bits only; interval derived by normalize(). */
    static Fact known(unsigned w, u64 zeros, u64 ones);
    /** Interval only; known bits derived by normalize(). */
    static Fact range(unsigned w, u64 lo, u64 hi);
    static Fact bot(unsigned w);

    u64 mask() const
    {
        return width >= 64 ? ~u64{0} : (u64{1} << width) - 1;
    }

    bool is_constant() const
    {
        return !bottom && lo == hi;
    }

    /** The single value (is_constant() only). */
    u64 value() const { return lo; }

    /** Decide a 1-bit fact; nullopt when both values possible. */
    std::optional<bool> decide() const;

    /** Does @p value satisfy every known bit and the interval? */
    bool contains(u64 value) const;

    /** True when no bit is known and the interval is full. */
    bool is_top() const;

    /** Least upper bound (set union over-approximation). */
    Fact join(const Fact &other) const;

    /** Greatest lower bound (set intersection; may go bottom). */
    Fact meet(const Fact &other) const;

    /**
     * Propagate between the two views until mutually consistent:
     * known bits raise lo / lower hi, and shared leading bits of
     * lo and hi become known. Detects contradictions (-> bottom).
     */
    Fact normalize() const;

    bool operator==(const Fact &other) const;

    std::string to_string() const;

    // Transfer functions. All are sound over-approximations; every
    // IR operator is covered (unhandled combinations return top).
    static Fact binop(ir::BinOpKind op, const Fact &a, const Fact &b);
    static Fact unop(ir::UnOpKind op, const Fact &a);
    static Fact zext_to(const Fact &a, unsigned width);
    static Fact sext_to(const Fact &a, unsigned width);
    static Fact extract_from(const Fact &a, unsigned lo, unsigned width);
    static Fact ite(const Fact &cond, const Fact &t, const Fact &f);
};

/**
 * Variable facts plus a per-node memo for eval_fact. The memo is keyed
 * by expression node identity (expressions are immutable and shared),
 * so repeated evaluation over a growing symbolic state stays linear.
 */
class FactEnv
{
  public:
    /** Install (meet with any existing) a fact for variable @p id. */
    void refine_var(u32 id, const Fact &fact);

    /** The installed fact, or top(@p width). */
    Fact var_fact(u32 id, unsigned width) const;

    /**
     * Mine a 1-bit condition known to be true for variable-level
     * facts. Understands conjunctions and the comparison shapes the
     * state spec and semantics emit: eq/ne/ult/ule over a variable,
     * extract(var, ..), or band(var, const). Unrecognized shapes are
     * ignored (the predicate set in dataflow.cpp still uses them).
     */
    void assume(const ir::ExprRef &cond);

    /** Evaluate the fact of @p e under this environment (memoized). */
    Fact eval(const ir::ExprRef &e);

  private:
    /** Refine `lhs == value` where lhs is a var / extract / band. */
    void assume_eq(const ir::ExprRef &lhs, u64 value);

    std::unordered_map<u32, Fact> vars_;
    std::unordered_map<const ir::Expr *, Fact> cache_;
    /** Keeps cached nodes alive so pointer keys stay valid. */
    std::vector<ir::ExprRef> pinned_;
};

} // namespace pokeemu::analysis

#endif // POKEEMU_ANALYSIS_DOMAINS_H
