/**
 * @file
 * Bit-vector expression trees: the PokeEMU intermediate representation's
 * value language.
 *
 * This plays the role of the Vine expression language in FuzzBALL
 * (paper §3.1.3): fixed-width bit-vectors of 1..64 bits with the usual
 * arithmetic, logical, comparison, shift, concatenation, extraction and
 * if-then-else operators. Expressions are immutable, shared via
 * ExprRef, and constructed through factory functions that aggressively
 * constant-fold and canonicalize so that symbolic execution of mostly
 * concrete code stays cheap.
 *
 * Two kinds of leaves exist:
 *  - Const: a concrete bit pattern.
 *  - Var:   a free symbolic variable (an input to the exploration);
 *           path conditions and symbolic state are expressed over Vars.
 * Temp references (IR temporaries) never appear inside stored
 * expressions: evaluators substitute temp values eagerly.
 */
#ifndef POKEEMU_IR_EXPR_H
#define POKEEMU_IR_EXPR_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/common.h"

namespace pokeemu::ir {

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

enum class ExprKind : u8 { Const, Var, Temp, UnOp, BinOp, Cast, Ite };

enum class BinOpKind : u8 {
    Add, Sub, Mul, UDiv, URem, SDiv, SRem,
    And, Or, Xor,
    Shl, LShr, AShr,
    Eq, Ne, ULt, ULe, SLt, SLe,
    Concat,
};

enum class UnOpKind : u8 { Not, Neg };

enum class CastKind : u8 { ZExt, SExt, Extract };

/** Whether @p op yields a 1-bit result regardless of operand width. */
bool is_comparison(BinOpKind op);

/** Printable operator name, e.g. "add" or "ult". */
const char *binop_name(BinOpKind op);
const char *unop_name(UnOpKind op);

namespace E {
ExprRef constant(unsigned width, u64 value);
ExprRef var(u32 id, const std::string &name, unsigned width);
ExprRef temp(u32 id, unsigned width);
ExprRef binop(BinOpKind op, const ExprRef &a, const ExprRef &b);
ExprRef unop(UnOpKind op, const ExprRef &a);
ExprRef zext(const ExprRef &a, unsigned width);
ExprRef sext(const ExprRef &a, unsigned width);
ExprRef extract(const ExprRef &a, unsigned lo, unsigned width);
ExprRef ite(const ExprRef &cond, const ExprRef &t, const ExprRef &f);
} // namespace E

/**
 * An immutable bit-vector expression node.
 *
 * All fields are populated by the factory functions below; which fields
 * are meaningful depends on kind(). Nodes carry a structural hash so
 * equality checks are cheap in the simplifier and solver.
 */
class Expr
{
  public:
    ExprKind kind() const { return kind_; }
    unsigned width() const { return width_; }
    u64 hash() const { return hash_; }

    /** Const payload (kind() == Const). Always truncated to width(). */
    u64 value() const { return value_; }

    /** Var payload (kind() == Var). */
    const std::string &name() const { return name_; }
    u32 var_id() const { return var_id_; }

    /** Temp payload (kind() == Temp): the IR temporary referenced. */
    u32 temp_id() const { return var_id_; }

    BinOpKind binop() const { return binop_; }
    UnOpKind unop() const { return unop_; }
    CastKind cast() const { return cast_; }

    /** Extract low bit position (kind() == Cast && cast() == Extract). */
    unsigned extract_lo() const { return lo_; }

    /** Operands: a() for unary/cast, a()/b() binary, a()/b()/c() ite. */
    const ExprRef &a() const { return a_; }
    const ExprRef &b() const { return b_; }
    const ExprRef &c() const { return c_; }

    bool is_const() const { return kind_ == ExprKind::Const; }
    bool is_const(u64 v) const { return is_const() && value_ == v; }
    bool is_var() const { return kind_ == ExprKind::Var; }

    /** Deep structural equality (hash-prechecked). */
    static bool equal(const ExprRef &x, const ExprRef &y);

    /**
     * Append to @p out the variables of @p x whose ids are not in it
     * yet. The order is a contract: a depth-first walk that visits a
     * node's operands last to first (c, b, a), keeping each variable
     * where it is first reached. Model zero-fill and minimization
     * iterate it.
     */
    static void collect_vars(const ExprRef &x, std::vector<ExprRef> &out);

  private:
    Expr() = default;

    friend ExprRef E::constant(unsigned, u64);
    friend ExprRef E::var(u32, const std::string &, unsigned);
    friend ExprRef E::temp(u32, unsigned);
    friend ExprRef E::binop(BinOpKind, const ExprRef &, const ExprRef &);
    friend ExprRef E::unop(UnOpKind, const ExprRef &);
    friend ExprRef E::zext(const ExprRef &, unsigned);
    friend ExprRef E::sext(const ExprRef &, unsigned);
    friend ExprRef E::extract(const ExprRef &, unsigned, unsigned);
    friend ExprRef E::ite(const ExprRef &, const ExprRef &,
                          const ExprRef &);

    ExprKind kind_ = ExprKind::Const;
    BinOpKind binop_ = BinOpKind::Add;
    UnOpKind unop_ = UnOpKind::Not;
    CastKind cast_ = CastKind::ZExt;
    unsigned width_ = 1;
    unsigned lo_ = 0;
    u64 value_ = 0;
    u32 var_id_ = 0;
    u64 hash_ = 0;
    std::string name_;
    ExprRef a_, b_, c_;
};

/**
 * Factory namespace: every construction path runs through these, which
 * constant-fold and apply local canonicalization rules (see expr.cpp).
 */
namespace E {

/** A concrete constant of @p width bits. */
ExprRef constant(unsigned width, u64 value);

/** 1-bit constants. */
ExprRef bool_const(bool b);

/**
 * A fresh/free symbolic variable. @p id must be unique per distinct
 * variable; names are for humans, ids are identity.
 */
ExprRef var(u32 id, const std::string &name, unsigned width);

/**
 * A reference to IR temporary @p id. Only ever appears in Program
 * statement text; evaluators substitute the temp's current value, so
 * stored symbolic state and path conditions are Temp-free.
 */
ExprRef temp(u32 id, unsigned width);

ExprRef binop(BinOpKind op, const ExprRef &a, const ExprRef &b);
ExprRef unop(UnOpKind op, const ExprRef &a);
ExprRef zext(const ExprRef &a, unsigned width);
ExprRef sext(const ExprRef &a, unsigned width);
ExprRef extract(const ExprRef &a, unsigned lo, unsigned width);
ExprRef ite(const ExprRef &cond, const ExprRef &t, const ExprRef &f);

// Convenience wrappers.
ExprRef add(const ExprRef &a, const ExprRef &b);
ExprRef sub(const ExprRef &a, const ExprRef &b);
ExprRef mul(const ExprRef &a, const ExprRef &b);
ExprRef band(const ExprRef &a, const ExprRef &b);
ExprRef bor(const ExprRef &a, const ExprRef &b);
ExprRef bxor(const ExprRef &a, const ExprRef &b);
ExprRef bnot(const ExprRef &a);
ExprRef neg(const ExprRef &a);
ExprRef shl(const ExprRef &a, const ExprRef &b);
ExprRef lshr(const ExprRef &a, const ExprRef &b);
ExprRef ashr(const ExprRef &a, const ExprRef &b);
ExprRef eq(const ExprRef &a, const ExprRef &b);
ExprRef ne(const ExprRef &a, const ExprRef &b);
ExprRef ult(const ExprRef &a, const ExprRef &b);
ExprRef ule(const ExprRef &a, const ExprRef &b);
ExprRef slt(const ExprRef &a, const ExprRef &b);
ExprRef sle(const ExprRef &a, const ExprRef &b);
ExprRef concat(const ExprRef &hi, const ExprRef &lo);

/** Logical operations on 1-bit values. */
ExprRef land(const ExprRef &a, const ExprRef &b);
ExprRef lor(const ExprRef &a, const ExprRef &b);
ExprRef lnot(const ExprRef &a);

} // namespace E

/**
 * Evaluate a Var-free-or-assigned expression to a concrete value.
 *
 * The walk is memoized over shared nodes, so @p lookup runs once per
 * distinct leaf, and only the taken arm of an Ite is evaluated. The
 * memo is a per-thread table reused across calls; a lookup that itself
 * evaluates or substitutes gets a table of its own.
 *
 * @param x expression to evaluate.
 * @param lookup maps a Var or Temp node to its concrete value; invoked
 *        for every such leaf. May be null only if the expression is
 *        leaf-free of both.
 * @return the value, truncated to x->width().
 */
u64 eval_expr(const ExprRef &x,
              const std::function<u64(const Expr &)> *lookup);

/**
 * Substitute leaves in @p x: wherever a Var or Temp leaf appears,
 * replace it with map(leaf) if non-null. Used by evaluators to resolve
 * temps and by the summarizer when instantiating pre-computed summaries
 * (paper §3.3.2). Memoized like eval_expr: @p map runs once per
 * distinct leaf, and may itself walk expressions.
 */
ExprRef substitute(const ExprRef &x,
                   const std::function<ExprRef(const Expr &)> &map);

} // namespace pokeemu::ir

#endif // POKEEMU_IR_EXPR_H
