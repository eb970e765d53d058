/**
 * @file
 * Tseitin bit-blasting of bit-vector expressions to CNF.
 *
 * Together with the CDCL core in sat.h this forms PokeEMU's decision
 * procedure for quantifier-free fixed-width bit-vector formulas — the
 * role STP and Z3 play for FuzzBALL (paper §3.1.2). Every expression
 * node is lowered once per solver instance (pointer-keyed cache; the
 * expression factories share subtrees aggressively, so caching is
 * effective) into one SAT variable per bit.
 */
#ifndef POKEEMU_SOLVER_BITBLAST_H
#define POKEEMU_SOLVER_BITBLAST_H

#include <unordered_map>
#include <vector>

#include "ir/expr.h"
#include "solver/sat.h"

namespace pokeemu::solver {

/** Lowers expressions into an owned SatSolver's clause database. */
class BitBlaster
{
  public:
    explicit BitBlaster(SatSolver &sat);

    /**
     * Lower @p expr; returns one literal per bit, LSB first. For 1-bit
     * expressions (conditions) the single literal can be used directly
     * as an assumption.
     */
    const std::vector<Lit> &blast(const ir::ExprRef &expr);

    /**
     * Read back the model value of @p expr (typically a Var) after a
     * Sat result; bits never mentioned in any constraint default to 0.
     */
    u64 model_value(const ir::ExprRef &expr) const;

    /** Bits of the Var with identity @p var_id, if it was ever blasted. */
    const std::vector<Lit> *var_bits(u32 var_id) const;

  private:
    Lit fresh();
    Lit lit_const(bool b) const;
    /** Tseitin AND gate: returns literal g with g <-> a & b. */
    Lit gate_and(Lit a, Lit b);
    Lit gate_or(Lit a, Lit b);
    Lit gate_xor(Lit a, Lit b);
    /** Mux: cond ? t : f. */
    Lit gate_mux(Lit cond, Lit t, Lit f);
    /** Full adder; returns (sum, carry_out). */
    std::pair<Lit, Lit> full_adder(Lit a, Lit b, Lit cin);

    std::vector<Lit> add_vec(const std::vector<Lit> &a,
                             const std::vector<Lit> &b, Lit cin);
    std::vector<Lit> neg_vec(const std::vector<Lit> &a);
    std::vector<Lit> mul_vec(const std::vector<Lit> &a,
                             const std::vector<Lit> &b);
    /** Unsigned divide/remainder via restoring long division. */
    void divmod_vec(const std::vector<Lit> &a, const std::vector<Lit> &b,
                    std::vector<Lit> &quotient,
                    std::vector<Lit> &remainder);
    std::vector<Lit> shift_vec(const std::vector<Lit> &a,
                               const std::vector<Lit> &amount,
                               ir::BinOpKind kind);
    Lit ult_vec(const std::vector<Lit> &a, const std::vector<Lit> &b);
    Lit eq_vec(const std::vector<Lit> &a, const std::vector<Lit> &b);
    std::vector<Lit> mux_vec(Lit cond, const std::vector<Lit> &t,
                             const std::vector<Lit> &f);

    std::vector<Lit> lower(const ir::ExprRef &expr);

    SatSolver &sat_;
    Lit true_lit_;
    std::unordered_map<const ir::Expr *, std::vector<Lit>> cache_;
    /** Keep blasted roots alive so pointer keys stay valid. */
    std::vector<ir::ExprRef> pinned_;
    std::unordered_map<u32, std::vector<Lit>> var_cache_;
};

} // namespace pokeemu::solver

#endif // POKEEMU_SOLVER_BITBLAST_H
