/**
 * @file
 * The expression walkers as they stood before they shared a per-thread
 * memo table, kept verbatim as test-only references: each call builds
 * its own `std::unordered_map` memo and recurses through a
 * `std::function`. The `Walkers.*` tests in test_ir.cpp run them beside
 * ir::eval_expr, ir::substitute and ir::Expr::collect_vars on random
 * shared DAGs and require equal values, pointer-identical substitutions,
 * the same variable order and the same sequence of leaf-reader calls.
 * Not linked into the library.
 */
#ifndef POKEEMU_TESTS_REFERENCE_WALKERS_H
#define POKEEMU_TESTS_REFERENCE_WALKERS_H

#include <functional>
#include <vector>

#include "ir/expr.h"

namespace pokeemu::ir::reference {

u64 eval_expr(const ExprRef &x,
              const std::function<u64(const Expr &)> *lookup);

ExprRef substitute(const ExprRef &x,
                   const std::function<ExprRef(const Expr &)> &map);

void collect_vars(const ExprRef &x, std::vector<ExprRef> &out);

} // namespace pokeemu::ir::reference

#endif // POKEEMU_TESTS_REFERENCE_WALKERS_H
