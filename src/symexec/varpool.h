/**
 * @file
 * Stable identity management for symbolic variables.
 *
 * FuzzBALL re-executes the program under test once per path
 * (paper §3.1.2), and memory locations become symbolic on demand
 * (§3.3.2). For the decision tree and solver caching to work across
 * those re-executions, the *same* location must map to the *same*
 * variable every time. The pool provides that: variables are named,
 * and a name always resolves to the same id (and hence the same
 * solver-level bits).
 */
#ifndef POKEEMU_SYMEXEC_VARPOOL_H
#define POKEEMU_SYMEXEC_VARPOOL_H

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"

namespace pokeemu::symexec {

/** See file comment. */
class VarPool
{
  public:
    /**
     * Get or create the variable named @p name. Width must be
     * consistent across calls with the same name.
     */
    ir::ExprRef get(const std::string &name, unsigned width)
    {
        auto it = by_name_.find(name);
        if (it != by_name_.end()) {
            const ir::ExprRef &v = vars_[it->second];
            if (v->width() != width)
                panic("VarPool: width mismatch for " + name);
            return v;
        }
        const u32 id = static_cast<u32>(vars_.size());
        ir::ExprRef v = ir::E::var(id, name, width);
        by_name_[name] = id;
        vars_.push_back(v);
        return v;
    }

    /** All variables created so far, in creation order (id order). */
    const std::vector<ir::ExprRef> &all() const { return vars_; }

    std::size_t size() const { return vars_.size(); }

  private:
    std::unordered_map<std::string, u32> by_name_;
    std::vector<ir::ExprRef> vars_;
};

} // namespace pokeemu::symexec

#endif // POKEEMU_SYMEXEC_VARPOOL_H
