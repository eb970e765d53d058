#include "solver/memo.h"

#include <algorithm>
#include <functional>

#include "support/rng.h"

namespace pokeemu::solver {

namespace {

/** The order of a QueryKey: by structural hash first, so the key's
 *  order (and its bucket) does not depend on where nodes were
 *  allocated. */
bool
key_order(const ir::Expr *x, const ir::Expr *y)
{
    return x->hash() != y->hash() ? x->hash() < y->hash()
                                  : std::less<const ir::Expr *>()(x, y);
}

} // namespace

std::size_t
QueryMemo::KeyHash::operator()(const QueryKey &key) const
{
    u64 h = 0x706f6b656d656d6fULL; // "pokememo"
    for (const ir::Expr *node : key)
        h = mix64(h ^ mix64(node->hash()));
    return static_cast<std::size_t>(h);
}

bool
QueryMemo::canonical_key(const std::vector<ir::ExprRef> &conditions,
                         QueryKey &out)
{
    out.clear();
    out.reserve(conditions.size());
    for (const ir::ExprRef &cond : conditions) {
        if (cond->is_const()) {
            if (cond->value() == 0)
                return false;
            continue; // Constant-true: contributes nothing.
        }
        out.push_back(cond.get());
    }
    std::sort(out.begin(), out.end(), key_order);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return true;
}

namespace {

/** True when @p model (absent variables read 0) satisfies every
 *  conjunct outside @p known, the key of a query the model already
 *  satisfies. Conditions reaching the solver are fully resolved, so a
 *  Temp leaf means reuse is not applicable, not a bug. */
bool
model_satisfies(const std::unordered_map<u32, u64> &model,
                const QueryKey &known,
                const std::vector<ir::ExprRef> &conditions)
{
    bool resolved = true;
    const std::function<u64(const ir::Expr &)> read =
        [&](const ir::Expr &leaf) -> u64 {
        if (leaf.kind() != ir::ExprKind::Var) {
            resolved = false;
            return 0;
        }
        auto it = model.find(leaf.var_id());
        return it == model.end() ? 0 : it->second;
    };
    for (const ir::ExprRef &cond : conditions) {
        if (std::binary_search(known.begin(), known.end(), cond.get(),
                               key_order))
            continue;
        if (ir::eval_expr(cond, &read) == 0 || !resolved)
            return false;
    }
    return true;
}

} // namespace

const MemoEntry *
QueryMemo::find(const QueryKey &key,
                const std::vector<ir::ExprRef> &conditions)
{
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++stats_.hits;
        ++stats_.unit_hits;
        return &it->second;
    }

    // Model reuse: newest first — within a run the deepest solved
    // prefix is the likeliest to satisfy its own extension.
    const std::size_t scan = std::min(models_.size(), kMaxModelScan);
    for (std::size_t i = 0; i < scan; ++i) {
        const auto &[donor_key, donor] = *models_[models_.size() - 1 - i];
        if (!model_satisfies(donor.model, donor_key, conditions))
            continue;
        MemoEntry entry;
        entry.sat = true;
        entry.model = donor.model;
        // Zero-fill the query's variables the donor never constrained:
        // model_satisfies read them as 0, so the served model must
        // pin them to 0 to stay a witness.
        std::vector<ir::ExprRef> vars;
        for (const ir::ExprRef &cond : conditions)
            ir::Expr::collect_vars(cond, vars);
        for (const ir::ExprRef &v : vars)
            entry.model.emplace(v->var_id(), 0);
        ++stats_.hits;
        ++stats_.unit_hits;
        insert(key, std::move(entry));
        return &entries_.find(key)->second;
    }

    ++stats_.misses;
    ++stats_.unit_misses;
    return nullptr;
}

void
QueryMemo::insert(const QueryKey &key, MemoEntry entry)
{
    const auto [it, inserted] = entries_.emplace(key, std::move(entry));
    if (inserted && it->second.sat)
        models_.push_back(&*it);
}

void
QueryMemo::begin_unit()
{
    entries_.clear();
    models_.clear();
    stats_.unit_hits = 0;
    stats_.unit_misses = 0;
}

} // namespace pokeemu::solver
