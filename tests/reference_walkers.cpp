#include "reference_walkers.h"

#include <unordered_map>

namespace pokeemu::ir::reference {

namespace {

/** fold_binop is private to expr.cpp; the factory folds constants with
 *  it and truncates to the result width, which fold_binop already
 *  does. */
u64
fold_binop(BinOpKind op, unsigned width, u64 a, u64 b, unsigned bwidth)
{
    return E::binop(op, E::constant(width, a), E::constant(bwidth, b))
        ->value();
}

} // namespace

u64
eval_expr(const ExprRef &x, const std::function<u64(const Expr &)> *lookup)
{
    std::unordered_map<const Expr *, u64> memo;

    std::function<u64(const ExprRef &)> go =
        [&](const ExprRef &e) -> u64 {
        auto it = memo.find(e.get());
        if (it != memo.end())
            return it->second;
        u64 r = 0;
        switch (e->kind()) {
          case ExprKind::Const:
            r = e->value();
            break;
          case ExprKind::Var:
          case ExprKind::Temp:
            if (!lookup)
                panic("eval_expr: free variable " + e->name());
            r = truncate((*lookup)(*e), e->width());
            break;
          case ExprKind::UnOp: {
            const u64 a = go(e->a());
            r = e->unop() == UnOpKind::Not ? ~a : (~a + 1);
            r = truncate(r, e->width());
            break;
          }
          case ExprKind::BinOp:
            r = fold_binop(e->binop(), e->a()->width(), go(e->a()),
                           go(e->b()), e->b()->width());
            break;
          case ExprKind::Cast: {
            const u64 a = go(e->a());
            switch (e->cast()) {
              case CastKind::ZExt:
                r = truncate(a, e->a()->width());
                break;
              case CastKind::SExt:
                r = truncate(static_cast<u64>(
                                 sign_extend(a, e->a()->width())),
                             e->width());
                break;
              case CastKind::Extract:
                r = truncate(a >> e->extract_lo(), e->width());
                break;
            }
            break;
          }
          case ExprKind::Ite:
            r = go(e->a()) ? go(e->b()) : go(e->c());
            break;
        }
        memo[e.get()] = r;
        return r;
    };
    return go(x);
}

ExprRef
substitute(const ExprRef &x,
           const std::function<ExprRef(const Expr &)> &map)
{
    std::unordered_map<const Expr *, ExprRef> memo;

    std::function<ExprRef(const ExprRef &)> go =
        [&](const ExprRef &e) -> ExprRef {
        auto it = memo.find(e.get());
        if (it != memo.end())
            return it->second;
        ExprRef r;
        switch (e->kind()) {
          case ExprKind::Const:
            r = e;
            break;
          case ExprKind::Var:
          case ExprKind::Temp: {
            ExprRef repl = map(*e);
            r = repl ? repl : e;
            assert(r->width() == e->width());
            break;
          }
          case ExprKind::UnOp:
            r = E::unop(e->unop(), go(e->a()));
            break;
          case ExprKind::BinOp:
            r = E::binop(e->binop(), go(e->a()), go(e->b()));
            break;
          case ExprKind::Cast:
            switch (e->cast()) {
              case CastKind::ZExt:
                r = E::zext(go(e->a()), e->width());
                break;
              case CastKind::SExt:
                r = E::sext(go(e->a()), e->width());
                break;
              case CastKind::Extract:
                r = E::extract(go(e->a()), e->extract_lo(), e->width());
                break;
            }
            break;
          case ExprKind::Ite:
            r = E::ite(go(e->a()), go(e->b()), go(e->c()));
            break;
        }
        memo[e.get()] = r;
        return r;
    };
    return go(x);
}

void
collect_vars(const ExprRef &x, std::vector<ExprRef> &out)
{
    std::unordered_map<const Expr *, bool> seen;
    std::unordered_map<u32, bool> var_seen;
    for (const auto &v : out)
        var_seen[v->var_id()] = true;
    std::vector<ExprRef> stack{x};
    while (!stack.empty()) {
        ExprRef e = stack.back();
        stack.pop_back();
        if (!e || seen.count(e.get()))
            continue;
        seen[e.get()] = true;
        if (e->is_var()) {
            if (!var_seen.count(e->var_id())) {
                var_seen[e->var_id()] = true;
                out.push_back(e);
            }
            continue;
        }
        if (e->a()) stack.push_back(e->a());
        if (e->b()) stack.push_back(e->b());
        if (e->c()) stack.push_back(e->c());
    }
}

} // namespace pokeemu::ir::reference
