#include "ir/expr.h"

#include <bit>
#include <cstdint>
#include <unordered_map>

namespace pokeemu::ir {

namespace {

u64
hash_mix(u64 h, u64 v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

bool
is_commutative(BinOpKind op)
{
    switch (op) {
      case BinOpKind::Add:
      case BinOpKind::Mul:
      case BinOpKind::And:
      case BinOpKind::Or:
      case BinOpKind::Xor:
      case BinOpKind::Eq:
      case BinOpKind::Ne:
        return true;
      default:
        return false;
    }
}

/** Concrete semantics of a binary operator on @p width-bit operands. */
u64
fold_binop(BinOpKind op, unsigned width, u64 a, u64 b, unsigned bwidth)
{
    const u64 am = truncate(a, width);
    const u64 bm = truncate(b, bwidth);
    switch (op) {
      case BinOpKind::Add: return truncate(am + bm, width);
      case BinOpKind::Sub: return truncate(am - bm, width);
      case BinOpKind::Mul: return truncate(am * bm, width);
      case BinOpKind::UDiv:
        // x86 semantics raise #DE before division; IR-level division by
        // zero yields all-ones like SMT-LIB bvudiv.
        return bm == 0 ? mask_bits(width) : truncate(am / bm, width);
      case BinOpKind::URem:
        return bm == 0 ? am : truncate(am % bm, width);
      case BinOpKind::SDiv: {
        if (bm == 0)
            return mask_bits(width);
        const s64 sa = sign_extend(am, width);
        const s64 sb = sign_extend(bm, width);
        if (sb == -1 && sa == sign_extend(u64{1} << (width - 1), width))
            return truncate(static_cast<u64>(sa), width);
        return truncate(static_cast<u64>(sa / sb), width);
      }
      case BinOpKind::SRem: {
        if (bm == 0)
            return am;
        const s64 sa = sign_extend(am, width);
        const s64 sb = sign_extend(bm, width);
        if (sb == -1)
            return 0;
        return truncate(static_cast<u64>(sa % sb), width);
      }
      case BinOpKind::And: return am & bm;
      case BinOpKind::Or: return am | bm;
      case BinOpKind::Xor: return am ^ bm;
      case BinOpKind::Shl:
        return bm >= width ? 0 : truncate(am << bm, width);
      case BinOpKind::LShr:
        return bm >= width ? 0 : (am >> bm);
      case BinOpKind::AShr: {
        const s64 sa = sign_extend(am, width);
        const u64 sh = bm >= width ? width - 1 : bm;
        return truncate(static_cast<u64>(sa >> sh), width);
      }
      case BinOpKind::Eq: return am == bm;
      case BinOpKind::Ne: return am != bm;
      case BinOpKind::ULt: return am < bm;
      case BinOpKind::ULe: return am <= bm;
      case BinOpKind::SLt:
        return sign_extend(am, width) < sign_extend(bm, width);
      case BinOpKind::SLe:
        return sign_extend(am, width) <= sign_extend(bm, width);
      case BinOpKind::Concat:
        return truncate((am << bwidth) | bm, width + bwidth);
    }
    panic("unhandled binop fold");
}

/**
 * The memo of one expression walk: open addressing over a power-of-two
 * slot array, keyed by node address. A slot is live only while its
 * stamp equals the table's, so bumping the stamp empties the table in
 * O(1) and a walk allocates only when the table has to grow.
 */
class WalkMemo
{
  public:
    /** Forget every entry. */
    void clear()
    {
        used_ = 0;
        if (++stamp_ == 0) {
            // Wrapped: slots stamped 2^32 walks ago would read as live.
            for (Slot &s : slots_)
                s.stamp = 0;
            stamp_ = 1;
        }
    }

    /** The value stored under @p key, or null. */
    u64 *find(u64 key)
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &s = slots_[i];
            if (s.stamp != stamp_)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    /** Store @p value under @p key, which must be absent. */
    void insert(u64 key, u64 value)
    {
        if (2 * (used_ + 1) > slots_.size())
            grow();
        place(key, value);
        ++used_;
    }

    /** Insert @p key if absent; true if it was. */
    bool mark(u64 key)
    {
        if (find(key))
            return false;
        insert(key, 0);
        return true;
    }

  private:
    struct Slot
    {
        u64 key = 0;
        u64 value = 0;
        u32 stamp = 0;
    };

    std::size_t home(u64 key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    void place(u64 key, u64 value)
    {
        std::size_t i = home(key);
        while (slots_[i].stamp == stamp_)
            i = next(i);
        slots_[i] = Slot{key, value, stamp_};
    }

    void grow()
    {
        std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
        old.swap(slots_);
        shift_ = 64 - std::countr_zero(slots_.size());
        for (const Slot &s : old) {
            if (s.stamp == stamp_)
                place(s.key, s.value);
        }
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 64;
    u32 stamp_ = 0;
    std::size_t used_ = 0;
};

/** Memo key of a node: its address. */
u64
node_key(const Expr *e)
{
    return reinterpret_cast<std::uintptr_t>(e);
}

/** One walk's scratch space. */
struct WalkFrame
{
    WalkMemo memo;
    std::vector<ExprRef> results;       ///< substitute: memo values index it
    std::vector<const ExprRef *> stack; ///< collect_vars: the DFS stack
};

/**
 * A frame for one walk, taken from this thread's stack of frames and
 * given back on return. A leaf reader or substitution map that walks
 * expressions itself takes the next frame, so its caller's memo stays
 * intact. Frames persist, so a warmed-up walk's scratch allocates
 * nothing.
 */
class FrameLease
{
  public:
    FrameLease() : frames_(this_thread())
    {
        if (frames_.depth == frames_.stack.size())
            frames_.stack.push_back(std::make_unique<WalkFrame>());
        frame_ = frames_.stack[frames_.depth++].get();
        frame_->memo.clear();
    }

    ~FrameLease()
    {
        frame_->results.clear();
        --frames_.depth;
    }

    FrameLease(const FrameLease &) = delete;
    FrameLease &operator=(const FrameLease &) = delete;

    WalkFrame &frame() const { return *frame_; }

  private:
    struct Frames
    {
        std::vector<std::unique_ptr<WalkFrame>> stack;
        std::size_t depth = 0; ///< frames in use
    };

    static Frames &this_thread()
    {
        thread_local Frames frames;
        return frames;
    }

    Frames &frames_;
    WalkFrame *frame_;
};

} // namespace

bool
is_comparison(BinOpKind op)
{
    switch (op) {
      case BinOpKind::Eq:
      case BinOpKind::Ne:
      case BinOpKind::ULt:
      case BinOpKind::ULe:
      case BinOpKind::SLt:
      case BinOpKind::SLe:
        return true;
      default:
        return false;
    }
}

const char *
binop_name(BinOpKind op)
{
    switch (op) {
      case BinOpKind::Add: return "add";
      case BinOpKind::Sub: return "sub";
      case BinOpKind::Mul: return "mul";
      case BinOpKind::UDiv: return "udiv";
      case BinOpKind::URem: return "urem";
      case BinOpKind::SDiv: return "sdiv";
      case BinOpKind::SRem: return "srem";
      case BinOpKind::And: return "and";
      case BinOpKind::Or: return "or";
      case BinOpKind::Xor: return "xor";
      case BinOpKind::Shl: return "shl";
      case BinOpKind::LShr: return "lshr";
      case BinOpKind::AShr: return "ashr";
      case BinOpKind::Eq: return "eq";
      case BinOpKind::Ne: return "ne";
      case BinOpKind::ULt: return "ult";
      case BinOpKind::ULe: return "ule";
      case BinOpKind::SLt: return "slt";
      case BinOpKind::SLe: return "sle";
      case BinOpKind::Concat: return "concat";
    }
    return "?";
}

const char *
unop_name(UnOpKind op)
{
    switch (op) {
      case UnOpKind::Not: return "not";
      case UnOpKind::Neg: return "neg";
    }
    return "?";
}

bool
Expr::equal(const ExprRef &x, const ExprRef &y)
{
    if (x.get() == y.get())
        return true;
    if (!x || !y)
        return false;
    if (x->hash_ != y->hash_ || x->kind_ != y->kind_ ||
        x->width_ != y->width_) {
        return false;
    }
    switch (x->kind_) {
      case ExprKind::Const:
        return x->value_ == y->value_;
      case ExprKind::Var:
      case ExprKind::Temp:
        return x->var_id_ == y->var_id_;
      case ExprKind::UnOp:
        return x->unop_ == y->unop_ && equal(x->a_, y->a_);
      case ExprKind::BinOp:
        return x->binop_ == y->binop_ && equal(x->a_, y->a_) &&
               equal(x->b_, y->b_);
      case ExprKind::Cast:
        return x->cast_ == y->cast_ && x->lo_ == y->lo_ &&
               equal(x->a_, y->a_);
      case ExprKind::Ite:
        return equal(x->a_, y->a_) && equal(x->b_, y->b_) &&
               equal(x->c_, y->c_);
    }
    return false;
}

void
Expr::collect_vars(const ExprRef &x, std::vector<ExprRef> &out)
{
    FrameLease lease;
    WalkMemo &seen = lease.frame().memo;
    // Variable ids share the table with node addresses: an id key has
    // its low bit set, which no (8-aligned) node address has.
    const auto id_key = [](u32 id) { return (u64{id} << 1) | 1; };
    for (const auto &v : out)
        seen.mark(id_key(v->var_id()));
    std::vector<const ExprRef *> &stack = lease.frame().stack;
    stack.assign(1, &x);
    while (!stack.empty()) {
        const ExprRef &e = *stack.back();
        stack.pop_back();
        if (!e || !seen.mark(node_key(e.get())))
            continue;
        if (e->is_var()) {
            if (seen.mark(id_key(e->var_id())))
                out.push_back(e);
            continue;
        }
        if (e->a_) stack.push_back(&e->a_);
        if (e->b_) stack.push_back(&e->b_);
        if (e->c_) stack.push_back(&e->c_);
    }
}

namespace E {

namespace {

/**
 * Hash-consing: structurally identical expressions share one node, so
 * pointer-keyed caches (notably the solver's bit-blast cache) hit
 * across the explorer's per-path re-executions. Children are interned
 * first, so shallow (pointer) child comparison suffices.
 */
bool
shallow_equal(const Expr &x, const Expr &y)
{
    if (x.kind() != y.kind() || x.width() != y.width())
        return false;
    switch (x.kind()) {
      case ExprKind::Const:
        return x.value() == y.value();
      case ExprKind::Var:
        return x.var_id() == y.var_id() && x.name() == y.name();
      case ExprKind::Temp:
        return x.temp_id() == y.temp_id();
      case ExprKind::UnOp:
        return x.unop() == y.unop() && x.a().get() == y.a().get();
      case ExprKind::BinOp:
        return x.binop() == y.binop() && x.a().get() == y.a().get() &&
               x.b().get() == y.b().get();
      case ExprKind::Cast:
        return x.cast() == y.cast() &&
               x.extract_lo() == y.extract_lo() &&
               x.a().get() == y.a().get();
      case ExprKind::Ite:
        return x.a().get() == y.a().get() &&
               x.b().get() == y.b().get() &&
               x.c().get() == y.c().get();
    }
    return false;
}

/**
 * The interned node equal to @p probe, a filled-in node on the caller's
 * stack. Nearly every call is a hit, so only a miss allocates: the
 * probe moves into the table.
 */
ExprRef
intern(Expr &&probe)
{
    // Thread-local: the library is used single-threaded per pipeline;
    // thread-locality keeps this safe if callers parallelize.
    thread_local std::unordered_map<u64, std::vector<ExprRef>> table;
    auto &bucket = table[probe.hash()];
    for (const ExprRef &existing : bucket) {
        if (shallow_equal(*existing, probe))
            return existing;
    }
    bucket.push_back(std::make_shared<const Expr>(std::move(probe)));
    return bucket.back();
}

} // namespace

ExprRef
constant(unsigned width, u64 value)
{
    assert(width >= 1 && width <= 64);
    Expr e;
    e.kind_ = ExprKind::Const;
    e.width_ = width;
    e.value_ = truncate(value, width);
    e.hash_ = hash_mix(hash_mix(1, width), e.value_);
    return intern(std::move(e));
}

ExprRef
bool_const(bool b)
{
    return constant(1, b ? 1 : 0);
}

ExprRef
temp(u32 id, unsigned width)
{
    assert(width >= 1 && width <= 64);
    Expr e;
    e.kind_ = ExprKind::Temp;
    e.width_ = width;
    e.var_id_ = id;
    e.hash_ = hash_mix(hash_mix(9, width), id);
    return intern(std::move(e));
}

ExprRef
var(u32 id, const std::string &name, unsigned width)
{
    assert(width >= 1 && width <= 64);
    Expr e;
    e.kind_ = ExprKind::Var;
    e.width_ = width;
    e.var_id_ = id;
    e.name_ = name;
    e.hash_ = hash_mix(hash_mix(2, width), id);
    return intern(std::move(e));
}

ExprRef
binop(BinOpKind op, const ExprRef &a, const ExprRef &b)
{
    assert(a && b);
    if (op == BinOpKind::Concat) {
        assert(a->width() + b->width() <= 64);
    } else {
        assert(a->width() == b->width());
    }
    const unsigned w = op == BinOpKind::Concat
        ? a->width() + b->width()
        : (is_comparison(op) ? 1 : a->width());

    // Constant folding.
    if (a->is_const() && b->is_const()) {
        return constant(w, fold_binop(op, a->width(), a->value(),
                                      b->value(), b->width()));
    }

    ExprRef lhs = a, rhs = b;
    // Canonicalize: constants to the right for commutative operators.
    if (is_commutative(op) && lhs->is_const())
        std::swap(lhs, rhs);

    // Identity / annihilator rules with a constant on the right.
    if (rhs->is_const()) {
        const u64 c = rhs->value();
        const u64 ones = mask_bits(lhs->width());
        switch (op) {
          case BinOpKind::Add:
          case BinOpKind::Sub:
            if (c == 0)
                return lhs;
            // (x + c1) + c2  ->  x + (c1 + c2); same folding for sub.
            if (lhs->kind() == ExprKind::BinOp &&
                lhs->binop() == BinOpKind::Add && lhs->b()->is_const()) {
                const u64 c1 = lhs->b()->value();
                const u64 c2 = op == BinOpKind::Add ? c : (~c + 1);
                return binop(BinOpKind::Add, lhs->a(),
                             constant(lhs->width(), c1 + c2));
            }
            break;
          case BinOpKind::Mul:
            if (c == 1)
                return lhs;
            if (c == 0)
                return constant(w, 0);
            break;
          case BinOpKind::And:
            if (c == ones)
                return lhs;
            if (c == 0)
                return constant(w, 0);
            break;
          case BinOpKind::Or:
            if (c == 0)
                return lhs;
            if (c == ones)
                return constant(w, ones);
            break;
          case BinOpKind::Xor:
            if (c == 0)
                return lhs;
            break;
          case BinOpKind::Shl:
          case BinOpKind::LShr:
          case BinOpKind::AShr:
            if (c == 0)
                return lhs;
            break;
          default:
            break;
        }
    }

    // Same-operand rules.
    if (Expr::equal(lhs, rhs)) {
        switch (op) {
          case BinOpKind::Sub:
          case BinOpKind::Xor:
            return constant(w, 0);
          case BinOpKind::And:
          case BinOpKind::Or:
            return lhs;
          case BinOpKind::Eq:
          case BinOpKind::ULe:
          case BinOpKind::SLe:
            return bool_const(true);
          case BinOpKind::Ne:
          case BinOpKind::ULt:
          case BinOpKind::SLt:
            return bool_const(false);
          default:
            break;
        }
    }

    // Adjacent-extract fusion: concat(x[hi..], x[..lo]) -> x[hi..lo].
    if (op == BinOpKind::Concat && lhs->kind() == ExprKind::Cast &&
        lhs->cast() == CastKind::Extract &&
        rhs->kind() == ExprKind::Cast &&
        rhs->cast() == CastKind::Extract &&
        lhs->a().get() == rhs->a().get() &&
        lhs->extract_lo() == rhs->extract_lo() + rhs->width()) {
        return extract(lhs->a(), rhs->extract_lo(),
                       lhs->width() + rhs->width());
    }

    Expr e;
    e.kind_ = ExprKind::BinOp;
    e.binop_ = op;
    e.width_ = w;
    e.hash_ = hash_mix(hash_mix(hash_mix(hash_mix(3, (u64)op), w),
                                 lhs->hash()), rhs->hash());
    e.a_ = std::move(lhs);
    e.b_ = std::move(rhs);
    return intern(std::move(e));
}

ExprRef
unop(UnOpKind op, const ExprRef &a)
{
    assert(a);
    if (a->is_const()) {
        const u64 v = op == UnOpKind::Not ? ~a->value() : (~a->value() + 1);
        return constant(a->width(), v);
    }
    // Involution: not(not(x)) == x, neg(neg(x)) == x.
    if (a->kind() == ExprKind::UnOp && a->unop() == op)
        return a->a();
    Expr e;
    e.kind_ = ExprKind::UnOp;
    e.unop_ = op;
    e.width_ = a->width();
    e.a_ = a;
    e.hash_ = hash_mix(hash_mix(hash_mix(4, (u64)op), a->width()),
                        a->hash());
    return intern(std::move(e));
}

ExprRef
zext(const ExprRef &a, unsigned width)
{
    assert(a && width >= a->width() && width <= 64);
    if (width == a->width())
        return a;
    if (a->is_const())
        return constant(width, a->value());
    Expr e;
    e.kind_ = ExprKind::Cast;
    e.cast_ = CastKind::ZExt;
    e.width_ = width;
    e.a_ = a;
    e.hash_ = hash_mix(hash_mix(5, width), a->hash());
    return intern(std::move(e));
}

ExprRef
sext(const ExprRef &a, unsigned width)
{
    assert(a && width >= a->width() && width <= 64);
    if (width == a->width())
        return a;
    if (a->is_const()) {
        return constant(width,
                        static_cast<u64>(sign_extend(a->value(),
                                                     a->width())));
    }
    Expr e;
    e.kind_ = ExprKind::Cast;
    e.cast_ = CastKind::SExt;
    e.width_ = width;
    e.a_ = a;
    e.hash_ = hash_mix(hash_mix(6, width), a->hash());
    return intern(std::move(e));
}

ExprRef
extract(const ExprRef &a, unsigned lo, unsigned width)
{
    assert(a && width >= 1 && lo + width <= a->width());
    if (lo == 0 && width == a->width())
        return a;
    if (a->is_const())
        return constant(width, a->value() >> lo);
    // extract(extract(x, l2, _), l1, w) -> extract(x, l1+l2, w)
    if (a->kind() == ExprKind::Cast && a->cast() == CastKind::Extract)
        return extract(a->a(), lo + a->extract_lo(), width);
    // extract(zext(x)): within x -> extract(x); fully above -> 0.
    if (a->kind() == ExprKind::Cast && a->cast() == CastKind::ZExt) {
        const unsigned iw = a->a()->width();
        if (lo + width <= iw)
            return extract(a->a(), lo, width);
        if (lo >= iw)
            return constant(width, 0);
    }
    // extract(sext(x)): fully within x -> extract(x).
    if (a->kind() == ExprKind::Cast && a->cast() == CastKind::SExt &&
        lo + width <= a->a()->width()) {
        return extract(a->a(), lo, width);
    }
    // extract(concat(hi, lo_part)): resolve if fully inside one side.
    if (a->kind() == ExprKind::BinOp && a->binop() == BinOpKind::Concat) {
        const unsigned low_w = a->b()->width();
        if (lo + width <= low_w)
            return extract(a->b(), lo, width);
        if (lo >= low_w)
            return extract(a->a(), lo - low_w, width);
    }
    // extract distributes over bitwise operators and ite: this lets
    // masked bytes (var & mask | const) fold their concrete bits,
    // which keeps branches on pinned state bits concrete.
    if (a->kind() == ExprKind::BinOp &&
        (a->binop() == BinOpKind::And || a->binop() == BinOpKind::Or ||
         a->binop() == BinOpKind::Xor)) {
        return binop(a->binop(), extract(a->a(), lo, width),
                     extract(a->b(), lo, width));
    }
    if (a->kind() == ExprKind::Ite) {
        return ite(a->a(), extract(a->b(), lo, width),
                   extract(a->c(), lo, width));
    }
    Expr e;
    e.kind_ = ExprKind::Cast;
    e.cast_ = CastKind::Extract;
    e.width_ = width;
    e.lo_ = lo;
    e.a_ = a;
    e.hash_ = hash_mix(hash_mix(hash_mix(7, width), lo), a->hash());
    return intern(std::move(e));
}

ExprRef
ite(const ExprRef &cond, const ExprRef &t, const ExprRef &f)
{
    assert(cond && t && f);
    assert(cond->width() == 1 && t->width() == f->width());
    if (cond->is_const())
        return cond->value() ? t : f;
    if (Expr::equal(t, f))
        return t;
    // ite(c, 1, 0) on 1-bit values is just c; ite(c, 0, 1) is !c.
    if (t->width() == 1 && t->is_const() && f->is_const()) {
        if (t->value() == 1 && f->value() == 0)
            return cond;
        if (t->value() == 0 && f->value() == 1)
            return unop(UnOpKind::Not, cond);
    }
    Expr e;
    e.kind_ = ExprKind::Ite;
    e.width_ = t->width();
    e.a_ = cond;
    e.b_ = t;
    e.c_ = f;
    e.hash_ = hash_mix(hash_mix(hash_mix(hash_mix(8, t->width()),
                                          cond->hash()), t->hash()),
                        f->hash());
    return intern(std::move(e));
}

ExprRef add(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Add, a, b); }
ExprRef sub(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Sub, a, b); }
ExprRef mul(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Mul, a, b); }
ExprRef band(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::And, a, b); }
ExprRef bor(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Or, a, b); }
ExprRef bxor(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Xor, a, b); }
ExprRef bnot(const ExprRef &a) { return unop(UnOpKind::Not, a); }
ExprRef neg(const ExprRef &a) { return unop(UnOpKind::Neg, a); }
ExprRef shl(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Shl, a, b); }
ExprRef lshr(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::LShr, a, b); }
ExprRef ashr(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::AShr, a, b); }
ExprRef eq(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Eq, a, b); }
ExprRef ne(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::Ne, a, b); }
ExprRef ult(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::ULt, a, b); }
ExprRef ule(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::ULe, a, b); }
ExprRef slt(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::SLt, a, b); }
ExprRef sle(const ExprRef &a, const ExprRef &b)
{ return binop(BinOpKind::SLe, a, b); }
ExprRef concat(const ExprRef &hi, const ExprRef &lo)
{ return binop(BinOpKind::Concat, hi, lo); }

ExprRef
land(const ExprRef &a, const ExprRef &b)
{
    assert(a->width() == 1 && b->width() == 1);
    return binop(BinOpKind::And, a, b);
}

ExprRef
lor(const ExprRef &a, const ExprRef &b)
{
    assert(a->width() == 1 && b->width() == 1);
    return binop(BinOpKind::Or, a, b);
}

ExprRef
lnot(const ExprRef &a)
{
    assert(a->width() == 1);
    return unop(UnOpKind::Not, a);
}

} // namespace E

namespace {

using Lookup = std::function<u64(const Expr &)>;
using Map = std::function<ExprRef(const Expr &)>;

u64
eval_node(const Expr &e, WalkMemo &memo, const Lookup *lookup)
{
    if (e.is_const())
        return e.value();
    const u64 key = node_key(&e);
    if (const u64 *hit = memo.find(key))
        return *hit;
    const auto go = [&](const ExprRef &x) {
        return eval_node(*x, memo, lookup);
    };
    u64 r = 0;
    switch (e.kind()) {
      case ExprKind::Const:
        break;
      case ExprKind::Var:
      case ExprKind::Temp:
        if (!lookup)
            panic("eval_expr: free variable " + e.name());
        r = truncate((*lookup)(e), e.width());
        break;
      case ExprKind::UnOp: {
        const u64 a = go(e.a());
        r = e.unop() == UnOpKind::Not ? ~a : (~a + 1);
        r = truncate(r, e.width());
        break;
      }
      case ExprKind::BinOp:
        r = fold_binop(e.binop(), e.a()->width(), go(e.a()), go(e.b()),
                       e.b()->width());
        break;
      case ExprKind::Cast: {
        const u64 a = go(e.a());
        switch (e.cast()) {
          case CastKind::ZExt:
            r = truncate(a, e.a()->width());
            break;
          case CastKind::SExt:
            r = truncate(static_cast<u64>(sign_extend(a, e.a()->width())),
                         e.width());
            break;
          case CastKind::Extract:
            r = truncate(a >> e.extract_lo(), e.width());
            break;
        }
        break;
      }
      case ExprKind::Ite:
        r = go(e.a()) ? go(e.b()) : go(e.c());
        break;
    }
    memo.insert(key, r);
    return r;
}

ExprRef
substitute_node(const ExprRef &e, WalkFrame &f, const Map &map)
{
    if (e->is_const())
        return e;
    const u64 key = node_key(e.get());
    if (const u64 *hit = f.memo.find(key))
        return f.results[*hit];
    const auto go = [&](const ExprRef &x) {
        return substitute_node(x, f, map);
    };
    ExprRef r;
    switch (e->kind()) {
      case ExprKind::Const:
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
    f.memo.insert(key, f.results.size());
    f.results.push_back(r);
    return r;
}

} // namespace

u64
eval_expr(const ExprRef &x, const Lookup *lookup)
{
    FrameLease lease;
    return eval_node(*x, lease.frame().memo, lookup);
}

ExprRef
substitute(const ExprRef &x, const Map &map)
{
    FrameLease lease;
    return substitute_node(x, lease.frame(), map);
}

} // namespace pokeemu::ir
