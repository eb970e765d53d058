#include "analysis/dataflow.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace pokeemu::analysis {

namespace {

using ir::Expr;
using ir::ExprRef;

/** Inclusive byte range a symbolic store may have hit. */
using ClobberRange = std::pair<u32, u32>;

constexpr std::size_t kMaxPreds = 48;
constexpr std::size_t kMaxClobberRanges = 16;
constexpr u32 kAddrMax = 0xffffffffu;

void
clobber_insert(std::vector<ClobberRange> &ranges, u32 lo, u32 hi)
{
    ranges.emplace_back(lo, hi);
    std::sort(ranges.begin(), ranges.end());
    std::vector<ClobberRange> merged;
    for (const auto &iv : ranges) {
        if (!merged.empty() &&
            (iv.first <= merged.back().second ||
             iv.first == merged.back().second + 1))
            merged.back().second = std::max(merged.back().second, iv.second);
        else
            merged.push_back(iv);
    }
    if (merged.size() > kMaxClobberRanges)
        merged = {{merged.front().first, merged.back().second}};
    ranges = std::move(merged);
}

std::vector<ClobberRange>
clobber_union(const std::vector<ClobberRange> &a,
              const std::vector<ClobberRange> &b)
{
    std::vector<ClobberRange> r = a;
    for (const auto &iv : b)
        clobber_insert(r, iv.first, iv.second);
    return r;
}

bool
clobber_contains(const std::vector<ClobberRange> &ranges, u32 addr)
{
    for (const auto &iv : ranges)
        if (addr >= iv.first && addr <= iv.second)
            return true;
    return false;
}

/** One byte of abstract memory at a constant address. */
struct MemCell
{
    ExprRef value;
    /** Overwritten on every path reaching this point. */
    bool always = false;
};

/**
 * Merged abstract state at a program point: one symbolic value per
 * slot, paths folded together with join choice variables. `preds`
 * lists 1-bit expressions true on every path reaching the point.
 */
struct AbsState
{
    bool reachable = false;
    std::vector<ExprRef> temps; ///< Null = not assigned yet.
    std::map<u32, MemCell> mem;
    std::vector<ClobberRange> clobber;
    std::vector<ExprRef> preds;
};

bool
preds_contain(const std::vector<ExprRef> &preds, const ExprRef &e)
{
    for (const auto &p : preds)
        if (Expr::equal(p, e))
            return true;
    return false;
}

void
push_pred(AbsState &st, const ExprRef &cond)
{
    if (cond->is_const() || preds_contain(st.preds, cond))
        return;
    if (st.preds.size() < kMaxPreds)
        st.preds.push_back(cond);
}

bool
states_equal(const AbsState &a, const AbsState &b)
{
    if (a.reachable != b.reachable)
        return false;
    if (!a.reachable)
        return true;
    if (a.clobber != b.clobber)
        return false;
    if (a.temps.size() != b.temps.size() ||
        a.mem.size() != b.mem.size() || a.preds.size() != b.preds.size())
        return false;
    for (std::size_t i = 0; i < a.temps.size(); ++i) {
        if (!a.temps[i] != !b.temps[i])
            return false;
        if (a.temps[i] && !Expr::equal(a.temps[i], b.temps[i]))
            return false;
    }
    auto ib = b.mem.begin();
    for (const auto &[addr, cell] : a.mem) {
        if (ib->first != addr || ib->second.always != cell.always ||
            !Expr::equal(ib->second.value, cell.value))
            return false;
        ++ib;
    }
    for (std::size_t i = 0; i < a.preds.size(); ++i)
        if (!Expr::equal(a.preds[i], b.preds[i]))
            return false;
    return true;
}

/** Does `a true` force `b false` (or vice versa), structurally? */
bool
is_negation_of(const ExprRef &a, const ExprRef &b)
{
    if (a->kind() == ir::ExprKind::UnOp && a->unop() == ir::UnOpKind::Not &&
        a->width() == 1 && Expr::equal(a->a(), b))
        return true;
    if (b->kind() == ir::ExprKind::UnOp && b->unop() == ir::UnOpKind::Not &&
        b->width() == 1 && Expr::equal(b->a(), a))
        return true;
    if (a->kind() != ir::ExprKind::BinOp || b->kind() != ir::ExprKind::BinOp)
        return false;
    const auto ka = a->binop(), kb = b->binop();
    const bool straight = Expr::equal(a->a(), b->a()) &&
                          Expr::equal(a->b(), b->b());
    const bool swapped = Expr::equal(a->a(), b->b()) &&
                         Expr::equal(a->b(), b->a());
    using K = ir::BinOpKind;
    if (((ka == K::Eq && kb == K::Ne) || (ka == K::Ne && kb == K::Eq)) &&
        straight)
        return true;
    // ult(x, y) <=> !ule(y, x), and the signed twins.
    if (((ka == K::ULt && kb == K::ULe) || (ka == K::ULe && kb == K::ULt)) &&
        swapped)
        return true;
    if (((ka == K::SLt && kb == K::SLe) || (ka == K::SLe && kb == K::SLt)) &&
        swapped)
        return true;
    return false;
}

/** State and exit-code expression at one reachable Halt. */
struct ExitState
{
    u32 stmt = 0;
    ExprRef code;
    std::map<u32, MemCell> mem;
    std::vector<ClobberRange> clobber;
};

/** Results only the final (recording) pass fills in. */
struct FinalData
{
    std::vector<Decision> decisions;
    std::vector<bool> stmt_reachable;
    std::vector<std::optional<u32>> const_addr;
    std::vector<ExitState> exits;
    WriteSummary writes;
};

/**
 * The fixpoint engine. One instance per (program, config) run; owns
 * the analysis-invented variables so the flags oracle can classify
 * them after run().
 */
class Engine
{
  public:
    Engine(const ir::Program &program, const Cfg &cfg,
           const DataflowConfig &config)
        : program_(program), cfg_(cfg), config_(config)
    {
    }

    ProgramFacts run();

    const std::vector<ExitState> &exits() const { return final_.exits; }

    /** Is @p var_id an opaque analysis variable (unknown content)? */
    bool is_opaque(u32 var_id) const
    {
        return opaque_ids_.count(var_id) != 0;
    }

    /**
     * May @p var_id carry an untouched initial byte of the state
     * image? True for clobber reads (a symbolic store may or may not
     * have hit the byte), widened loop slots, and undefined temps —
     * but not for symbolic-load results, which are genuine machine
     * reads: a value computed from one is still deterministically
     * written wherever it is stored.
     */
    bool may_keep_initial(u32 var_id) const
    {
        return kept_ids_.count(var_id) != 0;
    }

    ExprRef initial_byte(u32 addr);

    /** The byte value a load at @p addr sees in @p exit's state. */
    ExprRef exit_byte(const ExitState &exit, u32 addr)
    {
        return read_byte(exit.mem, exit.clobber, addr,
                         "x:" + std::to_string(exit.stmt));
    }

    /** How much the analysis knows about an invented variable. */
    enum class VarClass : u8
    {
        Transparent, ///< Defined function of the inputs (initial
                     ///< bytes, join choices).
        OpaqueRead,  ///< Unknown value the program genuinely read
                     ///< (symbolic-address loads).
        OpaqueKept,  ///< Unknown value that may be an untouched
                     ///< initial byte (clobber reads, widened slots,
                     ///< undefined temps).
    };

  private:
    /**
     * Deterministically-keyed analysis variable: the same key always
     * yields the same variable within one run, which is what makes
     * re-executing blocks across fixpoint rounds stable.
     */
    ExprRef keyed_var(const std::string &key, unsigned width,
                      VarClass cls);

    ExprRef resolve(const ExprRef &x, const AbsState &st);

    ExprRef read_byte(const std::map<u32, MemCell> &mem,
                      const std::vector<ClobberRange> &clobber, u32 addr,
                      const std::string &ctx);

    FactEnv make_env(const AbsState &st);

    Decision decide(BlockId block, const ExprRef &cond, const AbsState &st);

    AbsState entry_state();

    using EdgeOut = std::pair<BlockId, AbsState>;
    std::vector<EdgeOut> exec_block(BlockId b, const AbsState &in,
                                    bool final);

    AbsState join2(const AbsState &a, const AbsState &b,
                   const std::string &key);

    AbsState widen(const AbsState &prev, const AbsState &next, BlockId s);

    void compute_cycle_taint();

    BlockId target_block(ir::Label label) const
    {
        return cfg_.block_of(program_.label_pos[label]);
    }

    const ir::Program &program_;
    const Cfg &cfg_;
    const DataflowConfig &config_;

    std::map<std::string, ExprRef> keyed_;
    u32 next_id_ = 0;
    std::unordered_set<u32> opaque_ids_;
    std::unordered_set<u32> kept_ids_;
    std::unordered_map<u32, ExprRef> init_bytes_;

    std::vector<bool> cycle_tainted_;
    FinalData final_;
};

ExprRef
Engine::keyed_var(const std::string &key, unsigned width, VarClass cls)
{
    auto it = keyed_.find(key);
    if (it != keyed_.end())
        return it->second;
    const u32 id = config_.private_var_base + next_id_++;
    auto v = ir::E::var(id, "df:" + key, width);
    if (cls != VarClass::Transparent)
        opaque_ids_.insert(id);
    if (cls == VarClass::OpaqueKept)
        kept_ids_.insert(id);
    keyed_.emplace(key, v);
    return v;
}

ExprRef
Engine::initial_byte(u32 addr)
{
    auto it = init_bytes_.find(addr);
    if (it != init_bytes_.end())
        return it->second;
    ExprRef v = config_.initial_byte
        ? config_.initial_byte(addr)
        : keyed_var("i:" + std::to_string(addr), 8,
                    VarClass::Transparent);
    init_bytes_.emplace(addr, v);
    return v;
}

ExprRef
Engine::resolve(const ExprRef &x, const AbsState &st)
{
    return ir::substitute(x, [&](const Expr &leaf) -> ExprRef {
        if (leaf.kind() != ir::ExprKind::Temp)
            return nullptr;
        const auto &v = st.temps[leaf.temp_id()];
        if (v)
            return v;
        // Verifier-clean programs define temps before use on every
        // path; an undefined slot can only feed dead code.
        return keyed_var("u:t" + std::to_string(leaf.temp_id()),
                         leaf.width(), VarClass::OpaqueKept);
    });
}

ExprRef
Engine::read_byte(const std::map<u32, MemCell> &mem,
                  const std::vector<ClobberRange> &clobber, u32 addr,
                  const std::string &ctx)
{
    auto it = mem.find(addr);
    if (it != mem.end())
        return it->second.value;
    if (clobber_contains(clobber, addr))
        return keyed_var(ctx + ":" + std::to_string(addr), 8,
                         VarClass::OpaqueKept);
    return initial_byte(addr);
}

FactEnv
Engine::make_env(const AbsState &st)
{
    FactEnv env;
    for (const auto &a : config_.assumes)
        env.assume(a);
    for (const auto &p : st.preds)
        env.assume(p);
    return env;
}

Decision
Engine::decide(BlockId block, const ExprRef &cond, const AbsState &st)
{
    // A condition that resolves to a literal constant is constant on
    // every dynamic execution, loops included: no free variable is
    // involved, so iteration-reused analysis variables cannot have
    // conflated distinct values.
    if (cond->is_const())
        return cond->value() ? Decision::AlwaysTrue : Decision::AlwaysFalse;
    if (cycle_tainted_[block])
        return Decision::Unknown;
    for (const auto &p : st.preds) {
        if (Expr::equal(p, cond))
            return Decision::AlwaysTrue;
        if (is_negation_of(p, cond))
            return Decision::AlwaysFalse;
    }
    FactEnv env = make_env(st);
    const Fact f = env.eval(cond);
    if (auto d = f.decide())
        return *d ? Decision::AlwaysTrue : Decision::AlwaysFalse;
    return Decision::Unknown;
}

AbsState
Engine::entry_state()
{
    AbsState st;
    st.reachable = true;
    st.temps.resize(program_.num_temps());
    for (const auto &a : config_.assumes)
        push_pred(st, a);
    return st;
}

std::vector<Engine::EdgeOut>
Engine::exec_block(BlockId b, const AbsState &in, bool final)
{
    const BasicBlock &blk = cfg_.blocks()[b];
    AbsState st = in;
    for (u32 i = blk.first; i < blk.end; ++i) {
        const ir::Stmt &s = program_.stmts[i];
        if (final)
            final_.stmt_reachable[i] = true;
        switch (s.kind) {
          case ir::StmtKind::Assign:
            st.temps[s.temp] = resolve(s.expr, st);
            break;
          case ir::StmtKind::Load: {
            const ExprRef addr = resolve(s.addr, st);
            if (addr->is_const()) {
                const u32 a = static_cast<u32>(addr->value());
                if (final)
                    final_.const_addr[i] = a;
                // Assemble bytes exactly like SymbolicMemory::load so
                // structurally-equal values stay structurally equal.
                ExprRef value = read_byte(st.mem, st.clobber, a,
                                          "c:" + std::to_string(i));
                for (unsigned k = 1; k < s.size; ++k)
                    value = ir::E::concat(
                        read_byte(st.mem, st.clobber, a + k,
                                  "c:" + std::to_string(i)),
                        value);
                st.temps[s.temp] = value;
            } else {
                st.temps[s.temp] = keyed_var("l:" + std::to_string(i),
                                             8 * s.size,
                                             VarClass::OpaqueRead);
            }
            break;
          }
          case ir::StmtKind::Store: {
            const ExprRef addr = resolve(s.addr, st);
            const ExprRef value = resolve(s.expr, st);
            if (addr->is_const()) {
                const u32 a = static_cast<u32>(addr->value());
                if (final) {
                    final_.const_addr[i] = a;
                    for (unsigned k = 0; k < s.size; ++k)
                        final_.writes.may_bytes.insert(a + k);
                }
                for (unsigned k = 0; k < s.size; ++k)
                    st.mem[a + k] = {ir::E::extract(value, 8 * k, 8), true};
            } else {
                FactEnv env = make_env(st);
                const Fact f = env.eval(addr);
                u64 lo = f.bottom ? 0 : f.lo;
                u64 hi = f.bottom ? kAddrMax : f.hi;
                if (hi + s.size - 1 > kAddrMax) {
                    // The store could wrap modulo 2^32.
                    lo = 0;
                    hi = kAddrMax;
                } else {
                    hi += s.size - 1;
                }
                clobber_insert(st.clobber, static_cast<u32>(lo),
                               static_cast<u32>(hi));
                st.mem.erase(st.mem.lower_bound(static_cast<u32>(lo)),
                             st.mem.upper_bound(static_cast<u32>(hi)));
                if (final) {
                    auto &w = final_.writes;
                    if (!w.symbolic_store) {
                        w.clobber_lo = static_cast<u32>(lo);
                        w.clobber_hi = static_cast<u32>(hi);
                    } else {
                        w.clobber_lo =
                            std::min(w.clobber_lo, static_cast<u32>(lo));
                        w.clobber_hi =
                            std::max(w.clobber_hi, static_cast<u32>(hi));
                    }
                    w.symbolic_store = true;
                }
            }
            break;
          }
          case ir::StmtKind::CJmp: {
            const ExprRef cond = resolve(s.expr, st);
            const Decision d = decide(b, cond, st);
            if (final)
                final_.decisions[i] = d;
            const BlockId tb = target_block(s.target_true);
            const BlockId fb = target_block(s.target_false);
            std::vector<EdgeOut> outs;
            if (d != Decision::AlwaysFalse) {
                AbsState t_out = st;
                push_pred(t_out, cond);
                outs.emplace_back(tb, std::move(t_out));
            }
            if (d != Decision::AlwaysTrue) {
                AbsState f_out = st;
                push_pred(f_out, ir::E::lnot(cond));
                outs.emplace_back(fb, std::move(f_out));
            }
            return outs;
          }
          case ir::StmtKind::Jmp:
            return {{target_block(s.target_true), std::move(st)}};
          case ir::StmtKind::Assume: {
            const ExprRef cond = resolve(s.expr, st);
            const Decision d = decide(b, cond, st);
            if (final)
                final_.decisions[i] = d;
            if (d == Decision::AlwaysFalse)
                return {}; // Path abandoned.
            push_pred(st, cond);
            break;
          }
          case ir::StmtKind::Halt: {
            if (final) {
                ExitState x;
                x.stmt = i;
                x.code = resolve(s.expr, st);
                x.mem = st.mem;
                x.clobber = st.clobber;
                final_.exits.push_back(std::move(x));
            }
            return {};
          }
          case ir::StmtKind::Comment:
            break;
        }
    }
    if (blk.falls_off_end)
        return {}; // Verifier-clean programs never get here.
    return {{cfg_.block_of(blk.end), std::move(st)}};
}

AbsState
Engine::join2(const AbsState &a, const AbsState &b, const std::string &key)
{
    AbsState r;
    r.reachable = true;
    // Choice true selects the a side; one variable per join edge keeps
    // correlated slots correlated (exact for two-way joins).
    const ExprRef choice = keyed_var("j:" + key, 1,
                                     VarClass::Transparent);
    r.temps.resize(a.temps.size());
    for (std::size_t t = 0; t < a.temps.size(); ++t) {
        if (!a.temps[t] || !b.temps[t])
            continue;
        r.temps[t] = Expr::equal(a.temps[t], b.temps[t])
            ? a.temps[t]
            : ir::E::ite(choice, a.temps[t], b.temps[t]);
    }
    r.clobber = clobber_union(a.clobber, b.clobber);
    auto ia = a.mem.begin();
    auto ib = b.mem.begin();
    while (ia != a.mem.end() || ib != b.mem.end()) {
        u32 addr;
        if (ia == a.mem.end())
            addr = ib->first;
        else if (ib == b.mem.end())
            addr = ia->first;
        else
            addr = std::min(ia->first, ib->first);
        const bool in_a = ia != a.mem.end() && ia->first == addr;
        const bool in_b = ib != b.mem.end() && ib->first == addr;
        const std::string ctx = "jc:" + key;
        const ExprRef va = in_a ? ia->second.value
                                : read_byte(a.mem, a.clobber, addr, ctx);
        const ExprRef vb = in_b ? ib->second.value
                                : read_byte(b.mem, b.clobber, addr, ctx);
        MemCell cell;
        cell.value = Expr::equal(va, vb) ? va : ir::E::ite(choice, va, vb);
        cell.always = in_a && ia->second.always && in_b &&
                      ib->second.always;
        r.mem.emplace(addr, std::move(cell));
        if (in_a)
            ++ia;
        if (in_b)
            ++ib;
    }
    for (const auto &p : a.preds)
        if (preds_contain(b.preds, p))
            r.preds.push_back(p);
    return r;
}

AbsState
Engine::widen(const AbsState &prev, const AbsState &next, BlockId s)
{
    if (!prev.reachable || !next.reachable)
        return next;
    AbsState r;
    r.reachable = true;
    const std::string base = "w:" + std::to_string(s);
    r.temps.resize(next.temps.size());
    for (std::size_t t = 0; t < next.temps.size(); ++t) {
        const bool stable = prev.temps[t] && next.temps[t] &&
                            Expr::equal(prev.temps[t], next.temps[t]);
        if (stable)
            r.temps[t] = next.temps[t];
        else if (prev.temps[t] || next.temps[t])
            r.temps[t] = keyed_var(base + ":t" + std::to_string(t),
                                   program_.temp_width[t],
                                   VarClass::OpaqueKept);
    }
    r.clobber = prev.clobber == next.clobber
        ? next.clobber
        : clobber_union(prev.clobber, next.clobber);
    auto keys_of = [](const std::map<u32, MemCell> &m) {
        std::vector<u32> k;
        k.reserve(m.size());
        for (const auto &[addr, cell] : m)
            k.push_back(addr);
        return k;
    };
    std::vector<u32> keys = keys_of(prev.mem);
    for (u32 k : keys_of(next.mem))
        keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (u32 addr : keys) {
        auto ip = prev.mem.find(addr);
        auto in = next.mem.find(addr);
        if (ip != prev.mem.end() && in != next.mem.end() &&
            ip->second.always == in->second.always &&
            Expr::equal(ip->second.value, in->second.value)) {
            r.mem.emplace(addr, in->second);
            continue;
        }
        MemCell cell;
        cell.value = keyed_var(base + ":m" + std::to_string(addr), 8,
                               VarClass::OpaqueKept);
        cell.always = ip != prev.mem.end() && ip->second.always &&
                      in != next.mem.end() && in->second.always;
        r.mem.emplace(addr, std::move(cell));
    }
    for (const auto &p : prev.preds)
        if (preds_contain(next.preds, p))
            r.preds.push_back(p);
    return r;
}

void
Engine::compute_cycle_taint()
{
    cycle_tainted_.assign(cfg_.num_blocks(), false);
    std::vector<u32> pos(cfg_.num_blocks(), ~u32{0});
    const auto &rpo = cfg_.reverse_postorder();
    for (u32 i = 0; i < rpo.size(); ++i)
        pos[rpo[i]] = i;
    // Retreating edges (target not later in RPO) over-approximate back
    // edges; everything reachable from a retreat target sits in or
    // after a loop and is tainted.
    std::vector<BlockId> work;
    for (BlockId b : rpo)
        for (BlockId succ : cfg_.blocks()[b].succs)
            if (pos[succ] != ~u32{0} && pos[succ] <= pos[b] &&
                !cycle_tainted_[succ]) {
                cycle_tainted_[succ] = true;
                work.push_back(succ);
            }
    while (!work.empty()) {
        const BlockId b = work.back();
        work.pop_back();
        for (BlockId succ : cfg_.blocks()[b].succs)
            if (!cycle_tainted_[succ]) {
                cycle_tainted_[succ] = true;
                work.push_back(succ);
            }
    }
}

ProgramFacts
Engine::run()
{
    const u32 nb = cfg_.num_blocks();
    const u32 ns = static_cast<u32>(program_.stmts.size());
    ProgramFacts facts;
    facts.decisions.assign(ns, Decision::Unknown);
    facts.stmt_reachable.assign(ns, false);
    facts.block_reachable.assign(nb, false);
    facts.const_addr.assign(ns, std::nullopt);
    compute_cycle_taint();
    facts.cycle_tainted = cycle_tainted_;

    // In-place RPO propagation: each block's in-state is recomputed
    // from the freshest predecessor edge-outs, so an acyclic program
    // converges in one round (plus one to confirm). Only back edges
    // feed stale states and need iteration; widening is therefore
    // restricted to cycle-tainted blocks, keeping deep acyclic
    // programs fully precise regardless of the round count.
    std::vector<AbsState> in(nb);
    std::vector<std::vector<EdgeOut>> edge_outs(nb);
    bool converged = false;
    for (unsigned round = 0; round < config_.max_rounds; ++round) {
        bool changed = false;
        for (BlockId b : cfg_.reverse_postorder()) {
            AbsState acc;
            bool have = false;
            if (b == cfg_.entry()) {
                acc = entry_state();
                have = true;
            }
            for (BlockId p = 0; p < nb; ++p) {
                u32 occ = 0;
                for (const auto &[succ, out] : edge_outs[p]) {
                    if (succ != b)
                        continue;
                    const std::string key = std::to_string(b) + ":" +
                        std::to_string(p) + ":" + std::to_string(occ);
                    ++occ;
                    if (!out.reachable)
                        continue;
                    if (!have) {
                        acc = out;
                        have = true;
                    } else {
                        acc = join2(acc, out, key);
                    }
                }
            }
            AbsState merged = round + 1 >= config_.max_rounds_before_widen &&
                    cycle_tainted_[b]
                ? widen(in[b], acc, b)
                : std::move(acc);
            if (states_equal(in[b], merged))
                continue;
            changed = true;
            in[b] = std::move(merged);
            edge_outs[b] = in[b].reachable
                ? exec_block(b, in[b], /*final=*/false)
                : std::vector<EdgeOut>{};
        }
        if (!changed) {
            converged = true;
            break;
        }
    }
    facts.converged = converged;
    if (!converged)
        return facts; // analyzed stays false: no facts survive.

    final_.decisions.assign(ns, Decision::Unknown);
    final_.stmt_reachable.assign(ns, false);
    final_.const_addr.assign(ns, std::nullopt);
    for (BlockId b : cfg_.reverse_postorder()) {
        if (!in[b].reachable)
            continue;
        facts.block_reachable[b] = true;
        exec_block(b, in[b], /*final=*/true);
    }
    facts.decisions = final_.decisions;
    facts.stmt_reachable = final_.stmt_reachable;
    facts.const_addr = final_.const_addr;

    // Must-write bytes: overwritten (cell.always) at every exit.
    auto &w = final_.writes;
    bool first_exit = true;
    for (const ExitState &x : final_.exits) {
        std::set<u32> here;
        for (const auto &[addr, cell] : x.mem)
            if (cell.always)
                here.insert(addr);
        if (first_exit) {
            w.must_bytes = std::move(here);
            first_exit = false;
        } else {
            std::set<u32> keep;
            std::set_intersection(w.must_bytes.begin(), w.must_bytes.end(),
                                  here.begin(), here.end(),
                                  std::inserter(keep, keep.begin()));
            w.must_bytes = std::move(keep);
        }
    }
    facts.writes = w;

    for (u32 i = 0; i < ns; ++i) {
        if (!facts.stmt_reachable[i] ||
            facts.decisions[i] == Decision::Unknown)
            continue;
        if (program_.stmts[i].kind == ir::StmtKind::CJmp)
            ++facts.decided_cjmps;
        else if (program_.stmts[i].kind == ir::StmtKind::Assume)
            ++facts.decided_assumes;
    }
    facts.analyzed = true;
    return facts;
}

/**
 * Bit @p i of @p e as a 1-bit expression. E::extract already folds
 * through extracts, casts, concat, bitwise operators and ite; shifts
 * by constants are peeled here so flag bits routed through
 * `flags << 0` style plumbing still reach their defining expression.
 */
ExprRef
bit_of(const ExprRef &e, unsigned i)
{
    ExprRef r = ir::E::extract(e, i, 1);
    if (r->kind() != ir::ExprKind::Cast ||
        r->cast() != ir::CastKind::Extract || r->width() != 1)
        return r;
    const ExprRef inner = r->a();
    const unsigned k = r->extract_lo();
    if (inner->kind() == ir::ExprKind::BinOp && inner->b()->is_const()) {
        const unsigned c =
            static_cast<unsigned>(std::min<u64>(inner->b()->value(), 64));
        if (inner->binop() == ir::BinOpKind::Shl) {
            if (k < c)
                return ir::E::constant(1, 0);
            return bit_of(inner->a(), k - c);
        }
        if (inner->binop() == ir::BinOpKind::LShr) {
            if (k + c >= inner->a()->width())
                return ir::E::constant(1, 0);
            return bit_of(inner->a(), k + c);
        }
    }
    return r;
}

enum class BitClass : u8 { Unchanged, Written, Cond };

BitClass
classify_bit(const Engine &eng, const ExprRef &bit, const ExprRef &init_bit)
{
    if (Expr::equal(bit, init_bit))
        return BitClass::Unchanged;
    if (bit->kind() == ir::ExprKind::Ite) {
        const BitClass t = classify_bit(eng, bit->b(), init_bit);
        const BitClass f = classify_bit(eng, bit->c(), init_bit);
        return t == f ? t : BitClass::Cond;
    }
    // Variables that may carry the untouched initial value (widened
    // slots, clobber reads, undefined temps) make the bit only
    // conditionally written. Initial-state variables and symbolic-load
    // results are fine: `cf := !cf_in` writes CF on every execution,
    // and so does storing a flag computed from a memory operand.
    std::vector<ExprRef> vars;
    Expr::collect_vars(bit, vars);
    for (const auto &v : vars)
        if (eng.may_keep_initial(v->var_id()))
            return BitClass::Cond;
    return BitClass::Written;
}

} // namespace

const char *
prune_mode_name(PruneMode mode)
{
    switch (mode) {
      case PruneMode::Off:
        return "off";
      case PruneMode::On:
        return "on";
    }
    return "?";
}

ProgramFacts
analyze_program(const ir::Program &program, const Cfg &cfg,
                const DataflowConfig &config)
{
    Engine engine(program, cfg, config);
    return engine.run();
}

FlagSummary
flag_write_summary(const ir::Program &program, u32 eflags_addr,
                   u32 ok_halt_code)
{
    const Cfg cfg = Cfg::build(program);
    const DataflowConfig config; // Pure mode: fresh per-byte inputs.
    Engine engine(program, cfg, config);
    const ProgramFacts facts = engine.run();
    FlagSummary fs;
    if (!facts.analyzed) {
        fs.capped = true;
        return fs;
    }
    fs.analyzed = true;
    u32 must = kStatusFlagsMask;
    for (const ExitState &x : engine.exits()) {
        // Non-constant exit codes are conservatively treated as
        // completing: their flag effects widen may and narrow must.
        if (x.code->is_const() && x.code->value() != ok_halt_code)
            continue;
        ++fs.ok_exits;
        ExprRef dword = engine.exit_byte(x, eflags_addr);
        for (unsigned k = 1; k < 4; ++k)
            dword = ir::E::concat(engine.exit_byte(x, eflags_addr + k),
                                  dword);
        for (unsigned i = 0; i < 32; ++i) {
            if (!(kStatusFlagsMask & (1u << i)))
                continue;
            const ExprRef bit = bit_of(dword, i);
            const ExprRef init_bit =
                ir::E::extract(engine.initial_byte(eflags_addr + i / 8),
                               i % 8, 1);
            switch (classify_bit(engine, bit, init_bit)) {
              case BitClass::Unchanged:
                must &= ~(1u << i);
                break;
              case BitClass::Written:
                fs.may |= 1u << i;
                break;
              case BitClass::Cond:
                fs.may |= 1u << i;
                must &= ~(1u << i);
                break;
            }
        }
    }
    if (fs.ok_exits == 0) {
        fs.capped = true;
        fs.may = 0;
        fs.must = 0;
        return fs;
    }
    fs.must = must & fs.may;
    return fs;
}

} // namespace pokeemu::analysis
