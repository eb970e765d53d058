/**
 * @file
 * Allocation gate for the expression walkers: with the counting
 * operator new of alloc_counter.h, requires that, once warmed up,
 *  - ir::eval_expr allocates nothing,
 *  - ir::Expr::collect_vars into a reserved vector allocates nothing,
 *  - ir::substitute whose every node is already interned allocates
 *    nothing, and
 *  - ir::run_concrete allocates the same for 10 and 1,000 loop
 *    iterations, i.e. nothing per statement.
 * Exit status 0 iff every check holds.
 */
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "alloc_counter.h"
#include "ir/builder.h"
#include "ir/eval.h"

namespace pokeemu::ir {
namespace {

/** Flat memory that itself never allocates. */
class ArrayMemory : public ConcreteMemory
{
  public:
    u64
    load(u32 addr, unsigned size) override
    {
        u64 v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= u64{bytes_[(addr + i) % sizeof bytes_]} << (8 * i);
        return v;
    }

    void
    store(u32 addr, unsigned size, u64 value) override
    {
        for (unsigned i = 0; i < size; ++i) {
            bytes_[(addr + i) % sizeof bytes_] =
                static_cast<u8>(value >> (8 * i));
        }
    }

  private:
    u8 bytes_[64] = {};
};

int failures = 0;

void
check(const char *what, long allocated, long allowed)
{
    const bool ok = allocated <= allowed;
    std::printf("%-58s %6ld allocations (at most %ld)  %s\n", what,
                allocated, allowed, ok ? "ok" : "FAIL");
    if (!ok)
        ++failures;
}

/** Allocations made by @p reps calls of @p fn. */
template <typename Fn>
long
count(int reps, Fn &&fn)
{
    const long before = test::alloc_count().calls;
    for (int i = 0; i < reps; ++i)
        fn();
    return test::alloc_count().calls - before;
}

/** A shared DAG over two Vars and a Temp: a doubling chain, widened,
 *  compared and selected on, with extracts of every byte. */
ExprRef
sample_expr()
{
    const ExprRef v = E::var(1, "v", 32);
    const ExprRef w = E::var(2, "w", 8);
    ExprRef x = E::add(v, E::temp(0, 32));
    for (int i = 0; i < 40; ++i)
        x = E::bxor(E::add(x, x), E::zext(w, 32));
    ExprRef bytes = E::extract(x, 0, 8);
    for (unsigned lo = 8; lo < 32; lo += 8)
        bytes = E::add(bytes, E::extract(x, lo, 8));
    return E::ite(E::ult(bytes, w), E::sext(bytes, 32), E::neg(x));
}

/** Sum the value at 0x0 down to zero into 0x4. */
Program
countdown_program()
{
    IrBuilder b("countdown");
    const Label head = b.here();
    const ExprRef n = b.load(IrBuilder::imm32(0x0), 4);
    const Label done = b.label();
    b.if_goto(E::eq(n, IrBuilder::imm32(0)), done);
    const ExprRef acc = b.load(IrBuilder::imm32(0x4), 4);
    b.store(IrBuilder::imm32(0x4), 4, E::add(acc, n));
    b.store(IrBuilder::imm32(0x0), 4, E::sub(n, IrBuilder::imm32(1)));
    b.jmp(head);
    b.bind(done);
    b.halt(0);
    return b.finish();
}

int
run()
{
    const ExprRef x = sample_expr();

    const std::function<u64(const Expr &)> lookup =
        [](const Expr &leaf) -> u64 { return leaf.var_id() * 0x9e37 + 1; };
    const u64 value = eval_expr(x, &lookup);
    check("eval_expr, 1000 warmed-up calls", count(1000, [&] {
              if (eval_expr(x, &lookup) != value)
                  std::abort();
          }),
          0);

    std::vector<ExprRef> vars;
    vars.reserve(8);
    Expr::collect_vars(x, vars);
    check("collect_vars into a reserved vector, 1000 calls",
          count(1000, [&] {
              vars.clear();
              Expr::collect_vars(x, vars);
          }),
          0);

    const ExprRef u = E::var(3, "u", 32);
    const std::function<ExprRef(const Expr &)> map =
        [&](const Expr &leaf) -> ExprRef {
        return leaf.kind() == ExprKind::Temp ? u : nullptr;
    };
    const ExprRef substituted = substitute(x, map);
    check("substitute onto interned nodes, 1000 calls", count(1000, [&] {
              if (substitute(x, map) != substituted)
                  std::abort();
          }),
          0);

    const Program p = countdown_program();
    ArrayMemory mem;
    u64 steps = 0;
    const auto run_countdown = [&](u32 n) {
        mem.store(0x0, 4, n);
        mem.store(0x4, 4, 0);
        const RunResult r = run_concrete(p, mem);
        if (r.status != RunStatus::Halted ||
            mem.load(0x4, 4) != u64{n} * (n + 1) / 2) {
            std::abort();
        }
        steps = r.steps;
    };
    run_countdown(1000);
    const long short_run = count(1, [&] { run_countdown(10); });
    const u64 short_steps = steps;
    const long long_run = count(1, [&] { run_countdown(1000); });
    std::printf("run_concrete: %ld allocations in %llu statements, %ld in "
                "%llu\n", short_run,
                static_cast<unsigned long long>(short_steps), long_run,
                static_cast<unsigned long long>(steps));
    check("run_concrete, 1000 vs 10 loop iterations", long_run - short_run,
          0);

    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace pokeemu::ir

int
main()
{
    return pokeemu::ir::run();
}
