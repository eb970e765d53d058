#include "ir/eval.h"

namespace pokeemu::ir {

RunResult
run_concrete(const Program &program, ConcreteMemory &memory, u64 max_steps)
{
    std::vector<u64> env(program.num_temps(), 0);
    // Statement expressions read temps only; generated programs bind
    // intermediate values to temps, so each evaluation is shallow.
    const std::function<u64(const Expr &)> read_temp =
        [&](const Expr &leaf) -> u64 {
        if (leaf.kind() == ExprKind::Temp)
            return env[leaf.temp_id()];
        panic("concrete evaluation hit free symbolic variable " +
              leaf.name());
    };
    const auto eval = [&](const ExprRef &x) {
        return eval_expr(x, &read_temp);
    };
    RunResult result;
    u32 pc = 0;

    while (result.steps < max_steps) {
        if (pc >= program.stmts.size())
            panic(program.name + ": fell off program end");
        const Stmt &s = program.stmts[pc];
        ++result.steps;
        switch (s.kind) {
          case StmtKind::Assign:
            env[s.temp] = eval(s.expr);
            ++pc;
            break;
          case StmtKind::Load: {
            const u32 addr = static_cast<u32>(eval(s.addr));
            env[s.temp] = memory.load(addr, s.size);
            ++pc;
            break;
          }
          case StmtKind::Store: {
            const u32 addr = static_cast<u32>(eval(s.addr));
            memory.store(addr, s.size, eval(s.expr));
            ++pc;
            break;
          }
          case StmtKind::CJmp: {
            const bool taken = eval(s.expr) != 0;
            pc = program.label_pos[taken ? s.target_true
                                         : s.target_false];
            break;
          }
          case StmtKind::Jmp:
            pc = program.label_pos[s.target_true];
            break;
          case StmtKind::Assume:
            if (eval(s.expr) == 0) {
                result.status = RunStatus::AssumeFailed;
                return result;
            }
            ++pc;
            break;
          case StmtKind::Halt:
            result.status = RunStatus::Halted;
            result.halt_code = static_cast<u32>(eval(s.expr));
            return result;
          case StmtKind::Comment:
            ++pc;
            break;
        }
    }
    result.status = RunStatus::StepLimit;
    return result;
}

} // namespace pokeemu::ir
