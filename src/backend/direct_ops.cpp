/**
 * @file
 * DirectCpu::execute — the per-instruction behaviour of the direct
 * backend, mirroring hifi/semantics_ops*.cpp formula-for-formula,
 * with the Behavior knobs at every paper-§6.2 divergence point.
 */
#include "backend/direct_cpu.h"

#include <limits>

#include "arch/descriptors.h"
#include "arch/fetch.h"

namespace pokeemu::backend {

using arch::AluKind;
using arch::DecodedInsn;
using arch::Op;
using arch::ShiftKind;

namespace {

[[noreturn]] void
raise(u8 vector, u32 error, bool has_error)
{
    throw arch::GuestFault{vector, error, has_error, false, 0};
}

u64
sext8(u32 imm, unsigned width)
{
    return truncate(static_cast<u64>(sign_extend(imm & 0xff, 8)),
                    width);
}

} // namespace

void
DirectCpu::execute(Work &w, const DecodedInsn &insn)
{
    const Op op = insn.desc->op;
    const u32 next_eip = w.c.eip + insn.length;
    auto done = [&] { w.c.eip = next_eip; };
    auto set_flag = [&](u32 bit, bool v) {
        w.c.eflags = v ? (w.c.eflags | bit) : (w.c.eflags & ~bit);
    };
    auto clean_eflags = [&] {
        w.c.eflags =
            (w.c.eflags & ~0x8028u) | arch::kFlagFixed1;
    };

    switch (op) {
      // ----------------------------------------------------------- ALU
      case Op::AluRm8R8: case Op::AluRm32R32: case Op::AluR8Rm8:
      case Op::AluR32Rm32: case Op::AluAlImm8: case Op::AluEaxImm32:
      case Op::Grp1Rm8Imm8: case Op::Grp1Rm32Imm32:
      case Op::Grp1Rm32Imm8: {
        const AluKind kind = static_cast<AluKind>(insn.desc->aux);
        const unsigned width =
            (op == Op::AluRm8R8 || op == Op::AluR8Rm8 ||
             op == Op::AluAlImm8 || op == Op::Grp1Rm8Imm8)
                ? 8 : 32;
        const bool is_cmp = kind == AluKind::Cmp;
        enum class Dst { Rm, Reg, Acc } dst;
        u64 a, b;
        u32 mem_phys = 0;
        bool mem_dst = false;
        switch (op) {
          case Op::AluRm8R8: case Op::AluRm32R32:
            dst = Dst::Rm;
            if (insn.mod == 3) {
                a = get_reg(w, insn.rm, width);
            } else if (is_cmp) {
                a = read_rm(w, insn, width);
            } else {
                mem_phys = prepare_write(w, effective_segment(insn),
                                         effective_address(w, insn),
                                         width / 8);
                a = read_phys(mem_phys, width / 8);
                mem_dst = true;
            }
            b = get_reg(w, insn.reg, width);
            break;
          case Op::AluR8Rm8: case Op::AluR32Rm32:
            dst = Dst::Reg;
            a = get_reg(w, insn.reg, width);
            b = read_rm(w, insn, width);
            break;
          case Op::AluAlImm8: case Op::AluEaxImm32:
            dst = Dst::Acc;
            a = get_reg(w, arch::kEax, width);
            b = insn.imm;
            break;
          default: // Grp1 forms.
            dst = Dst::Rm;
            if (insn.mod == 3) {
                a = get_reg(w, insn.rm, width);
            } else if (is_cmp) {
                a = read_rm(w, insn, width);
            } else {
                mem_phys = prepare_write(w, effective_segment(insn),
                                         effective_address(w, insn),
                                         width / 8);
                a = read_phys(mem_phys, width / 8);
                mem_dst = true;
            }
            b = op == Op::Grp1Rm32Imm8 ? sext8(insn.imm, 32)
                                       : insn.imm;
            break;
        }
        a = truncate(a, width);
        b = truncate(b, width);
        u64 res = 0;
        const u64 cf_in = (w.c.eflags & arch::kFlagCf) ? 1 : 0;
        switch (kind) {
          case AluKind::Add:
            flags_add(w, a, b, 0, width);
            res = a + b;
            break;
          case AluKind::Adc:
            flags_add(w, a, b, cf_in, width);
            res = a + b + cf_in;
            break;
          case AluKind::Sub:
          case AluKind::Cmp:
            flags_sub(w, a, b, 0, width);
            res = a - b;
            break;
          case AluKind::Sbb:
            flags_sub(w, a, b, cf_in, width);
            res = a - b - cf_in;
            break;
          case AluKind::And:
            res = a & b;
            flags_logic(w, res, width);
            break;
          case AluKind::Or:
            res = a | b;
            flags_logic(w, res, width);
            break;
          case AluKind::Xor:
            res = a ^ b;
            flags_logic(w, res, width);
            break;
        }
        res = truncate(res, width);
        if (!is_cmp) {
            if (dst == Dst::Rm && mem_dst)
                write_phys(mem_phys, width / 8, res);
            else if (dst == Dst::Rm)
                set_reg(w, insn.rm, width, res);
            else if (dst == Dst::Reg)
                set_reg(w, insn.reg, width, res);
            else
                set_reg(w, arch::kEax, width, res);
        }
        done();
        return;
      }

      // ------------------------------------------- inc/dec/push/pop
      case Op::IncR32: case Op::DecR32: {
        const unsigned r = insn.desc->aux;
        const u64 a = w.c.gpr[r];
        const bool inc = op == Op::IncR32;
        const u32 old_cf = w.c.eflags & arch::kFlagCf;
        if (inc)
            flags_add(w, a, 1, 0, 32);
        else
            flags_sub(w, a, 1, 0, 32);
        set_flag(arch::kFlagCf, old_cf != 0);
        w.c.gpr[r] = static_cast<u32>(inc ? a + 1 : a - 1);
        done();
        return;
      }
      case Op::IncRm8: case Op::DecRm8:
      case Op::IncRm32: case Op::DecRm32: {
        const unsigned width =
            (op == Op::IncRm8 || op == Op::DecRm8) ? 8 : 32;
        const bool inc = op == Op::IncRm8 || op == Op::IncRm32;
        u32 phys = 0;
        u64 a;
        if (insn.mod == 3) {
            a = get_reg(w, insn.rm, width);
        } else {
            phys = prepare_write(w, effective_segment(insn),
                                 effective_address(w, insn), width / 8);
            a = read_phys(phys, width / 8);
        }
        const u32 old_cf = w.c.eflags & arch::kFlagCf;
        if (inc)
            flags_add(w, a, 1, 0, width);
        else
            flags_sub(w, a, 1, 0, width);
        set_flag(arch::kFlagCf, old_cf != 0);
        const u64 res = truncate(inc ? a + 1 : a - 1, width);
        if (insn.mod == 3)
            set_reg(w, insn.rm, width, res);
        else
            write_phys(phys, width / 8, res);
        done();
        return;
      }
      case Op::PushR32:
        push32(w, w.c.gpr[insn.desc->aux]);
        done();
        return;
      case Op::PushImm32:
        push32(w, insn.imm);
        done();
        return;
      case Op::PushImm8:
        push32(w, static_cast<u32>(sext8(insn.imm, 32)));
        done();
        return;
      case Op::PushRm32:
        push32(w, static_cast<u32>(read_rm(w, insn, 32)));
        done();
        return;
      case Op::PopR32: {
        const u32 v = pop32(w);
        w.c.gpr[insn.desc->aux] = v;
        done();
        return;
      }
      case Op::PopRm32: {
        const u32 v = static_cast<u32>(
            read_mem(w, arch::kSs, w.c.gpr[arch::kEsp], 4));
        write_rm(w, insn, 32, v);
        w.c.gpr[arch::kEsp] += 4;
        done();
        return;
      }

      // ------------------------------------------------------- moves
      case Op::MovRm8R8: case Op::MovRm32R32: {
        const unsigned width = op == Op::MovRm8R8 ? 8 : 32;
        write_rm(w, insn, width, get_reg(w, insn.reg, width));
        done();
        return;
      }
      case Op::MovR8Rm8: case Op::MovR32Rm32: {
        const unsigned width = op == Op::MovR8Rm8 ? 8 : 32;
        set_reg(w, insn.reg, width, read_rm(w, insn, width));
        done();
        return;
      }
      case Op::MovRm8Imm8: case Op::MovRm32Imm32: {
        const unsigned width = op == Op::MovRm8Imm8 ? 8 : 32;
        write_rm(w, insn, width, insn.imm);
        done();
        return;
      }
      case Op::MovR8Imm8:
        set_reg(w, insn.desc->aux, 8, insn.imm);
        done();
        return;
      case Op::MovR32Imm32:
        w.c.gpr[insn.desc->aux] = insn.imm;
        done();
        return;
      case Op::MovRm16Sreg:
        if (insn.mod == 3)
            set_reg(w, insn.rm, 16, w.c.seg[insn.reg].selector);
        else
            write_mem(w, effective_segment(insn),
                      effective_address(w, insn), 2,
                      w.c.seg[insn.reg].selector);
        done();
        return;
      case Op::MovSregRm16:
        load_segment(w, insn.reg,
                     static_cast<u16>(read_rm(w, insn, 16)));
        done();
        return;
      case Op::Lea:
        w.c.gpr[insn.reg] = effective_address(w, insn);
        done();
        return;
      case Op::MovAlMoffs:
      case Op::MovEaxMoffs: {
        const unsigned seg = insn.seg_override >= 0
            ? static_cast<unsigned>(insn.seg_override)
            : static_cast<unsigned>(arch::kDs);
        if (op == Op::MovAlMoffs)
            set_reg(w, 0, 8, read_mem(w, seg, insn.imm, 1));
        else
            w.c.gpr[arch::kEax] =
                static_cast<u32>(read_mem(w, seg, insn.imm, 4));
        done();
        return;
      }
      case Op::MovMoffsAl:
      case Op::MovMoffsEax: {
        const unsigned seg = insn.seg_override >= 0
            ? static_cast<unsigned>(insn.seg_override)
            : static_cast<unsigned>(arch::kDs);
        if (op == Op::MovMoffsAl)
            write_mem(w, seg, insn.imm, 1, get_reg(w, 0, 8));
        else
            write_mem(w, seg, insn.imm, 4, w.c.gpr[arch::kEax]);
        done();
        return;
      }

      // -------------------------------------------------- test/xchg
      case Op::TestRm8R8: case Op::TestRm32R32: {
        const unsigned width = op == Op::TestRm8R8 ? 8 : 32;
        const u64 a = read_rm(w, insn, width);
        const u64 b = get_reg(w, insn.reg, width);
        flags_logic(w, truncate(a & b, width), width);
        done();
        return;
      }
      case Op::TestAlImm8: case Op::TestEaxImm32: {
        const unsigned width = op == Op::TestAlImm8 ? 8 : 32;
        flags_logic(
            w, truncate(get_reg(w, arch::kEax, width) & insn.imm,
                        width),
            width);
        done();
        return;
      }
      case Op::Grp3TestRm8Imm8: case Op::Grp3TestRm32Imm32: {
        const unsigned width = op == Op::Grp3TestRm8Imm8 ? 8 : 32;
        const u64 a = read_rm(w, insn, width);
        flags_logic(w, truncate(a & insn.imm, width), width);
        done();
        return;
      }
      case Op::XchgRm8R8: case Op::XchgRm32R32: {
        const unsigned width = op == Op::XchgRm8R8 ? 8 : 32;
        if (insn.mod == 3) {
            const u64 a = get_reg(w, insn.rm, width);
            const u64 b = get_reg(w, insn.reg, width);
            set_reg(w, insn.rm, width, b);
            set_reg(w, insn.reg, width, a);
        } else {
            const u32 phys =
                prepare_write(w, effective_segment(insn),
                              effective_address(w, insn), width / 8);
            const u64 a = read_phys(phys, width / 8);
            write_phys(phys, width / 8, get_reg(w, insn.reg, width));
            set_reg(w, insn.reg, width, a);
        }
        done();
        return;
      }
      case Op::XchgEaxR32: {
        std::swap(w.c.gpr[arch::kEax], w.c.gpr[insn.desc->aux]);
        done();
        return;
      }

      // ------------------------------------------------ conditionals
      case Op::JccRel8: case Op::JccRel32: {
        const s64 rel = op == Op::JccRel8
            ? sign_extend(insn.imm & 0xff, 8)
            : sign_extend(insn.imm, 32);
        if (cond_cc(w, insn.desc->aux))
            w.c.eip = next_eip + static_cast<u32>(rel);
        else
            w.c.eip = next_eip;
        return;
      }
      case Op::SetccRm8:
        write_rm(w, insn, 8, cond_cc(w, insn.desc->aux) ? 1 : 0);
        done();
        return;
      case Op::CmovccR32Rm32: {
        const u64 src = read_rm(w, insn, 32);
        if (cond_cc(w, insn.desc->aux))
            w.c.gpr[insn.reg] = static_cast<u32>(src);
        done();
        return;
      }

      // ------------------------------------------------------- misc
      case Op::Nop:
        done();
        return;
      case Op::Cwde:
        w.c.gpr[arch::kEax] = static_cast<u32>(
            sign_extend(w.c.gpr[arch::kEax] & 0xffff, 16));
        done();
        return;
      case Op::Cdq:
        w.c.gpr[arch::kEdx] =
            (w.c.gpr[arch::kEax] & 0x80000000u) ? 0xffffffffu : 0;
        done();
        return;
      case Op::Pushfd:
        push32(w, w.c.eflags & ~0x30000u);
        done();
        return;
      case Op::Popfd: {
        const u32 v = pop32(w);
        const u32 mask = 0x47fd5;
        w.c.eflags = (w.c.eflags & ~mask) | (v & mask);
        clean_eflags();
        done();
        return;
      }
      case Op::Sahf: {
        const u32 ah = (w.c.gpr[arch::kEax] >> 8) & 0xff;
        w.c.eflags = (w.c.eflags & ~0xd5u) | (ah & 0xd5);
        clean_eflags();
        done();
        return;
      }
      case Op::Lahf: {
        const u32 low = (w.c.eflags & 0xd5) | 0x02;
        set_reg(w, 4, 8, low); // AH.
        done();
        return;
      }

      // ----------------------------------------------------- strings
      case Op::Movs8: case Op::Movs32: case Op::Cmps8: case Op::Cmps32:
      case Op::Stos8: case Op::Stos32: case Op::Lods8:
      case Op::Lods32: case Op::Scas8: case Op::Scas32: {
        const unsigned width =
            (op == Op::Movs8 || op == Op::Cmps8 || op == Op::Stos8 ||
             op == Op::Lods8 || op == Op::Scas8)
                ? 8 : 32;
        const unsigned size = width / 8;
        const unsigned src_seg = insn.seg_override >= 0
            ? static_cast<unsigned>(insn.seg_override)
            : static_cast<unsigned>(arch::kDs);
        const bool rep = insn.rep || insn.repne;
        const bool is_cmps = op == Op::Cmps8 || op == Op::Cmps32;
        const bool is_scas = op == Op::Scas8 || op == Op::Scas32;
        for (;;) {
            if (rep && w.c.gpr[arch::kEcx] == 0)
                break;
            const u32 delta = (w.c.eflags & arch::kFlagDf)
                ? static_cast<u32>(-static_cast<s32>(size))
                : size;
            switch (op) {
              case Op::Movs8: case Op::Movs32: {
                const u64 v =
                    read_mem(w, src_seg, w.c.gpr[arch::kEsi], size);
                write_mem(w, arch::kEs, w.c.gpr[arch::kEdi], size, v);
                w.c.gpr[arch::kEsi] += delta;
                w.c.gpr[arch::kEdi] += delta;
                break;
              }
              case Op::Stos8: case Op::Stos32:
                write_mem(w, arch::kEs, w.c.gpr[arch::kEdi], size,
                          get_reg(w, arch::kEax, width));
                w.c.gpr[arch::kEdi] += delta;
                break;
              case Op::Lods8: case Op::Lods32:
                set_reg(w, arch::kEax, width,
                        read_mem(w, src_seg, w.c.gpr[arch::kEsi],
                                 size));
                w.c.gpr[arch::kEsi] += delta;
                break;
              case Op::Scas8: case Op::Scas32: {
                const u64 v =
                    read_mem(w, arch::kEs, w.c.gpr[arch::kEdi], size);
                flags_sub(w, get_reg(w, arch::kEax, width), v, 0,
                          width);
                w.c.gpr[arch::kEdi] += delta;
                break;
              }
              default: { // cmps
                const u64 v1 =
                    read_mem(w, src_seg, w.c.gpr[arch::kEsi], size);
                const u64 v2 =
                    read_mem(w, arch::kEs, w.c.gpr[arch::kEdi], size);
                flags_sub(w, v1, v2, 0, width);
                w.c.gpr[arch::kEsi] += delta;
                w.c.gpr[arch::kEdi] += delta;
                break;
              }
            }
            if (!rep)
                break;
            w.c.gpr[arch::kEcx] -= 1;
            if (is_cmps || is_scas) {
                const bool zf = w.c.eflags & arch::kFlagZf;
                if (insn.repne ? zf : !zf)
                    break;
            }
        }
        done();
        return;
      }

      // ------------------------------------------------------ shifts
      case Op::ShiftRm8Imm8: case Op::ShiftRm32Imm8:
      case Op::ShiftRm8One: case Op::ShiftRm32One:
      case Op::ShiftRm8Cl: case Op::ShiftRm32Cl: {
        const ShiftKind kind = static_cast<ShiftKind>(insn.desc->aux);
        const unsigned width =
            (op == Op::ShiftRm8Imm8 || op == Op::ShiftRm8One ||
             op == Op::ShiftRm8Cl)
                ? 8 : 32;
        unsigned count;
        if (op == Op::ShiftRm8Imm8 || op == Op::ShiftRm32Imm8)
            count = insn.imm & 0x1f;
        else if (op == Op::ShiftRm8One || op == Op::ShiftRm32One)
            count = 1;
        else
            count = w.c.gpr[arch::kEcx] & 0x1f;

        u32 phys = 0;
        u64 a;
        if (insn.mod == 3) {
            a = get_reg(w, insn.rm, width);
        } else {
            phys = prepare_write(w, effective_segment(insn),
                                 effective_address(w, insn), width / 8);
            a = read_phys(phys, width / 8);
        }
        a = truncate(a, width);
        if (count == 0) {
            // Value and flags untouched.
            if (insn.mod == 3)
                set_reg(w, insn.rm, width, a);
            else
                write_phys(phys, width / 8, a);
            done();
            return;
        }

        u64 res = 0;
        bool cf = false, of = false;
        switch (kind) {
          case ShiftKind::Shl:
          case ShiftKind::ShlAlias: {
            const u64 wide = a << count;
            res = truncate(wide, width);
            cf = get_bit(wide, width);
            of = cf != (get_bit(res, width - 1) != 0);
            break;
          }
          case ShiftKind::Shr:
            res = a >> count;
            cf = get_bit(a, count - 1);
            of = get_bit(a, width - 1);
            break;
          case ShiftKind::Sar: {
            const s64 sa = sign_extend(a, width);
            res = truncate(static_cast<u64>(sa >> count), width);
            cf = get_bit(static_cast<u64>(sa >> (count - 1)), 0);
            of = false;
            break;
          }
          case ShiftKind::Rol: {
            const unsigned cmod = count & (width - 1);
            res = truncate(
                (a << cmod) | (cmod ? (a >> (width - cmod)) : 0),
                width);
            cf = get_bit(res, 0);
            of = cf != (get_bit(res, width - 1) != 0);
            break;
          }
          case ShiftKind::Ror: {
            const unsigned cmod = count & (width - 1);
            res = truncate(
                (a >> cmod) | (cmod ? (a << (width - cmod)) : 0),
                width);
            cf = get_bit(res, width - 1);
            of = get_bit(res, width - 1) != get_bit(res, width - 2);
            break;
          }
          default:
            panic("rcl/rcr not in subset");
        }

        if (insn.mod == 3)
            set_reg(w, insn.rm, width, res);
        else
            write_phys(phys, width / 8, res);

        const bool is_rotate =
            kind == ShiftKind::Rol || kind == ShiftKind::Ror;
        // OF for count > 1 is documented-undefined: the hardware model
        // keeps the count==1 formula; the Lo-Fi style clears it.
        if (behavior_.undef_flags == UndefFlagStyle::LoFi && count > 1)
            of = false;
        set_flag(arch::kFlagCf, cf);
        set_flag(arch::kFlagOf, of);
        if (!is_rotate) {
            u32 extra_clear = 0;
            u32 extra_set = 0;
            if (behavior_.shift_clears_af)
                extra_clear = arch::kFlagAf;
            const u32 keep_cf_of =
                w.c.eflags & (arch::kFlagCf | arch::kFlagOf);
            set_flags_szp(w, res, width, extra_set | keep_cf_of,
                          extra_clear | arch::kFlagCf | arch::kFlagOf);
        }
        done();
        return;
      }

      // ------------------------------------------------ control flow
      case Op::Ret: {
        w.c.eip = pop32(w);
        return;
      }
      case Op::RetImm16: {
        const u32 target =
            static_cast<u32>(read_mem(w, arch::kSs,
                                      w.c.gpr[arch::kEsp], 4));
        w.c.gpr[arch::kEsp] += 4 + insn.imm;
        w.c.eip = target;
        return;
      }
      case Op::CallRel32:
        push32(w, next_eip);
        w.c.eip = next_eip +
                  static_cast<u32>(sign_extend(insn.imm, 32));
        return;
      case Op::JmpRel32:
      case Op::JmpRel8: {
        const s64 rel = op == Op::JmpRel8
            ? sign_extend(insn.imm & 0xff, 8)
            : sign_extend(insn.imm, 32);
        w.c.eip = next_eip + static_cast<u32>(rel);
        return;
      }
      case Op::CallRm32: {
        const u32 target = static_cast<u32>(read_rm(w, insn, 32));
        push32(w, next_eip);
        w.c.eip = target;
        return;
      }
      case Op::JmpRm32:
        w.c.eip = static_cast<u32>(read_rm(w, insn, 32));
        return;
      case Op::Leave: {
        const u32 ebp = w.c.gpr[arch::kEbp];
        if (behavior_.leave_atomic) {
            const u32 v = static_cast<u32>(
                read_mem(w, arch::kSs, ebp, 4));
            w.c.gpr[arch::kEsp] = ebp + 4;
            w.c.gpr[arch::kEbp] = v;
        } else {
            // Seeded QEMU bug (paper §6.2): ESP is updated before the
            // load; a fault leaves ESP corrupted.
            w.c.gpr[arch::kEsp] = ebp + 4;
            const u32 v = static_cast<u32>(
                read_mem(w, arch::kSs, ebp, 4));
            w.c.gpr[arch::kEbp] = v;
        }
        done();
        return;
      }
      case Op::Int3:
        raise(arch::kExcBp, 0, false);
      case Op::IntImm8:
        raise(static_cast<u8>(insn.imm), 0, false);
      case Op::Into:
        if (w.c.eflags & arch::kFlagOf)
            raise(arch::kExcOf, 0, false);
        done();
        return;
      case Op::JmpFar:
      case Op::CallFar: {
        // Direct far transfer, same-privilege only; mirrors the Hi-Fi
        // IR semantics check for check.
        const bool is_call = op == Op::CallFar;
        const u16 sel = insn.imm_sel;
        if ((sel & 0xfffc) == 0)
            raise(arch::kExcGp, 0, true);
        if (sel & 0x4)
            raise(arch::kExcGp, sel & 0xfffc, true);
        const u32 index = sel >> 3;
        if (w.c.gdtr.limit < index * 8 + 7)
            raise(arch::kExcGp, sel & 0xfffc, true);
        const u32 desc_addr = w.c.gdtr.base + index * 8;
        u8 bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = ram_.read8(desc_addr + i);
        const arch::Descriptor d = arch::decode_descriptor(bytes);
        if (!d.is_code_data() || !d.is_code())
            raise(arch::kExcGp, sel & 0xfffc, true);
        const bool conforming = (d.access & arch::kDescDc) != 0;
        bool bad_priv = d.dpl() != 0;
        if ((sel & 3) != 0)
            bad_priv = bad_priv || !conforming;
        if (bad_priv)
            raise(arch::kExcGp, sel & 0xfffc, true);
        if (!d.present())
            raise(arch::kExcNp, sel & 0xfffc, true);
        if (d.effective_limit() < insn.imm)
            raise(arch::kExcGp, 0, true);

        if (is_call) {
            push32(w, w.c.seg[arch::kCs].selector);
            push32(w, next_eip);
        }
        arch::SegmentReg cs = arch::make_segment_reg(
            static_cast<u16>(sel & 0xfffc), d);
        cs.access |= arch::kDescAccessed;
        w.c.seg[arch::kCs] = cs;
        ram_.write8(desc_addr + 5, bytes[5] | arch::kDescAccessed);
        w.c.eip = insn.imm;
        return;
      }
      case Op::Iret: {
        const u32 esp = w.c.gpr[arch::kEsp];
        u32 new_eip, cs_word, new_fl;
        if (behavior_.iret_pop_inner_first) {
            new_eip = static_cast<u32>(read_mem(w, arch::kSs, esp, 4));
            cs_word = static_cast<u32>(
                read_mem(w, arch::kSs, esp + 4, 4));
            new_fl = static_cast<u32>(
                read_mem(w, arch::kSs, esp + 8, 4));
        } else {
            // Seeded QEMU bug (paper §6.2): stack items read from the
            // outermost to the innermost.
            new_fl = static_cast<u32>(
                read_mem(w, arch::kSs, esp + 8, 4));
            cs_word = static_cast<u32>(
                read_mem(w, arch::kSs, esp + 4, 4));
            new_eip = static_cast<u32>(read_mem(w, arch::kSs, esp, 4));
        }
        const u16 sel = static_cast<u16>(cs_word);
        if ((sel & 0xfffc) == 0)
            raise(arch::kExcGp, 0, true);
        if (sel & 0x4)
            raise(arch::kExcGp, sel & 0xfffc, true);
        if (sel & 0x3)
            raise(arch::kExcGp, sel & 0xfffc, true);
        const u32 index = sel >> 3;
        if (w.c.gdtr.limit < index * 8 + 7)
            raise(arch::kExcGp, sel & 0xfffc, true);
        const u32 desc_addr = w.c.gdtr.base + index * 8;
        u8 bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = ram_.read8(desc_addr + i);
        const arch::Descriptor d = arch::decode_descriptor(bytes);
        if (!d.is_code_data() || !d.is_code())
            raise(arch::kExcGp, sel & 0xfffc, true);
        if (!d.present())
            raise(arch::kExcNp, sel & 0xfffc, true);

        arch::SegmentReg cs = arch::make_segment_reg(sel, d);
        if (behavior_.set_descriptor_accessed) {
            cs.access |= arch::kDescAccessed;
            ram_.write8(desc_addr + 5, bytes[5] | arch::kDescAccessed);
        }
        w.c.seg[arch::kCs] = cs;
        const u32 mask = 0x47fd5;
        w.c.eflags = (w.c.eflags & ~mask) | (new_fl & mask);
        clean_eflags();
        w.c.eip = new_eip;
        w.c.gpr[arch::kEsp] = esp + 12;
        return;
      }

      // ---------------------------------------------- far pointer loads
      case Op::Les: case Op::Lds: case Op::Lss: case Op::Lfs:
      case Op::Lgs: {
        unsigned target;
        switch (op) {
          case Op::Les: target = arch::kEs; break;
          case Op::Lds: target = arch::kDs; break;
          case Op::Lss: target = arch::kSs; break;
          case Op::Lfs: target = arch::kFs; break;
          default: target = arch::kGs; break;
        }
        const u32 ea = effective_address(w, insn);
        const unsigned seg = effective_segment(insn);
        u32 offset;
        u16 sel;
        if (behavior_.far_fetch_offset_first) {
            offset = static_cast<u32>(read_mem(w, seg, ea, 4));
            sel = static_cast<u16>(read_mem(w, seg, ea + 4, 2));
        } else {
            sel = static_cast<u16>(read_mem(w, seg, ea + 4, 2));
            offset = static_cast<u32>(read_mem(w, seg, ea, 4));
        }
        load_segment(w, target, sel);
        w.c.gpr[insn.reg] = offset;
        done();
        return;
      }

      // ---------------------------------------------------- flag ops
      case Op::Hlt:
        w.c.halted = 1;
        done();
        return;
      case Op::Clc:
        set_flag(arch::kFlagCf, false);
        done();
        return;
      case Op::Stc:
        set_flag(arch::kFlagCf, true);
        done();
        return;
      case Op::Cmc:
        set_flag(arch::kFlagCf, !(w.c.eflags & arch::kFlagCf));
        done();
        return;
      case Op::Cld:
        set_flag(arch::kFlagDf, false);
        done();
        return;
      case Op::Std:
        set_flag(arch::kFlagDf, true);
        done();
        return;
      case Op::Cli:
        set_flag(arch::kFlagIf, false);
        done();
        return;
      case Op::Sti:
        set_flag(arch::kFlagIf, true);
        done();
        return;

      // ---------------------------------------------------- group 3
      case Op::Grp3NotRm8: case Op::Grp3NotRm32: {
        const unsigned width = op == Op::Grp3NotRm8 ? 8 : 32;
        u32 phys = 0;
        u64 a;
        if (insn.mod == 3) {
            a = get_reg(w, insn.rm, width);
            set_reg(w, insn.rm, width, ~a);
        } else {
            phys = prepare_write(w, effective_segment(insn),
                                 effective_address(w, insn), width / 8);
            a = read_phys(phys, width / 8);
            write_phys(phys, width / 8, truncate(~a, width));
        }
        done();
        return;
      }
      case Op::Grp3NegRm8: case Op::Grp3NegRm32: {
        const unsigned width = op == Op::Grp3NegRm8 ? 8 : 32;
        u32 phys = 0;
        u64 a;
        if (insn.mod == 3) {
            a = get_reg(w, insn.rm, width);
        } else {
            phys = prepare_write(w, effective_segment(insn),
                                 effective_address(w, insn), width / 8);
            a = read_phys(phys, width / 8);
        }
        flags_sub(w, 0, a, 0, width);
        const u64 res = truncate(~a + 1, width);
        if (insn.mod == 3)
            set_reg(w, insn.rm, width, res);
        else
            write_phys(phys, width / 8, res);
        done();
        return;
      }
      case Op::Grp3MulRm8: case Op::Grp3MulRm32:
      case Op::Grp3ImulRm8: case Op::Grp3ImulRm32: {
        const unsigned width =
            (op == Op::Grp3MulRm8 || op == Op::Grp3ImulRm8) ? 8 : 32;
        const bool is_signed =
            op == Op::Grp3ImulRm8 || op == Op::Grp3ImulRm32;
        const u64 src = read_rm(w, insn, width);
        const u64 acc = get_reg(w, arch::kEax, width);
        u64 wide;
        bool overflow;
        if (is_signed) {
            const s64 p = sign_extend(acc, width) *
                          sign_extend(src, width);
            wide = static_cast<u64>(p);
            const u64 low = truncate(wide, width);
            overflow = sign_extend(low, width) != p;
        } else {
            wide = truncate(acc, width) * truncate(src, width);
            overflow = (wide >> width) != 0;
        }
        const u64 low = truncate(wide, width);
        const u64 high = truncate(wide >> width, width);
        if (width == 8) {
            set_reg(w, arch::kEax, 16, truncate(wide, 16));
        } else {
            w.c.gpr[arch::kEax] = static_cast<u32>(low);
            w.c.gpr[arch::kEdx] = static_cast<u32>(high);
        }
        set_flag(arch::kFlagCf, overflow);
        set_flag(arch::kFlagOf, overflow);
        if (behavior_.undef_flags == UndefFlagStyle::Hardware) {
            // SF/ZF/PF/AF are undefined; the hardware model computes
            // them from the low half. The Lo-Fi style leaves them.
            const u32 keep =
                w.c.eflags & (arch::kFlagCf | arch::kFlagOf);
            set_flags_szp(w, low, width, keep,
                          arch::kFlagCf | arch::kFlagOf |
                              arch::kFlagAf);
        }
        done();
        return;
      }
      case Op::Grp3DivRm8: case Op::Grp3DivRm32:
      case Op::Grp3IdivRm8: case Op::Grp3IdivRm32: {
        const unsigned width =
            (op == Op::Grp3DivRm8 || op == Op::Grp3IdivRm8) ? 8 : 32;
        const bool is_signed =
            op == Op::Grp3IdivRm8 || op == Op::Grp3IdivRm32;
        const u64 src = read_rm(w, insn, width);
        if (truncate(src, width) == 0)
            raise(arch::kExcDe, 0, false);
        u64 q, r;
        bool overflow;
        if (width == 8) {
            const u64 num = w.c.gpr[arch::kEax] & 0xffff;
            if (is_signed) {
                const s64 sn = sign_extend(num, 16);
                const s64 sd = sign_extend(src, 8);
                const s64 sq = sn / sd;
                const s64 sr = sn % sd;
                q = static_cast<u64>(sq);
                r = static_cast<u64>(sr);
                overflow = sq != sign_extend(truncate(q, 8), 8);
            } else {
                q = num / truncate(src, 8);
                r = num % truncate(src, 8);
                overflow = q > 0xff;
            }
            if (overflow)
                raise(arch::kExcDe, 0, false);
            set_reg(w, 0, 8, q); // AL.
            set_reg(w, 4, 8, r); // AH.
        } else {
            const u64 num =
                (static_cast<u64>(w.c.gpr[arch::kEdx]) << 32) |
                w.c.gpr[arch::kEax];
            if (is_signed) {
                const s64 sn = static_cast<s64>(num);
                const s64 sd = sign_extend(src, 32);
                if (sn == std::numeric_limits<s64>::min() && sd == -1)
                    raise(arch::kExcDe, 0, false);
                const s64 sq = sn / sd;
                const s64 sr = sn % sd;
                q = static_cast<u64>(sq);
                r = static_cast<u64>(sr);
                overflow = sq != sign_extend(truncate(q, 32), 32);
            } else {
                q = num / truncate(src, 32);
                r = num % truncate(src, 32);
                overflow = q > 0xffffffffull;
            }
            if (overflow)
                raise(arch::kExcDe, 0, false);
            w.c.gpr[arch::kEax] = static_cast<u32>(q);
            w.c.gpr[arch::kEdx] = static_cast<u32>(r);
        }
        if (behavior_.undef_flags == UndefFlagStyle::LoFi) {
            // Hardware leaves the status flags unchanged; the Lo-Fi
            // style zeroes them.
            w.c.eflags &= ~(arch::kFlagCf | arch::kFlagPf |
                            arch::kFlagAf | arch::kFlagZf |
                            arch::kFlagSf | arch::kFlagOf);
        }
        done();
        return;
      }

      // ------------------------------------------------------ system
      case Op::Sgdt: case Op::Sidt: {
        const bool gdt = op == Op::Sgdt;
        const u32 ea = effective_address(w, insn);
        const unsigned seg = effective_segment(insn);
        const arch::TableReg &t = gdt ? w.c.gdtr : w.c.idtr;
        write_mem(w, seg, ea, 2, t.limit);
        write_mem(w, seg, ea + 2, 4, t.base);
        done();
        return;
      }
      case Op::Lgdt: case Op::Lidt: {
        const bool gdt = op == Op::Lgdt;
        const u32 ea = effective_address(w, insn);
        const unsigned seg = effective_segment(insn);
        const u16 limit =
            static_cast<u16>(read_mem(w, seg, ea, 2));
        const u32 base =
            static_cast<u32>(read_mem(w, seg, ea + 2, 4));
        arch::TableReg &t = gdt ? w.c.gdtr : w.c.idtr;
        t.limit = limit;
        t.base = base;
        done();
        return;
      }
      case Op::Invlpg:
        done();
        return;
      case Op::Clts:
        w.c.cr0 &= ~arch::kCr0Ts;
        done();
        return;
      case Op::MovR32Cr: {
        u32 v = 0;
        switch (insn.reg) {
          case 0: v = w.c.cr0; break;
          case 2: v = w.c.cr2; break;
          case 3: v = w.c.cr3; break;
          case 4: v = w.c.cr4; break;
        }
        w.c.gpr[insn.rm] = v;
        done();
        return;
      }
      case Op::MovCrR32: {
        const u32 v = w.c.gpr[insn.rm];
        switch (insn.reg) {
          case 0:
            if ((v & arch::kCr0Pg) && !(v & arch::kCr0Pe))
                raise(arch::kExcGp, 0, true);
            w.c.cr0 = v;
            break;
          case 2: w.c.cr2 = v; break;
          case 3: w.c.cr3 = v; break;
          case 4: w.c.cr4 = v; break;
        }
        done();
        return;
      }
      case Op::Rdmsr: {
        const u32 idx = w.c.gpr[arch::kEcx];
        u32 v = 0;
        bool known = true;
        switch (idx) {
          case 0x174: v = w.c.msr.sysenter_cs; break;
          case 0x175: v = w.c.msr.sysenter_esp; break;
          case 0x176: v = w.c.msr.sysenter_eip; break;
          default: known = false; break;
        }
        if (!known) {
            if (behavior_.rdmsr_gp_on_invalid)
                raise(arch::kExcGp, 0, true);
            // Seeded QEMU bug (paper §6.2): unknown MSRs read as 0.
            v = 0;
        }
        w.c.gpr[arch::kEax] = v;
        w.c.gpr[arch::kEdx] = 0;
        done();
        return;
      }
      case Op::Wrmsr: {
        const u32 idx = w.c.gpr[arch::kEcx];
        // Seeded defect: the variant emulator's MSR store path keeps
        // only the low 16 bits of EAX.
        const u32 v = behavior_.wrmsr_truncate_16
            ? (w.c.gpr[arch::kEax] & 0xffffu)
            : w.c.gpr[arch::kEax];
        switch (idx) {
          case 0x174: w.c.msr.sysenter_cs = v; break;
          case 0x175: w.c.msr.sysenter_esp = v; break;
          case 0x176: w.c.msr.sysenter_eip = v; break;
          default:
            if (behavior_.rdmsr_gp_on_invalid)
                raise(arch::kExcGp, 0, true);
            break; // Silently ignored by the Lo-Fi style.
        }
        done();
        return;
      }
      case Op::Rdtsc:
        w.c.gpr[arch::kEax] = 0;
        w.c.gpr[arch::kEdx] = 0;
        done();
        return;
      case Op::Cpuid: {
        const u32 leaf = w.c.gpr[arch::kEax];
        if (leaf == 0) {
            w.c.gpr[arch::kEax] = 1;
            w.c.gpr[arch::kEbx] = 0x656b6f50;
            w.c.gpr[arch::kEdx] = 0x76554d45;
            w.c.gpr[arch::kEcx] = 0x36387856;
        } else if (leaf == 1) {
            w.c.gpr[arch::kEax] = 0x600;
            w.c.gpr[arch::kEbx] = 0;
            w.c.gpr[arch::kEcx] = 0;
            w.c.gpr[arch::kEdx] = 0;
        } else {
            w.c.gpr[arch::kEax] = 0;
            w.c.gpr[arch::kEbx] = 0;
            w.c.gpr[arch::kEcx] = 0;
            w.c.gpr[arch::kEdx] = 0;
        }
        done();
        return;
      }

      // ------------------------------------------------- bit operations
      case Op::BtRm32R32: case Op::BtsRm32R32: case Op::BtrRm32R32:
      case Op::BtcRm32R32: case Op::Grp8BtImm8: case Op::Grp8BtsImm8:
      case Op::Grp8BtrImm8: case Op::Grp8BtcImm8: {
        const bool from_reg =
            op == Op::BtRm32R32 || op == Op::BtsRm32R32 ||
            op == Op::BtrRm32R32 || op == Op::BtcRm32R32;
        enum class Mode { Test, Set, Reset, Complement } mode;
        switch (op) {
          case Op::BtRm32R32: case Op::Grp8BtImm8:
            mode = Mode::Test; break;
          case Op::BtsRm32R32: case Op::Grp8BtsImm8:
            mode = Mode::Set; break;
          case Op::BtrRm32R32: case Op::Grp8BtrImm8:
            mode = Mode::Reset; break;
          default: mode = Mode::Complement; break;
        }
        const u32 bitoff =
            from_reg ? w.c.gpr[insn.reg] : (insn.imm & 0xff);
        const u32 idx = bitoff & 31;
        const u32 mask = 1u << idx;
        u64 val;
        u32 phys = 0;
        bool mem = insn.mod != 3;
        if (!mem) {
            val = w.c.gpr[insn.rm];
        } else {
            u32 ea = effective_address(w, insn);
            if (from_reg) {
                ea += static_cast<u32>(
                          static_cast<s32>(bitoff) >> 5) *
                      4;
            }
            const unsigned seg = effective_segment(insn);
            if (mode == Mode::Test) {
                val = read_mem(w, seg, ea, 4);
            } else {
                phys = prepare_write(w, seg, ea, 4);
                val = read_phys(phys, 4);
            }
        }
        set_flag(arch::kFlagCf, (val & mask) != 0);
        if (mode != Mode::Test) {
            u64 out = val;
            switch (mode) {
              case Mode::Set: out = val | mask; break;
              case Mode::Reset: out = val & ~u64{mask}; break;
              default: out = val ^ mask; break;
            }
            if (!mem)
                w.c.gpr[insn.rm] = static_cast<u32>(out);
            else
                write_phys(phys, 4, out);
        }
        done();
        return;
      }
      case Op::ShldImm8: case Op::ShldCl:
      case Op::ShrdImm8: case Op::ShrdCl: {
        const bool left = op == Op::ShldImm8 || op == Op::ShldCl;
        const unsigned count =
            (op == Op::ShldImm8 || op == Op::ShrdImm8)
                ? (insn.imm & 0x1f)
                : (w.c.gpr[arch::kEcx] & 0x1f);
        u32 phys = 0;
        u64 dst;
        if (insn.mod == 3) {
            dst = w.c.gpr[insn.rm];
        } else {
            phys = prepare_write(w, effective_segment(insn),
                                 effective_address(w, insn), 4);
            dst = read_phys(phys, 4);
        }
        if (count == 0) {
            done();
            return;
        }
        const u64 src = w.c.gpr[insn.reg];
        u64 res;
        bool cf;
        if (left) {
            const u64 wide = (dst << 32) | src;
            res = truncate(wide << count >> 32, 32);
            cf = get_bit(dst, 32 - count);
        } else {
            const u64 wide = (src << 32) | dst;
            res = truncate(wide >> count, 32);
            cf = get_bit(dst, count - 1);
        }
        if (insn.mod == 3)
            w.c.gpr[insn.rm] = static_cast<u32>(res);
        else
            write_phys(phys, 4, res);
        const bool of = get_bit(dst, 31) != get_bit(res, 31);
        set_flag(arch::kFlagCf, cf);
        set_flag(arch::kFlagOf, of);
        const u32 keep = w.c.eflags & (arch::kFlagCf | arch::kFlagOf);
        set_flags_szp(w, res, 32, keep,
                      arch::kFlagCf | arch::kFlagOf | arch::kFlagAf);
        done();
        return;
      }
      case Op::Bsf: case Op::Bsr: {
        const u32 src = static_cast<u32>(read_rm(w, insn, 32));
        if (src == 0) {
            set_flag(arch::kFlagZf, true);
            if (behavior_.undef_flags == UndefFlagStyle::LoFi) {
                // Hardware leaves the destination unchanged; the
                // Lo-Fi style writes zero.
                w.c.gpr[insn.reg] = 0;
            }
        } else {
            set_flag(arch::kFlagZf, false);
            w.c.gpr[insn.reg] = op == Op::Bsf
                ? static_cast<u32>(__builtin_ctz(src))
                : static_cast<u32>(31 - __builtin_clz(src));
        }
        done();
        return;
      }
      case Op::BswapR32: {
        const u32 v = w.c.gpr[insn.desc->aux];
        w.c.gpr[insn.desc->aux] = __builtin_bswap32(v);
        done();
        return;
      }

      // ------------------------------------------------------- imul
      case Op::ImulR32Rm32: case Op::ImulR32Rm32Imm32:
      case Op::ImulR32Rm32Imm8: {
        s64 a, b;
        if (op == Op::ImulR32Rm32) {
            a = sign_extend(w.c.gpr[insn.reg], 32);
            b = sign_extend(read_rm(w, insn, 32), 32);
        } else {
            a = sign_extend(read_rm(w, insn, 32), 32);
            b = op == Op::ImulR32Rm32Imm32
                ? sign_extend(insn.imm, 32)
                : sign_extend(insn.imm & 0xff, 8);
        }
        const s64 p = a * b;
        const u32 low = static_cast<u32>(p);
        w.c.gpr[insn.reg] = low;
        const bool overflow = p != sign_extend(low, 32);
        set_flag(arch::kFlagCf, overflow);
        set_flag(arch::kFlagOf, overflow);
        const u32 keep = w.c.eflags & (arch::kFlagCf | arch::kFlagOf);
        set_flags_szp(w, low, 32, keep,
                      arch::kFlagCf | arch::kFlagOf | arch::kFlagAf);
        done();
        return;
      }

      // --------------------------------------------- cmpxchg / xadd
      case Op::CmpxchgRm8R8: case Op::CmpxchgRm32R32: {
        const unsigned width = op == Op::CmpxchgRm8R8 ? 8 : 32;
        const u64 acc = get_reg(w, arch::kEax, width);
        const u64 src = get_reg(w, insn.reg, width);
        if (insn.mod == 3) {
            const u64 dst = get_reg(w, insn.rm, width);
            flags_sub(w, acc, dst, 0, width);
            if (acc == dst)
                set_reg(w, insn.rm, width, src);
            else
                set_reg(w, arch::kEax, width, dst);
            done();
            return;
        }
        if (behavior_.cmpxchg_checks_write_first) {
            // Hardware always writes the destination (old value on
            // mismatch), so writability is checked up front.
            const u32 phys =
                prepare_write(w, effective_segment(insn),
                              effective_address(w, insn), width / 8);
            const u64 dst = read_phys(phys, width / 8);
            flags_sub(w, acc, dst, 0, width);
            if (acc == dst) {
                write_phys(phys, width / 8, src);
            } else {
                write_phys(phys, width / 8, dst);
                set_reg(w, arch::kEax, width, dst);
            }
        } else {
            // Seeded QEMU bug (paper §6.2): the destination is only
            // read first; on mismatch the accumulator is updated and
            // no write (hence no write-permission fault) happens.
            const u64 dst = read_rm(w, insn, width);
            flags_sub(w, acc, dst, 0, width);
            if (acc == dst) {
                write_mem(w, effective_segment(insn),
                          effective_address(w, insn), width / 8, src);
            } else {
                set_reg(w, arch::kEax, width, dst);
            }
        }
        done();
        return;
      }
      case Op::XaddRm8R8: case Op::XaddRm32R32: {
        const unsigned width = op == Op::XaddRm8R8 ? 8 : 32;
        u32 phys = 0;
        u64 dst;
        if (insn.mod == 3) {
            dst = get_reg(w, insn.rm, width);
        } else {
            phys = prepare_write(w, effective_segment(insn),
                                 effective_address(w, insn), width / 8);
            dst = read_phys(phys, width / 8);
        }
        const u64 src = get_reg(w, insn.reg, width);
        flags_add(w, dst, src, 0, width);
        const u64 res = truncate(dst + src, width);
        if (insn.mod == 3)
            set_reg(w, insn.rm, width, res);
        else
            write_phys(phys, width / 8, res);
        set_reg(w, insn.reg, width, dst);
        done();
        return;
      }

      // ------------------------------------------------ movzx/movsx
      case Op::MovzxR32Rm8: case Op::MovzxR32Rm16:
      case Op::MovsxR32Rm8: case Op::MovsxR32Rm16: {
        const unsigned sw =
            (op == Op::MovzxR32Rm8 || op == Op::MovsxR32Rm8) ? 8 : 16;
        const bool sign =
            op == Op::MovsxR32Rm8 || op == Op::MovsxR32Rm16;
        const u64 src = read_rm(w, insn, sw);
        w.c.gpr[insn.reg] = sign
            ? static_cast<u32>(sign_extend(src, sw))
            : static_cast<u32>(truncate(src, sw));
        done();
        return;
      }
    }
    panic("direct backend: unhandled op");
}

} // namespace pokeemu::backend
