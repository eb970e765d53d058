/**
 * @file
 * Tests for test-program generation (paper §4): Figure-5 shape,
 * gadget ordering, and — the key soundness property — that running the
 * generated initializer really drives the machine into the explored
 * test state.
 */
#include <gtest/gtest.h>

#include "arch/paging.h"
#include "backend/direct_cpu.h"
#include "explore/state_explorer.h"
#include "testgen/testgen.h"

namespace pokeemu::testgen {
namespace {

namespace layout = arch::layout;

arch::DecodedInsn
decode_insn(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    EXPECT_EQ(arch::decode(buf.data(), buf.size(), insn),
              arch::DecodeStatus::Ok);
    return insn;
}

struct Env
{
    symexec::VarPool summary_pool;
    symexec::Summary summary;
    explore::StateSpec spec;

    Env()
        : summary(hifi::summarize_descriptor_load(summary_pool)),
          spec(baseline_cpu_state(), &summary)
    {
    }
};

Env &
env()
{
    static Env instance;
    return instance;
}

TEST(TestGen, EmptyStateYieldsBareTest)
{
    // An assignment equal to the baseline needs no gadgets at all.
    const arch::DecodedInsn insn = decode_insn({0x90}); // nop
    symexec::VarPool pool;
    solver::Assignment assignment; // Empty = baseline everywhere.
    const GenResult gen =
        generate_test_program(insn, assignment, env().spec, pool);
    ASSERT_EQ(gen.status, GenStatus::Ok);
    EXPECT_EQ(gen.program.gadget_count, 0u);
    EXPECT_EQ(gen.program.test_insn_offset, 0u);
    // nop + hlt.
    EXPECT_EQ(gen.program.code.size(), 2u);
}

TEST(TestGen, ProgramDecodesEndToEnd)
{
    // Whatever the gadgets emit must be a valid instruction stream.
    const arch::DecodedInsn insn = decode_insn({0x50});
    explore::StateExploreOptions options;
    options.max_paths = 32;
    explore::StateExploreResult r = explore_instruction(
        insn, env().spec, &env().summary, options);
    ASSERT_FALSE(r.paths.empty());
    for (const auto &path : r.paths) {
        const GenResult gen = generate_test_program(
            insn, path.assignment, env().spec, r.pool);
        ASSERT_EQ(gen.status, GenStatus::Ok);
        const auto &code = gen.program.code;
        std::size_t pos = 0;
        while (pos < code.size()) {
            u8 buf[arch::kMaxInsnLength] = {};
            std::copy_n(code.begin() + pos,
                        std::min<std::size_t>(arch::kMaxInsnLength,
                                              code.size() - pos),
                        buf);
            arch::DecodedInsn step;
            ASSERT_EQ(arch::decode(buf, sizeof buf, step),
                      arch::DecodeStatus::Ok)
                << "offset " << pos;
            pos += step.length;
        }
        EXPECT_EQ(pos, code.size());
    }
}

TEST(TestGen, GadgetOrderRespectsDependencies)
{
    // Force a state that needs: eflags, a GDT poke + SS reload, a PTE
    // poke, ESP, and EAX. Verify the emission order.
    const arch::DecodedInsn insn = decode_insn({0x50});
    symexec::VarPool pool;
    solver::Assignment assignment;
    // EFLAGS: set CF.
    assignment.set(pool.get("eflags_b0", 8)->var_id(),
                   testgen::kBaselineEflags | arch::kFlagCf);
    // GDT entry 10, byte 5: flip a type bit (stays loadable data RW).
    assignment.set(pool.get("gdt10_b5", 8)->var_id(), 0x97);
    // PTE 0: clear present (poke must come after the GDT write).
    assignment.set(pool.get("pte_00000000", 8)->var_id(), 0x66);
    // ESP and EAX.
    const u32 esp_val = 0x002007dc; // The paper's Figure 5 value.
    for (unsigned i = 0; i < 4; ++i) {
        assignment.set(
            pool.get("gpr_esp_b" + std::to_string(i), 8)->var_id(),
            (esp_val >> (8 * i)) & 0xff);
        assignment.set(
            pool.get("gpr_eax_b" + std::to_string(i), 8)->var_id(),
            0);
    }

    const GenResult gen =
        generate_test_program(insn, assignment, env().spec, pool);
    ASSERT_EQ(gen.status, GenStatus::Ok);
    const auto &lst = gen.program.listing;
    auto find_line = [&](const std::string &needle) {
        for (std::size_t i = 0; i < lst.size(); ++i) {
            if (lst[i].find(needle) != std::string::npos)
                return static_cast<int>(i);
        }
        return -1;
    };
    const int popfd = find_line("eflags");
    const int gdt_poke = find_line("0x00008055");
    const int reload = find_line("mov ss");
    const int pte = find_line("(pte)");
    const int esp = find_line("mov esp");
    const int eax = find_line("restore killed eax");
    const int test = find_line("the test instruction");
    ASSERT_GE(popfd, 0);
    ASSERT_GE(gdt_poke, 0);
    ASSERT_GE(reload, 0);
    ASSERT_GE(pte, 0);
    ASSERT_GE(esp, 0);
    ASSERT_GE(eax, 0);
    ASSERT_GE(test, 0);
    // Figure-5 ordering constraints (paper §4.2): the GDT bytes are
    // written before the reload that consumes them; the flags gadget
    // uses the baseline stack so it precedes the PTE poke; the PTE
    // poke is DS-relative, so it precedes the reload that may give DS
    // a non-flat explored descriptor; EAX is restored last, just
    // before the test instruction.
    EXPECT_LT(popfd, pte);
    EXPECT_LT(gdt_poke, pte);
    EXPECT_LT(pte, reload);
    EXPECT_LT(esp, eax);
    EXPECT_LT(eax, test);
}

TEST(TestGen, InitializerReachesTheExploredState)
{
    // The soundness property behind the whole pipeline: truncate each
    // generated program just before the test instruction, run it on
    // the hardware oracle, and check that every located variable's
    // value matches the (minimized) test state.
    const std::vector<arch::DecodedInsn> insns = {
        decode_insn({0x50}),             // push eax
        decode_insn({0xcf}),             // iret
        decode_insn({0x0f, 0xb4, 0x03}), // lfs
        decode_insn({0x01, 0x08}),       // add [eax], ecx
    };
    u64 checked_tests = 0, checked_vars = 0, skipped = 0;
    for (const arch::DecodedInsn &insn : insns) {
        explore::StateExploreOptions options;
        options.max_paths = 24;
        explore::StateExploreResult r = explore_instruction(
            insn, env().spec, &env().summary, options);
        for (const auto &path : r.paths) {
            const GenResult gen = generate_test_program(
                insn, path.assignment, env().spec, r.pool);
            ASSERT_EQ(gen.status, GenStatus::Ok);

            // Replace the test instruction with hlt.
            std::vector<u8> code(
                gen.program.code.begin(),
                gen.program.code.begin() +
                    gen.program.test_insn_offset);
            code.push_back(0xf4);

            backend::DirectCpu hw(backend::hardware_behavior());
            hw.reset(make_reset_state(), make_test_image(code));
            if (hw.run(1024) != backend::StopReason::Halted) {
                ++skipped; // Degenerate state (e.g. unmapped stack).
                continue;
            }
            const arch::Snapshot snap = hw.snapshot();
            u8 image[layout::kCpuStateSize];
            arch::pack_cpu_state(snap.cpu, image);

            ++checked_tests;
            for (const auto &var : r.pool.all()) {
                const auto loc = env().spec.locate(var->name());
                if (!loc)
                    continue;
                // Segment caches and EIP change as side effects of the
                // initializer itself; check the directly-settable
                // state: GPRs, EFLAGS, CRs, MSRs, RAM bytes.
                u8 actual;
                if (loc->kind == explore::VarLocation::Kind::CpuByte) {
                    if (loc->addr >= layout::kOffSeg &&
                        loc->addr < layout::kOffSeg +
                                        arch::kNumSegs *
                                            layout::kSegStride) {
                        continue;
                    }
                    actual = image[loc->addr];
                } else {
                    // Page-table A/D bits change under the
                    // initializer's own accesses; mask them out.
                    actual = snap.ram[loc->addr];
                    if (loc->addr >= layout::kPhysPageDir &&
                        loc->addr <
                            layout::kPhysPageTable + 0x1000) {
                        actual &= ~(arch::kPteAccessed |
                                    arch::kPteDirty);
                    }
                }
                u8 expected = static_cast<u8>(
                    path.assignment.get(var->var_id()) & loc->mask);
                const u8 baseline_bits =
                    (loc->kind == explore::VarLocation::Kind::CpuByte
                         ? [&] {
                               u8 base[layout::kCpuStateSize];
                               arch::pack_cpu_state(
                                   env().spec.baseline_cpu(), base);
                               return base[loc->addr];
                           }()
                         : env().spec.baseline_ram()[loc->addr]) &
                    ~loc->mask;
                expected |= baseline_bits;
                if (loc->kind == explore::VarLocation::Kind::RamByte &&
                    loc->addr >= layout::kPhysPageDir &&
                    loc->addr < layout::kPhysPageTable + 0x1000) {
                    expected &=
                        ~(arch::kPteAccessed | arch::kPteDirty);
                }
                EXPECT_EQ(actual, expected)
                    << var->name() << " for "
                    << arch::to_string(insn) << "\n"
                    << gen.program.to_string();
                ++checked_vars;
            }
        }
    }
    std::printf("[ info ] checked_tests=%llu checked_vars=%llu "
                "skipped=%llu\n",
                static_cast<unsigned long long>(checked_tests),
                static_cast<unsigned long long>(checked_vars),
                static_cast<unsigned long long>(skipped));
    EXPECT_GT(checked_tests, 10u);
    EXPECT_GT(checked_vars, 1000u);
}

TEST(TestGen, OversizedStateFailsGracefully)
{
    // Constrain every GDT byte and thousands of memory bytes: the
    // initializer exceeds the test-code page and generation reports
    // TooLarge instead of corrupting memory.
    const arch::DecodedInsn insn = decode_insn({0x90});
    symexec::VarPool pool;
    solver::Assignment assignment;
    for (unsigned i = 0; i < 700; ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "mem_%08x", 0x00300000 + i);
        assignment.set(pool.get(name, 8)->var_id(), 0xaa);
    }
    const GenResult gen =
        generate_test_program(insn, assignment, env().spec, pool);
    EXPECT_EQ(gen.status, GenStatus::TooLarge);
}

} // namespace
} // namespace pokeemu::testgen
