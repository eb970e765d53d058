#include "pokeemu/corpus.h"

#include <algorithm>
#include <istream>
#include <ostream>

namespace pokeemu {

namespace {

constexpr const char *kMagic = "pokeemu-corpus-v1";

/**
 * Malformed corpus input is a caller-facing error (the documented
 * std::logic_error of load_corpus), not an internal invariant — a
 * truncated file must not read as a library bug.
 */
[[noreturn]] void
corpus_error(const std::string &message)
{
    throw std::logic_error("corpus: " + message);
}

} // namespace

std::string
hex_encode(const std::vector<u8> &bytes)
{
    std::string out;
    out.reserve(bytes.size() * 2);
    static const char digits[] = "0123456789abcdef";
    for (u8 b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

std::vector<u8>
hex_decode(const std::string &hex)
{
    if (hex.size() % 2)
        corpus_error("odd hex length");
    std::vector<u8> out(hex.size() / 2);
    auto nibble = [](char c) -> unsigned {
        if (c >= '0' && c <= '9')
            return static_cast<unsigned>(c - '0');
        if (c >= 'a' && c <= 'f')
            return static_cast<unsigned>(c - 'a' + 10);
        corpus_error("bad hex digit");
    };
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<u8>((nibble(hex[2 * i]) << 4) |
                                 nibble(hex[2 * i + 1]));
    }
    return out;
}

std::optional<arch::DecodedInsn>
decode_test_insn(const std::vector<u8> &code, u32 offset)
{
    if (offset >= code.size())
        return std::nullopt;
    u8 buf[arch::kMaxInsnLength] = {};
    const std::size_t n = std::min<std::size_t>(arch::kMaxInsnLength,
                                                code.size() - offset);
    std::copy_n(code.begin() + offset, n, buf);
    arch::DecodedInsn insn;
    if (arch::decode(buf, arch::kMaxInsnLength, insn) !=
        arch::DecodeStatus::Ok) {
        return std::nullopt;
    }
    return insn;
}

void
save_corpus(std::ostream &out, const std::vector<GeneratedTest> &tests)
{
    out << kMagic << "\n" << tests.size() << "\n";
    for (const GeneratedTest &test : tests) {
        out << test.id << " " << test.program.test_insn_offset << " "
            << test.insn.desc->mnemonic << " "
            << hex_encode(test.program.code) << "\n";
    }
}

std::vector<CorpusTest>
load_corpus(std::istream &in)
{
    std::string magic;
    if (!std::getline(in, magic) || magic != kMagic)
        corpus_error("bad header");
    std::size_t count = 0;
    if (!(in >> count))
        corpus_error("missing entry count");
    std::vector<CorpusTest> tests;
    tests.reserve(std::min<std::size_t>(count, 1u << 20));
    for (std::size_t i = 0; i < count; ++i) {
        CorpusTest t;
        std::string hex;
        if (!(in >> t.id >> t.test_insn_offset >> t.mnemonic >> hex))
            corpus_error("truncated entry");
        t.code = hex_decode(hex);
        if (t.test_insn_offset >= t.code.size()) {
            corpus_error("test " + std::to_string(t.id) +
                         ": instruction offset outside its code");
        }
        tests.push_back(std::move(t));
    }
    return tests;
}

ExecutionTotals
replay_corpus(const std::vector<CorpusTest> &tests,
              const lofi::BugConfig &bugs)
{
    harness::TestRunner::Config cfg;
    cfg.bugs = bugs;
    harness::TestRunner runner(cfg);

    ExecutionTotals totals;
    harness::BackendRun hifi_run, lofi_run, hw_run;
    for (const CorpusTest &test : tests) {
        const std::optional<arch::DecodedInsn> insn =
            decode_test_insn(test.code, test.test_insn_offset);
        if (!insn) {
            corpus_error("test " + std::to_string(test.id) +
                         ": test instruction does not decode");
        }
        runner.run_one_into(harness::Backend::HiFi, test.code,
                            hifi_run);
        runner.run_one_into(harness::Backend::LoFi, test.code,
                            lofi_run);
        runner.run_one_into(harness::Backend::Hardware, test.code,
                            hw_run);
        totals.add_test(test.id, *insn, hifi_run, lofi_run, hw_run,
                        cfg.timing);
    }
    return totals;
}

} // namespace pokeemu
