#include "pokeemu/resilience.h"

#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "pokeemu/corpus.h"

namespace pokeemu {

namespace {

/** v6 dropped the per-unit IR-optimizer columns and renumbered the
 *  quarantine ledger's stage and fault-class values; v5 added the
 *  cycle-fidelity columns, v4 the optimizer columns, v3 the
 *  solver_queries_avoided column and v2 the coverage columns. Resuming
 *  any older file would misparse or under-report, so load refuses
 *  every other version by name. */
constexpr const char *kMagic = "pokeemu-checkpoint-v6";
constexpr const char *kMagicPrefix = "pokeemu-checkpoint-v";

[[noreturn]] void
checkpoint_error(const std::string &message)
{
    throw std::logic_error("checkpoint: " + message);
}

void
expect_tag(std::istream &in, const char *tag)
{
    std::string got;
    if (!(in >> got) || got != tag)
        checkpoint_error(std::string("expected '") + tag + "', got '" +
                         got + "'");
}

/** Strings ride in the whitespace-separated container as hex tokens;
 *  the empty string becomes "-" so the token is never zero-width. */
std::string
hex_encode_string(const std::string &s)
{
    if (s.empty())
        return "-";
    return hex_encode(std::vector<u8>(s.begin(), s.end()));
}

std::string
hex_decode_string(const std::string &hex)
{
    if (hex == "-")
        return {};
    const std::vector<u8> bytes = hex_decode(hex);
    return std::string(bytes.begin(), bytes.end());
}

} // namespace

const CheckpointUnit *
Checkpoint::find_unit(int table_index) const
{
    for (const CheckpointUnit &u : explored) {
        if (u.table_index == table_index)
            return &u;
    }
    return nullptr;
}

void
save_checkpoint(std::ostream &out, const Checkpoint &checkpoint)
{
    out << kMagic << "\n";
    out << "fingerprint " << checkpoint.fingerprint << "\n";
    out << "explored " << checkpoint.explored.size() << "\n";
    for (const CheckpointUnit &u : checkpoint.explored) {
        out << "unit " << u.table_index << " " << u.complete << " "
            << u.budget_incomplete << " " << u.paths << " "
            << u.solver_queries << " " << u.solver_cache_hits << " "
            << u.solver_cache_misses << " "
            << u.solver_queries_avoided << " "
            << u.minimize_bits_before
            << " " << u.minimize_bits_after << " "
            << u.generation_failures << " " << u.covered_blocks << " "
            << u.total_blocks << " " << u.covered_edges << " "
            << u.total_edges << " "
            << static_cast<unsigned>(u.truncation) << " "
            << u.cost_base << " " << u.cost_mem_accesses << " "
            << u.cost_fault_extra << " "
            << u.tests.size() << "\n";
        for (const CheckpointTest &t : u.tests) {
            out << "test " << t.id << " " << t.table_index << " "
                << t.test_insn_offset << " " << t.halt_code << " "
                << hex_encode(t.code) << "\n";
        }
    }
    const CheckpointExecution &e = checkpoint.execution;
    out << "executed " << e.executed_count << "\n";
    out << "counters " << e.tests_executed << " " << e.lofi_raw_diffs
        << " " << e.hifi_raw_diffs << " " << e.lofi_diffs << " "
        << e.hifi_diffs << " " << e.filtered_undefined << " "
        << e.timeouts << " " << e.hifi_timeouts << " "
        << e.lofi_timeouts << " " << e.hw_timeouts << " "
        << e.hifi_cycles << " " << e.lofi_cycles << " "
        << e.hw_cycles << " " << e.lofi_timing_divergences << " "
        << e.hifi_timing_divergences << "\n";
    e.lofi_clusters.save(out);
    e.hifi_clusters.save(out);
    e.lofi_timing_clusters.save(out);
    e.hifi_timing_clusters.save(out);
    const auto &quarantined = checkpoint.quarantine.units();
    out << "quarantined " << quarantined.size() << "\n";
    for (const support::QuarantinedUnit &q : quarantined) {
        out << "q " << static_cast<unsigned>(q.stage) << " "
            << static_cast<unsigned>(q.cls) << " "
            << hex_encode_string(q.unit) << " "
            << hex_encode_string(q.message) << "\n";
    }
    out << "end\n";
}

Checkpoint
load_checkpoint(std::istream &in)
{
    std::string magic;
    if (!std::getline(in, magic) || magic != kMagic) {
        if (magic.rfind(kMagicPrefix, 0) == 0) {
            checkpoint_error(
                "unsupported checkpoint version: this is a " + magic +
                " file and the current format is " + kMagic +
                "; old progress cannot be resumed — delete the old "
                "checkpoint and restart the campaign");
        }
        checkpoint_error("bad header");
    }

    Checkpoint cp;
    expect_tag(in, "fingerprint");
    if (!(in >> cp.fingerprint))
        checkpoint_error("bad fingerprint");

    expect_tag(in, "explored");
    std::size_t nunits = 0;
    if (!(in >> nunits))
        checkpoint_error("bad unit count");
    cp.explored.reserve(std::min<std::size_t>(nunits, 1u << 20));
    for (std::size_t i = 0; i < nunits; ++i) {
        expect_tag(in, "unit");
        CheckpointUnit u;
        std::size_t ntests = 0;
        unsigned truncation = 0;
        if (!(in >> u.table_index >> u.complete >>
              u.budget_incomplete >> u.paths >> u.solver_queries >>
              u.solver_cache_hits >> u.solver_cache_misses >>
              u.solver_queries_avoided >>
              u.minimize_bits_before >> u.minimize_bits_after >>
              u.generation_failures >> u.covered_blocks >>
              u.total_blocks >> u.covered_edges >> u.total_edges >>
              truncation >> u.cost_base >> u.cost_mem_accesses >>
              u.cost_fault_extra >> ntests)) {
            checkpoint_error("truncated unit row");
        }
        if (truncation >= coverage::kNumTruncationReasons)
            checkpoint_error("bad unit truncation reason");
        u.truncation =
            static_cast<coverage::TruncationReason>(truncation);
        u.tests.reserve(std::min<std::size_t>(ntests, 1u << 20));
        for (std::size_t t = 0; t < ntests; ++t) {
            expect_tag(in, "test");
            CheckpointTest test;
            std::string hex;
            if (!(in >> test.id >> test.table_index >>
                  test.test_insn_offset >> test.halt_code >> hex)) {
                checkpoint_error("truncated test row");
            }
            test.code = hex_decode(hex);
            u.tests.push_back(std::move(test));
        }
        cp.explored.push_back(std::move(u));
    }

    expect_tag(in, "executed");
    CheckpointExecution &e = cp.execution;
    if (!(in >> e.executed_count))
        checkpoint_error("bad executed count");
    expect_tag(in, "counters");
    if (!(in >> e.tests_executed >> e.lofi_raw_diffs >>
          e.hifi_raw_diffs >> e.lofi_diffs >> e.hifi_diffs >>
          e.filtered_undefined >> e.timeouts >> e.hifi_timeouts >>
          e.lofi_timeouts >> e.hw_timeouts >> e.hifi_cycles >>
          e.lofi_cycles >> e.hw_cycles >>
          e.lofi_timing_divergences >> e.hifi_timing_divergences)) {
        checkpoint_error("truncated counters row");
    }
    e.lofi_clusters.load(in);
    e.hifi_clusters.load(in);
    e.lofi_timing_clusters.load(in);
    e.hifi_timing_clusters.load(in);
    expect_tag(in, "quarantined");
    std::size_t nquarantined = 0;
    if (!(in >> nquarantined))
        checkpoint_error("bad quarantine count");
    for (std::size_t i = 0; i < nquarantined; ++i) {
        expect_tag(in, "q");
        unsigned stage = 0;
        unsigned cls = 0;
        std::string unit_hex;
        std::string message_hex;
        if (!(in >> stage >> cls >> unit_hex >> message_hex))
            checkpoint_error("truncated quarantine row");
        if (stage >= support::kNumStages ||
            cls >= support::kNumFaultClasses) {
            checkpoint_error("bad quarantine stage/class");
        }
        cp.quarantine.add(static_cast<support::Stage>(stage),
                          hex_decode_string(unit_hex),
                          static_cast<support::FaultClass>(cls),
                          hex_decode_string(message_hex));
    }
    expect_tag(in, "end");
    return cp;
}

void
save_checkpoint_file(const std::string &path,
                     const Checkpoint &checkpoint)
{
    // Write-then-rename so an interrupted write never leaves a
    // truncated checkpoint where a resumable one used to be.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            checkpoint_error("cannot open '" + tmp + "' for writing");
        save_checkpoint(out, checkpoint);
        if (!out)
            checkpoint_error("write to '" + tmp + "' failed");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        checkpoint_error("rename to '" + path +
                         "' failed: " + ec.message());
}

std::optional<Checkpoint>
load_checkpoint_file(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    return load_checkpoint(in);
}

} // namespace pokeemu
