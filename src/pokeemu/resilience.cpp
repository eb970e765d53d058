#include "pokeemu/resilience.h"

#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "harness/runner.h"
#include "pokeemu/corpus.h"
#include "timing/cost_model.h"

namespace pokeemu {

namespace {

/** v7 dropped the per-unit cycle-cost columns (a function of the
 *  unit's row, timing::cost_model()); v6 dropped the per-unit
 *  IR-optimizer columns and renumbered the quarantine ledger's stage
 *  and fault-class values; v5 added the cycle-fidelity columns, v4 the
 *  optimizer columns, v3 the solver_queries_avoided column and v2 the
 *  coverage columns. Resuming any older file would misparse or
 *  under-report, so load refuses every other version by name. */
constexpr const char *kMagic = "pokeemu-checkpoint-v7";
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

/** The checkpoint's `counters` row in file order (unchanged since
 *  v6); merge sums the same list. */
constexpr u64 ExecutionTotals::*kCounters[] = {
    &ExecutionTotals::tests_executed,
    &ExecutionTotals::lofi_raw_diffs,
    &ExecutionTotals::hifi_raw_diffs,
    &ExecutionTotals::lofi_diffs,
    &ExecutionTotals::hifi_diffs,
    &ExecutionTotals::filtered_undefined,
    &ExecutionTotals::timeouts,
    &ExecutionTotals::hifi_timeouts,
    &ExecutionTotals::lofi_timeouts,
    &ExecutionTotals::hw_timeouts,
    &ExecutionTotals::hifi_cycles,
    &ExecutionTotals::lofi_cycles,
    &ExecutionTotals::hw_cycles,
    &ExecutionTotals::lofi_timing_divergences,
    &ExecutionTotals::hifi_timing_divergences,
};

} // namespace

void
ExecutionTotals::add_test(u64 id, const arch::DecodedInsn &insn,
                          const harness::BackendRun &hifi,
                          const harness::BackendRun &lofi,
                          const harness::BackendRun &hw, bool timing)
{
    ++tests_executed;
    hifi_timeouts += hifi.timed_out;
    lofi_timeouts += lofi.timed_out;
    hw_timeouts += hw.timed_out;
    // Cycle totals over every executed test (all zero with timing off:
    // no backend ever charges then).
    hifi_cycles += hifi.snapshot.cycles;
    lofi_cycles += lofi.snapshot.cycles;
    hw_cycles += hw.snapshot.cycles;
    if (hw.timed_out) {
        // No oracle to compare against: excluded entirely.
        ++timeouts;
        return;
    }
    const auto analyze = [&](const harness::BackendRun &run, u64 &raw,
                             u64 &real, harness::RootCauseClusterer &cl,
                             u64 &timing_div,
                             harness::RootCauseClusterer &timing_cl,
                             const char *backend) {
        if (run.timed_out) {
            // A timeout on one backend is its own root cause —
            // comparing its (mid-flight) snapshot against hardware
            // would report a spurious state diff.
            ++raw;
            ++real;
            cl.add_named(id, insn,
                         std::string("timeout-only-") + backend);
            return;
        }
        const arch::SnapshotDiff diff =
            arch::diff_snapshots(run.snapshot, hw.snapshot);
        bool state_clean = diff.empty();
        if (!diff.empty()) {
            ++raw;
            const harness::FilterResult filtered =
                harness::filter_undefined(insn, run.snapshot,
                                          hw.snapshot, diff);
            if (filtered.fully_filtered()) {
                ++filtered_undefined;
                state_clean = true;
            } else {
                ++real;
                cl.add(id, insn, filtered.remaining, run.snapshot,
                       hw.snapshot);
            }
        }
        // TimingDivergence (DESIGN.md §16): compared only on runs whose
        // architectural state is otherwise clean, so timing clusters
        // never overlap state-diff or timeout clusters.
        if (timing && state_clean &&
            run.snapshot.cycles != hw.snapshot.cycles) {
            ++timing_div;
            timing_cl.add_named(
                id, insn,
                timing::divergence_label(hw.snapshot.cycles,
                                         run.snapshot.cycles, backend));
        }
    };
    analyze(lofi, lofi_raw_diffs, lofi_diffs, lofi_clusters,
            lofi_timing_divergences, lofi_timing_clusters, "lofi");
    analyze(hifi, hifi_raw_diffs, hifi_diffs, hifi_clusters,
            hifi_timing_divergences, hifi_timing_clusters, "hifi");
}

void
ExecutionTotals::merge(const ExecutionTotals &other,
                       const std::function<u64(u64)> &remap)
{
    for (u64 ExecutionTotals::*counter : kCounters)
        this->*counter += other.*counter;
    lofi_clusters.merge(other.lofi_clusters, remap);
    hifi_clusters.merge(other.hifi_clusters, remap);
    lofi_timing_clusters.merge(other.lofi_timing_clusters, remap);
    hifi_timing_clusters.merge(other.hifi_timing_clusters, remap);
}

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
            << u.tests.size() << "\n";
        for (const CheckpointTest &t : u.tests) {
            out << "test " << t.id << " " << t.table_index << " "
                << t.test_insn_offset << " " << t.halt_code << " "
                << hex_encode(t.code) << "\n";
        }
    }
    const CheckpointExecution &e = checkpoint.execution;
    out << "executed " << e.executed_count << "\n";
    out << "counters";
    for (u64 ExecutionTotals::*counter : kCounters)
        out << " " << e.*counter;
    out << "\n";
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
              truncation >> ntests)) {
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
    for (u64 ExecutionTotals::*counter : kCounters) {
        if (!(in >> e.*counter))
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
