/**
 * @file
 * Benchmark worker: one process runs one repetition of one workload
 * against the pokeemu library and prints one JSON object on stdout.
 *
 *   decode   stage-1 decoder exploration (explore_instruction_set)
 *   sweep    stages 2-5 over table rows at canonical encodings
 *            (run_campaign; --shards picks the worker count)
 *
 * Every repetition is its own process so that set-up (static tables,
 * the baseline image, the compiled-dispatch staleness hash) and peak
 * RSS belong to exactly one run of one workload. The process warms up
 * first, records the monotonic time at which the workload is ready
 * (run.py subtracts its own spawn time to get set-up time), then times
 * the workload call on a fresh thread: the warm-up pays the
 * process-wide first-use costs, while per-thread state (the
 * thread_local expression-intern table) starts empty on whichever
 * thread runs the workload, one shard or four, traced or not.
 *
 * With --trace the same work is driven call by call through each
 * layer's public entry point, with a span around every call; spans are
 * kept in memory and written as Chrome trace events to --trace-out at
 * the end. The per-layer metrics and the counts run.py compares with
 * an untraced repetition are derived from those spans and counters.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "explore/insn_explorer.h"
#include "hifi/decoder_ir.h"
#include "pokeemu/shard.h"
#include "support/logging.h"

using namespace pokeemu;

namespace {

// ---- clocks ---------------------------------------------------------------

double
mono_now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
        1e6;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB.
}

// ---- JSON output ----------------------------------------------------------

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/** Insertion-ordered flat JSON object writer. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.12g", value);
        return raw(key, std::isfinite(value) ? buf : "null");
    }
    JsonObject &count(const std::string &key, u64 value)
    {
        return raw(key, std::to_string(value));
    }
    JsonObject &str(const std::string &key, const std::string &value)
    {
        return raw(key, json_string(value));
    }
    JsonObject &raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " +
            value;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---- spans ----------------------------------------------------------------

/** One timed call: name, interval, causing span, and the unit or test
 *  the call belongs to (all spans of one unit/test share `group`). */
struct Span
{
    const char *name;
    double start;
    double end;
    int parent; ///< Index into the same thread's spans; -1 for a root.
    u64 group;
};

/** Per-thread span recorder (spans nest: one open chain per thread). */
class Tracer
{
  public:
    explicit Tracer(u32 thread) : thread_(thread) {}

    int open(const char *name, u64 group)
    {
        spans_.push_back({name, mono_now(), 0.0, current_, group});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }
    void close(int index)
    {
        spans_[index].end = mono_now();
        current_ = spans_[index].parent;
    }

    u32 thread() const { return thread_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    u32 thread_;
    std::vector<Span> spans_;
    int current_ = -1;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, u64 group = 0)
        : tracer_(tracer), index_(tracer.open(name, group))
    {
    }
    ~ScopedSpan() { tracer_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** Per-name totals over every thread's spans. */
struct SpanTotals
{
    double total = 0; ///< Summed durations.
    double self = 0;  ///< Summed durations minus children's coverage.
    std::vector<double> durations;
};

std::map<std::string, SpanTotals>
aggregate(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, SpanTotals> out;
    for (const Tracer *tracer : tracers) {
        const std::vector<Span> &spans = tracer->spans();
        // Children of one span run sequentially on its thread, so the
        // time they cover is the sum of their durations.
        std::vector<double> child(spans.size(), 0.0);
        for (const Span &s : spans) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double d = spans[i].end - spans[i].start;
            SpanTotals &t = out[spans[i].name];
            t.total += d;
            t.self += d - child[i];
            t.durations.push_back(d);
        }
    }
    return out;
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

void
write_chrome_trace(const std::string &path,
                   const std::vector<const Tracer *> &tracers)
{
    double t0 = mono_now();
    for (const Tracer *tracer : tracers) {
        for (const Span &s : tracer->spans())
            t0 = std::min(t0, s.start);
    }
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\": [\n";
    bool first = true;
    for (const Tracer *tracer : tracers) {
        for (const Span &s : tracer->spans()) {
            out << (first ? "" : ",\n") << "{\"name\": "
                << json_string(s.name)
                << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                << tracer->thread() << ", \"ts\": "
                << static_cast<u64>((s.start - t0) * 1e6)
                << ", \"dur\": "
                << static_cast<u64>((s.end - s.start) * 1e6)
                << ", \"args\": {\"group\": " << s.group
                << ", \"parent\": " << s.parent << "}}";
            first = false;
        }
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write trace to " + path);
}

// ---- workload configuration -----------------------------------------------

/** decode: the first two instruction bytes are symbolic, so the tree is
 *  small enough to explore completely on every repetition. */
constexpr unsigned kSymbolicBytes = 2;
/** sweep: the paper's per-unit path cap. */
constexpr u64 kPathCap = 8192;

struct Args
{
    std::string workload;
    u64 seed = 1;
    u32 shards = 1;
    bool trace = false;
    std::string trace_out;
    bool setup_only = false;
};

explore::InsnSetOptions
decode_options(const Args &args)
{
    // max_paths stays at the explorer default (2^20): far above the
    // 2-byte tree's path count, i.e. no cap.
    explore::InsnSetOptions options;
    options.symbolic_bytes = kSymbolicBytes;
    options.seed = args.seed;
    return options;
}

/** The pinned production configuration: PathCoverFirst, compiled
 *  replay on, every other field at its default (prune on, optimizer
 *  off, timing off, all Lo-Fi catalogue bugs seeded). */
PipelineOptions
sweep_pipeline_options(const Args &args, std::size_t rows)
{
    PipelineOptions options;
    options.max_paths_per_insn = kPathCap;
    options.seed = args.seed;
    options.schedule = coverage::SchedulePolicy::PathCoverFirst;
    options.compiled = hifi::CompiledExec::On;
    for (std::size_t i = 0; i < rows; ++i)
        options.instruction_filter.push_back(static_cast<int>(i));
    return options;
}

CampaignOptions
campaign_options(const Args &args, std::size_t rows)
{
    CampaignOptions options;
    options.pipeline = sweep_pipeline_options(args, rows);
    options.shards = args.shards;
    return options;
}

harness::TestRunner::Config
runner_config(const PipelineOptions &options)
{
    // Exactly what Pipeline::execute_and_compare configures.
    harness::TestRunner::Config cfg;
    cfg.bugs = options.bugs;
    cfg.hifi_options.opt = options.opt;
    cfg.hifi_options.compiled = options.compiled;
    cfg.max_insns = options.max_insns_per_test;
    cfg.timing = options.timing;
    cfg.lofi_misbehavior = options.lofi_misbehavior;
    cfg.watchdog_insns = options.resilience.budgets.test_watchdog_insns;
    cfg.watchdog_wall_ms = options.resilience.budgets.test_watchdog_ms;
    return cfg;
}

// ---- result shapes --------------------------------------------------------

/** What run.py checks and compares between traced and untraced runs. */
struct DecodeOutputs
{
    symexec::ExploreStats stats;
    u64 candidates = 0;
    u64 invalid = 0;
    u64 toolong = 0;
    std::map<int, std::vector<u8>> representatives;
};

JsonObject
decode_json(const DecodeOutputs &o)
{
    std::string reps = "[";
    for (const auto &[index, bytes] : o.representatives) {
        char buf[8];
        std::string hex;
        for (u8 b : bytes) {
            std::snprintf(buf, sizeof buf, "%02x", b);
            hex += buf;
        }
        reps += (reps.size() > 1 ? ", " : "") +
            json_string(std::to_string(index) + ":" + hex);
    }
    reps += "]";
    JsonObject j;
    j.count("paths", o.stats.paths)
        .count("infeasible", o.stats.infeasible)
        .count("step_limited", o.stats.step_limited)
        .count("complete", o.stats.complete ? 1 : 0)
        .count("tree_nodes", o.stats.tree_nodes)
        .count("candidates", o.candidates)
        .count("invalid", o.invalid)
        .count("toolong", o.toolong)
        .count("instructions", o.representatives.size())
        .raw("representatives", reps);
    return j;
}

/** Campaign counters shared by the report and the traced run. */
struct SweepOutputs
{
    u64 units = 0; ///< Stage-2 units attempted.
    u64 explored = 0;
    u64 paths = 0;
    u64 complete_units = 0;
    u64 step_limited_units = 0;
    u64 programs = 0;
    u64 generation_failures = 0;
    u64 tests_executed = 0;
    u64 lofi_raw = 0, lofi_diffs = 0;
    u64 hifi_raw = 0, hifi_diffs = 0;
    u64 filtered_undefined = 0;
    u64 timeouts = 0; ///< Excluded by hardware-oracle timeout.
    u64 quarantined = 0;
    std::string lofi_clusters;
    std::string hifi_clusters;
};

JsonObject
sweep_json(const SweepOutputs &o)
{
    JsonObject j;
    j.count("units", o.units)
        .count("explored", o.explored)
        .count("paths", o.paths)
        .count("complete_units", o.complete_units)
        .count("step_limited_units", o.step_limited_units)
        .count("programs", o.programs)
        .count("generation_failures", o.generation_failures)
        .count("tests_executed", o.tests_executed)
        .count("lofi_raw", o.lofi_raw)
        .count("lofi_diffs", o.lofi_diffs)
        .count("hifi_raw", o.hifi_raw)
        .count("hifi_diffs", o.hifi_diffs)
        .count("filtered_undefined", o.filtered_undefined)
        .count("timeouts", o.timeouts)
        .count("quarantined", o.quarantined)
        .str("lofi_clusters", o.lofi_clusters)
        .str("hifi_clusters", o.hifi_clusters);
    return j;
}

/** Operations: decoder paths; or stage-2 units, generated tests and
 *  three-way executions. Failures: step-limited paths; or quarantine
 *  entries, generation failures, step-limited units and tests the
 *  hardware oracle timed out on. */
u64
decode_attempted(const DecodeOutputs &o)
{
    return o.stats.paths;
}
u64
decode_failed(const DecodeOutputs &o)
{
    return o.stats.step_limited;
}
u64
sweep_attempted(const SweepOutputs &o)
{
    const u64 generated = o.programs + o.generation_failures;
    const u64 executions = o.programs; // One three-way run per program.
    return o.units + generated + executions;
}
u64
sweep_failed(const SweepOutputs &o)
{
    return o.quarantined + o.generation_failures + o.step_limited_units +
        o.timeouts;
}

// ---- decode ---------------------------------------------------------------

void
decode_warmup()
{
    // The instruction table and the decoder program's first build.
    // Deliberately no exploration: a warm-up that explored part of the
    // tree could pre-fill a process-wide cache the timed run then hits.
    hifi::build_decoder_program();
}

DecodeOutputs
decode_untraced(const Args &args)
{
    const explore::InsnSetResult r =
        explore::explore_instruction_set(decode_options(args));
    DecodeOutputs o;
    o.stats = r.stats;
    o.candidates = r.candidate_sequences;
    o.invalid = r.invalid_sequences;
    o.toolong = r.toolong_sequences;
    o.representatives = r.representatives;
    return o;
}

/** The same exploration as explore_instruction_set, driven through
 *  build_decoder_program() and PathExplorer so solver_stats() splits
 *  solver time from symbolic execution. */
DecodeOutputs
decode_traced(const Args &args, Tracer &tracer, JsonObject &layers)
{
    namespace layout = arch::layout;
    const explore::InsnSetOptions options = decode_options(args);
    DecodeOutputs o;
    solver::SolverStats solver;
    {
        ScopedSpan root(tracer, "explore.insn_set");
        ir::Program decoder;
        {
            ScopedSpan span(tracer, "hifi.build_decoder");
            decoder = hifi::build_decoder_program();
        }
        symexec::VarPool pool;
        symexec::InitialByteFn initial =
            [&pool, &options](u32 addr) -> ir::ExprRef {
            if (addr >= layout::kInsnBufBase &&
                addr < layout::kInsnBufBase + options.symbolic_bytes) {
                return pool.get("insn_byte_" +
                                    std::to_string(addr -
                                                   layout::kInsnBufBase),
                                8);
            }
            return ir::E::constant(8, 0);
        };
        symexec::ExplorerConfig config;
        config.max_paths = options.max_paths;
        config.seed = options.seed;
        std::optional<symexec::PathExplorer> explorer;
        {
            ScopedSpan span(tracer, "symexec.init");
            explorer.emplace(decoder, pool, initial, config);
        }
        ScopedSpan span(tracer, "symexec.explore");
        o.stats = explorer->explore(
            [&](const symexec::PathInfo &info, symexec::SymbolicMemory &) {
                if (info.status != symexec::PathStatus::Halted)
                    return;
                if (info.halt_code == hifi::kDecodeInvalid) {
                    ++o.invalid;
                    return;
                }
                if (info.halt_code == hifi::kDecodeTooLong) {
                    ++o.toolong;
                    return;
                }
                ++o.candidates;
                const int index = static_cast<int>(info.halt_code);
                if (o.representatives.count(index))
                    return;
                std::vector<u8> bytes(arch::kMaxInsnLength, 0);
                for (unsigned i = 0; i < options.symbolic_bytes; ++i) {
                    const auto var =
                        pool.get("insn_byte_" + std::to_string(i), 8);
                    bytes[i] = static_cast<u8>(
                        info.assignment.get(var->var_id()));
                }
                o.representatives[index] = std::move(bytes);
            });
        solver = explorer->solver_stats();
    }

    const auto totals = aggregate({&tracer});
    // PathExplorer's own time: construction (program analyses) plus
    // exploration; the solver runs inside the latter.
    const double init_s = totals.at("symexec.init").total;
    const double symexec_s =
        init_s + totals.at("symexec.explore").total - solver.total_seconds;
    const u64 memo_base = solver.cache_hits + solver.cache_misses;
    const u64 tried = o.stats.paths + o.stats.infeasible;
    layers.num("explore.insn_set_s", totals.at("explore.insn_set").total)
        .num("solver.busy_s", solver.total_seconds)
        .count("solver.queries", solver.queries)
        .count("solver.sat", solver.sat)
        .count("solver.unsat", solver.unsat)
        .num("solver.query_ms_max", solver.max_seconds * 1e3)
        .num("symexec.self_s", symexec_s)
        .num("symexec.init_s", init_s)
        .count("symexec.paths", o.stats.paths)
        .count("symexec.infeasible", o.stats.infeasible)
        .count("symexec.tree_nodes", o.stats.tree_nodes)
        .num("solver.queries_per_path",
             o.stats.paths ? static_cast<double>(solver.queries) /
                     static_cast<double>(o.stats.paths)
                           : 0.0)
        .str("solver.queries_per_path_base",
             std::to_string(solver.queries) + "/" +
                 std::to_string(o.stats.paths))
        .num("symexec.useful_ratio",
             tried ? static_cast<double>(o.stats.paths) /
                     static_cast<double>(tried)
                   : 0.0)
        .str("symexec.useful_ratio_base",
             std::to_string(o.stats.paths) + "/" + std::to_string(tried))
        .num("solver.memo_hit_ratio",
             memo_base ? static_cast<double>(solver.cache_hits) /
                     static_cast<double>(memo_base)
                       : 0.0)
        .str("solver.memo_hit_ratio_base",
             std::to_string(solver.cache_hits) + "/" +
                 std::to_string(memo_base))
        // The solver's busy time is carved out of the symexec spans
        // for the share table.
        .num("self.solver", solver.total_seconds)
        .num("self.symexec", symexec_s)
        .num("self.hifi.build_decoder",
             totals.at("hifi.build_decoder").self)
        .num("self.bench", totals.at("explore.insn_set").self);
    return o;
}

// ---- sweep ----------------------------------------------------------------

void
sweep_warmup(const Args &args, Tracer *tracer)
{
    const PipelineOptions options = sweep_pipeline_options(args, 0);
    {
        // The first Hi-Fi run in a process pays the compiled-dispatch
        // staleness hash.
        std::optional<ScopedSpan> span;
        if (tracer != nullptr)
            span.emplace(*tracer, "hifi.first_run");
        harness::TestRunner runner(runner_config(options));
        harness::BackendRun run;
        runner.run_one_into(harness::Backend::HiFi, {0xf4}, run); // hlt
    }
    // A one-row campaign covers the remaining first-use costs (the
    // baseline image, the descriptor summary, semantics construction).
    CampaignOptions small = campaign_options(args, 1);
    small.shards = 1;
    run_campaign(small);
}

SweepOutputs
outputs_of(const PipelineStats &m)
{
    SweepOutputs o;
    o.units = m.insn_set.candidate_sequences;
    o.explored = m.instructions_explored;
    o.paths = m.total_paths;
    o.complete_units = m.instructions_complete;
    o.step_limited_units = m.truncated_step_limit;
    o.programs = m.test_programs;
    o.generation_failures = m.generation_failures;
    o.tests_executed = m.tests_executed;
    o.lofi_raw = m.lofi_raw_diffs;
    o.lofi_diffs = m.lofi_diffs;
    o.hifi_raw = m.hifi_raw_diffs;
    o.hifi_diffs = m.hifi_diffs;
    o.filtered_undefined = m.filtered_undefined;
    o.timeouts = m.timeouts;
    o.quarantined = m.quarantine.total();
    o.lofi_clusters = m.lofi_clusters.to_string();
    o.hifi_clusters = m.hifi_clusters.to_string();
    return o;
}

/** One worker thread of the traced sweep: the per-unit calls
 *  Pipeline::explore_and_generate and execute_and_compare make. */
struct ShardTrace
{
    explicit ShardTrace(u32 shard) : tracer(shard) {}

    Tracer tracer;
    SweepOutputs out;
    u64 solver_queries = 0, queries_avoided = 0;
    u64 memo_hits = 0, memo_misses = 0;
    u64 hifi_insns = 0, lofi_insns = 0, hw_insns = 0;
    u64 hifi_timeouts = 0, lofi_timeouts = 0, hw_timeouts = 0;
    u64 diffs_nonempty = 0, cluster_adds = 0;
    u64 compiled_hits = 0, compiled_misses = 0;
    harness::RootCauseClusterer lofi_clusters, hifi_clusters;
    /** Tests generated per assigned unit, in assignment order (for the
     *  campaign-global renumbering run_campaign applies). */
    std::vector<u64> unit_tests;
    double start = 0, end = 0;
};

void
trace_shard(const PipelineOptions &options, const std::vector<int> &rows,
            ShardTrace &st)
{
    Tracer &tr = st.tracer;
    st.start = mono_now();
    ScopedSpan shard_span(tr, "pokeemu.shard", st.tracer.thread());
    std::optional<Pipeline> pipeline;
    {
        ScopedSpan span(tr, "pokeemu.pipeline_init");
        pipeline.emplace(options);
    }
    const explore::StateSpec &spec = pipeline->spec();
    const symexec::Summary &summary = pipeline->descriptor_summary();
    const BudgetOptions &budgets = options.resilience.budgets;

    explore::StateExploreOptions xopt;
    xopt.max_paths = options.max_paths_per_insn;
    xopt.seed = options.seed;
    xopt.schedule = options.schedule;
    xopt.use_descriptor_summary = options.use_descriptor_summary;
    xopt.minimize = options.minimize;
    xopt.prune = options.prune;
    solver::QueryMemo memo;
    xopt.memo = &memo;

    struct Pending
    {
        u64 id;
        arch::DecodedInsn insn;
        std::vector<u8> code;
    };
    std::vector<Pending> tests;

    // Stages 2+3, one unit per row.
    for (int index : rows) {
        ScopedSpan unit_span(tr, "unit", static_cast<u64>(index));
        ++st.out.units;
        st.unit_tests.push_back(0);
        const std::vector<u8> bytes = arch::canonical_encoding(index);
        arch::DecodedInsn insn;
        if (arch::decode(bytes.data(), bytes.size(), insn) !=
                arch::DecodeStatus::Ok ||
            insn.table_index != index) {
            ++st.out.quarantined;
            continue;
        }
        memo.begin_unit();
        explore::StateExploreOptions per_insn = xopt;
        if (insn.rep || insn.repne) {
            per_insn.max_paths =
                std::min(xopt.max_paths, options.max_paths_rep);
            per_insn.max_steps = 3000;
        }
        per_insn.deadline = support::Deadline::with(
            budgets.insn_exploration_ms, budgets.insn_exploration_steps);
        per_insn.solver_query_ms = budgets.solver_query_ms;
        per_insn.solver_query_steps = budgets.solver_query_steps;

        std::optional<explore::StateExploreResult> explored;
        try {
            ScopedSpan span(tr, "explore.state", static_cast<u64>(index));
            explored.emplace(explore::explore_instruction(
                insn, spec, &summary, per_insn));
        } catch (const std::exception &) {
            ++st.out.quarantined;
            continue;
        }
        const symexec::ExploreStats &xs = explored->stats;
        if (xs.deadline_expired) {
            ++st.out.quarantined; // Budgets are unlimited here.
            continue;
        }
        ++st.out.explored;
        st.out.paths += xs.paths;
        st.out.complete_units += xs.complete;
        st.out.step_limited_units +=
            xs.truncation == coverage::TruncationReason::StepLimit;
        st.solver_queries += xs.solver_queries;
        st.queries_avoided += xs.solver_queries_avoided;
        st.memo_hits += memo.stats().unit_hits;
        st.memo_misses += memo.stats().unit_misses;

        for (const explore::ExploredPath &path : explored->paths) {
            std::optional<testgen::GenResult> gen;
            try {
                ScopedSpan span(tr, "testgen.gen", static_cast<u64>(index));
                gen.emplace(testgen::generate_test_program(
                    insn, path.assignment, spec, explored->pool));
            } catch (const std::exception &) {
                ++st.out.quarantined;
                continue;
            }
            if (gen->status != testgen::GenStatus::Ok) {
                ++st.out.generation_failures;
                continue;
            }
            tests.push_back({tests.size(), insn, gen->program.code});
            ++st.out.programs;
            ++st.unit_tests.back();
        }
    }

    // Stages 4+5, one three-way test at a time.
    harness::TestRunner runner(runner_config(options));
    harness::BackendRun hifi_run, lofi_run, hw_run;
    for (const Pending &test : tests) {
        ScopedSpan test_span(tr, "test", test.id);
        try {
            {
                ScopedSpan span(tr, "hifi.run", test.id);
                runner.run_one_into(harness::Backend::HiFi, test.code,
                                    hifi_run);
            }
            {
                ScopedSpan span(tr, "lofi.run", test.id);
                runner.run_one_into(harness::Backend::LoFi, test.code,
                                    lofi_run);
            }
            {
                ScopedSpan span(tr, "hw.run", test.id);
                runner.run_one_into(harness::Backend::Hardware,
                                    test.code, hw_run);
            }
        } catch (const std::exception &) {
            ++st.out.quarantined;
            continue;
        }
        ++st.out.tests_executed;
        st.hifi_insns += hifi_run.insns;
        st.lofi_insns += lofi_run.insns;
        st.hw_insns += hw_run.insns;
        st.hifi_timeouts += hifi_run.timed_out;
        st.lofi_timeouts += lofi_run.timed_out;
        st.hw_timeouts += hw_run.timed_out;
        if (hw_run.timed_out) {
            ++st.out.timeouts;
            continue;
        }
        const auto analyze = [&](const harness::BackendRun &run, u64 &raw,
                                 u64 &real,
                                 harness::RootCauseClusterer &clusters,
                                 const char *backend) {
            if (run.timed_out) {
                ++raw;
                ++real;
                ScopedSpan span(tr, "harness.cluster", test.id);
                clusters.add_named(test.id, test.insn,
                                   std::string("timeout-only-") + backend);
                ++st.cluster_adds;
                return;
            }
            std::optional<arch::SnapshotDiff> diff;
            {
                ScopedSpan span(tr, "arch.diff", test.id);
                diff.emplace(
                    arch::diff_snapshots(run.snapshot, hw_run.snapshot));
            }
            if (diff->empty())
                return;
            ++raw;
            ++st.diffs_nonempty;
            std::optional<harness::FilterResult> filtered;
            {
                ScopedSpan span(tr, "harness.filter", test.id);
                filtered.emplace(harness::filter_undefined(
                    test.insn, run.snapshot, hw_run.snapshot, *diff));
            }
            if (filtered->fully_filtered()) {
                ++st.out.filtered_undefined;
                return;
            }
            ++real;
            ScopedSpan span(tr, "harness.cluster", test.id);
            clusters.add(test.id, test.insn, filtered->remaining,
                         run.snapshot, hw_run.snapshot);
            ++st.cluster_adds;
        };
        analyze(lofi_run, st.out.lofi_raw, st.out.lofi_diffs,
                st.lofi_clusters, "lofi");
        analyze(hifi_run, st.out.hifi_raw, st.out.hifi_diffs,
                st.hifi_clusters, "hifi");
    }
    st.compiled_hits = runner.hifi().compiled_hits();
    st.compiled_misses = runner.hifi().compiled_misses();
    st.end = mono_now();
}

SweepOutputs
sweep_traced(const Args &args, std::vector<ShardTrace> &shards,
             JsonObject &layers)
{
    const PipelineOptions options =
        sweep_pipeline_options(args, arch::insn_table().size());
    const ShardPlan plan =
        plan_shards(options.instruction_filter, args.shards);
    shards.clear();
    for (u32 s = 0; s < args.shards; ++s)
        shards.emplace_back(s);

    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(args.shards);
    for (u32 s = 0; s < args.shards; ++s) {
        workers.emplace_back([&, s] {
            try {
                trace_shard(options, plan.assignments[s], shards[s]);
            } catch (...) {
                errors[s] = std::current_exception();
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }

    // Campaign-global test ids, exactly as run_campaign renumbers them:
    // walk the campaign order, unit p belonging to shard p % N.
    std::vector<std::vector<u64>> remap(args.shards);
    std::vector<std::size_t> next_unit(args.shards, 0);
    u64 next_id = 0;
    for (std::size_t p = 0; p < plan.campaign_order.size(); ++p) {
        const u32 owner = static_cast<u32>(p % args.shards);
        const u64 n = shards[owner].unit_tests[next_unit[owner]++];
        for (u64 k = 0; k < n; ++k)
            remap[owner].push_back(next_id++);
    }

    SweepOutputs total;
    harness::RootCauseClusterer lofi_clusters, hifi_clusters;
    u64 solver_queries = 0, avoided = 0, memo_hits = 0, memo_misses = 0;
    u64 hifi_insns = 0, lofi_insns = 0, hw_insns = 0;
    u64 hifi_timeouts = 0, lofi_timeouts = 0, hw_timeouts = 0;
    u64 diffs_nonempty = 0, cluster_adds = 0;
    u64 compiled_hits = 0, compiled_misses = 0;
    std::vector<const Tracer *> tracers;
    double last_end = shards[0].end;
    std::vector<double> busy;
    for (const ShardTrace &st : shards) {
        const SweepOutputs &o = st.out;
        total.units += o.units;
        total.explored += o.explored;
        total.paths += o.paths;
        total.complete_units += o.complete_units;
        total.step_limited_units += o.step_limited_units;
        total.programs += o.programs;
        total.generation_failures += o.generation_failures;
        total.tests_executed += o.tests_executed;
        total.lofi_raw += o.lofi_raw;
        total.lofi_diffs += o.lofi_diffs;
        total.hifi_raw += o.hifi_raw;
        total.hifi_diffs += o.hifi_diffs;
        total.filtered_undefined += o.filtered_undefined;
        total.timeouts += o.timeouts;
        total.quarantined += o.quarantined;
        const auto rm = [&](u64 local) {
            return remap[st.tracer.thread()].at(local);
        };
        lofi_clusters.merge(st.lofi_clusters, rm);
        hifi_clusters.merge(st.hifi_clusters, rm);
        solver_queries += st.solver_queries;
        avoided += st.queries_avoided;
        memo_hits += st.memo_hits;
        memo_misses += st.memo_misses;
        hifi_insns += st.hifi_insns;
        lofi_insns += st.lofi_insns;
        hw_insns += st.hw_insns;
        hifi_timeouts += st.hifi_timeouts;
        lofi_timeouts += st.lofi_timeouts;
        hw_timeouts += st.hw_timeouts;
        diffs_nonempty += st.diffs_nonempty;
        cluster_adds += st.cluster_adds;
        compiled_hits += st.compiled_hits;
        compiled_misses += st.compiled_misses;
        tracers.push_back(&st.tracer);
        last_end = std::max(last_end, st.end);
        busy.push_back(st.end - st.start);
    }
    total.lofi_clusters = lofi_clusters.to_string();
    total.hifi_clusters = hifi_clusters.to_string();

    double wait = 0, busy_sum = 0, busy_max = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        wait += last_end - shards[s].end; // Idle until the slowest ends.
        busy_sum += busy[s];
        busy_max = std::max(busy_max, busy[s]);
    }
    const double busy_mean = busy_sum / static_cast<double>(busy.size());

    const auto t = aggregate(tracers);
    const auto get = [&](const char *name) -> const SpanTotals & {
        static const SpanTotals none;
        auto it = t.find(name);
        return it == t.end() ? none : it->second;
    };
    const auto ms = [](std::vector<double> v) {
        for (double &x : v)
            x *= 1e3;
        return v;
    };
    const auto us = [](std::vector<double> v) {
        for (double &x : v)
            x *= 1e6;
        return v;
    };
    const auto ratio = [](u64 num, u64 den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    const auto base = [](u64 num, u64 den) {
        return std::to_string(num) + "/" + std::to_string(den);
    };
    const u64 clusters = lofi_clusters.clusters().size() +
        hifi_clusters.clusters().size();
    layers.num("explore.state_s", get("explore.state").total)
        .num("explore.unit_ms_p50",
             percentile(ms(get("explore.state").durations), 50))
        .num("explore.unit_ms_p97",
             percentile(ms(get("explore.state").durations), 97))
        .count("explore.paths", total.paths)
        .count("explore.complete_units", total.complete_units)
        .count("explore.solver_queries", solver_queries)
        .count("explore.queries_avoided", avoided)
        .num("explore.memo_hit_ratio",
             ratio(memo_hits, memo_hits + memo_misses))
        .str("explore.memo_hit_ratio_base",
             base(memo_hits, memo_hits + memo_misses))
        .num("testgen.gen_s", get("testgen.gen").total)
        .count("testgen.programs", total.programs)
        .count("testgen.failures", total.generation_failures)
        .num("hifi.run_s", get("hifi.run").total)
        .num("hifi.run_us_p50",
             percentile(us(get("hifi.run").durations), 50))
        .num("hifi.run_us_p99",
             percentile(us(get("hifi.run").durations), 99))
        .count("hifi.insns", hifi_insns)
        .count("hifi.timeouts", hifi_timeouts)
        .num("hifi.compiled_hit_ratio",
             ratio(compiled_hits, compiled_hits + compiled_misses))
        .str("hifi.compiled_hit_ratio_base",
             base(compiled_hits, compiled_hits + compiled_misses))
        .num("lofi.run_s", get("lofi.run").total)
        .num("lofi.run_us_p50",
             percentile(us(get("lofi.run").durations), 50))
        .num("lofi.run_us_p99",
             percentile(us(get("lofi.run").durations), 99))
        .count("lofi.insns", lofi_insns)
        .count("lofi.timeouts", lofi_timeouts)
        .num("hw.run_s", get("hw.run").total)
        .num("hw.run_us_p50",
             percentile(us(get("hw.run").durations), 50))
        .num("hw.run_us_p99",
             percentile(us(get("hw.run").durations), 99))
        .count("hw.insns", hw_insns)
        .count("hw.timeouts", hw_timeouts)
        .num("arch.diff_s", get("arch.diff").total)
        .num("arch.diff_us_p50",
             percentile(us(get("arch.diff").durations), 50))
        .count("arch.diffs_nonempty", diffs_nonempty)
        .num("harness.filter_s", get("harness.filter").total)
        .count("harness.filtered_undefined", total.filtered_undefined)
        .num("harness.cluster_s", get("harness.cluster").total)
        .count("harness.cluster_adds", cluster_adds)
        .count("harness.clusters", clusters)
        .num("pokeemu.shard_busy_max_s", busy_max)
        .num("pokeemu.shard_busy_mean_s", busy_mean)
        .num("pokeemu.shard_imbalance",
             busy_mean > 0 ? busy_max / busy_mean : 0)
        .num("pokeemu.shard_wait_s", wait);
    // Self time per layer, summed over threads (the share table).
    for (const char *name :
         {"explore.state", "testgen.gen", "hifi.run", "lofi.run", "hw.run",
          "arch.diff", "harness.filter", "harness.cluster",
          "pokeemu.pipeline_init"}) {
        layers.num(std::string("self.") + name, get(name).self);
    }
    layers.num("self.bench", get("pokeemu.shard").self + get("unit").self +
                   get("test").self);
    return total;
}

// ---- main -----------------------------------------------------------------

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_worker --workload decode|sweep "
                 "--seed N [--shards N] [--trace --trace-out FILE] "
                 "[--setup-only]\n");
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload")
            args.workload = value();
        else if (a == "--seed")
            args.seed = std::stoull(value());
        else if (a == "--shards")
            args.shards = static_cast<u32>(std::stoul(value()));
        else if (a == "--trace")
            args.trace = true;
        else if (a == "--trace-out")
            args.trace_out = value();
        else if (a == "--setup-only")
            args.setup_only = true;
        else
            usage();
    }
    if ((args.workload != "decode" && args.workload != "sweep") ||
        args.shards == 0 || (args.trace && args.trace_out.empty()))
        usage();
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    set_log_level(LogLevel::Warn);
    const bool decode = args.workload == "decode";

    Tracer setup_tracer(0);
    if (decode)
        decode_warmup();
    else
        sweep_warmup(args, args.trace ? &setup_tracer : nullptr);

    const double ready = mono_now();
    if (args.setup_only) {
        std::printf("%s\n", JsonObject()
                                 .str("workload", args.workload)
                                 .num("ready_mono", ready)
                                 .text()
                                 .c_str());
        return 0;
    }
    const double cpu0 = cpu_seconds();
    JsonObject outputs, layers;
    u64 attempted = 0, failed = 0;
    std::vector<const Tracer *> tracers;
    Tracer decode_tracer(0);
    std::vector<ShardTrace> shards;
    std::string report;
    double wall = 0, cpu = 0;
    const auto workload = [&] {
        if (decode) {
            const DecodeOutputs o = args.trace
                ? decode_traced(args, decode_tracer, layers)
                : decode_untraced(args);
            outputs = decode_json(o);
            attempted = decode_attempted(o);
            failed = decode_failed(o);
            if (args.trace)
                tracers.push_back(&decode_tracer);
        } else if (args.trace) {
            const SweepOutputs o = sweep_traced(args, shards, layers);
            outputs = sweep_json(o);
            attempted = sweep_attempted(o);
            failed = sweep_failed(o);
            for (const ShardTrace &st : shards)
                tracers.push_back(&st.tracer);
        } else {
            const CampaignResult r = run_campaign(
                campaign_options(args, arch::insn_table().size()));
            const SweepOutputs o = outputs_of(r.merged);
            report = r.report();
            outputs = sweep_json(o);
            attempted = sweep_attempted(o);
            failed = sweep_failed(o);
        }
        wall = mono_now() - ready;
        cpu = cpu_seconds() - cpu0;
    };
    // The workload runs on a thread of its own, as every shard of a
    // multi-shard campaign does: the warm-up filled this thread's
    // thread_local expression-intern table, which a one-shard or decode
    // run must not inherit.
    std::exception_ptr error;
    std::thread thread([&] {
        try {
            workload();
        } catch (...) {
            error = std::current_exception();
        }
    });
    thread.join();
    if (error)
        std::rethrow_exception(error);

    JsonObject line;
    line.str("workload", args.workload)
        .count("seed", args.seed)
        .count("shards", args.shards)
        .count("trace", args.trace)
        .num("ready_mono", ready)
        .num("wall_s", wall)
        .num("cpu_s", cpu)
        .num("peak_rss_mb", peak_rss_mb())
        .count("attempted", attempted)
        .count("failed", failed)
        .raw("outputs", outputs.text());
    if (!report.empty())
        line.str("report", report);
    if (args.trace) {
        if (!setup_tracer.spans().empty()) {
            const auto setup = aggregate({&setup_tracer});
            layers.num("hifi.first_run_s", setup.at("hifi.first_run").total);
        } else {
            layers.num("hifi.first_run_s", 0.0);
        }
        tracers.push_back(&setup_tracer);
        write_chrome_trace(args.trace_out, tracers);
        line.raw("layers", layers.text());
    }
    std::printf("%s\n", line.text().c_str());
    return 0;
}
