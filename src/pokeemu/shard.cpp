#include "pokeemu/shard.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "support/logging.h"
#include "support/rng.h"

namespace pokeemu {

namespace {

constexpr const char *kManifestMagic = "pokeemu-campaign-v1";

[[noreturn]] void
campaign_error(const std::string &message)
{
    throw std::logic_error("campaign: " + message);
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Campaign identity: the resolved pipeline options plus the layout. */
u64
campaign_fingerprint_of(const PipelineOptions &resolved, u32 shards)
{
    u64 h = options_fingerprint(resolved);
    h = mix64(h ^ mix64(0x73686172645f6964ULL)); // "shard_id"
    h = mix64(h ^ mix64(shards));
    return h;
}

std::string
shard_checkpoint_path(const std::string &dir, u32 shard)
{
    return dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

struct Manifest
{
    u64 fingerprint = 0;
    u32 shards = 0;
};

void
write_manifest(const std::string &path, const Manifest &manifest)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            campaign_error("cannot open '" + tmp + "' for writing");
        out << kManifestMagic << "\n";
        out << "fingerprint " << manifest.fingerprint << "\n";
        out << "shards " << manifest.shards << "\n";
        out << "end\n";
        if (!out)
            campaign_error("write to '" + tmp + "' failed");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        campaign_error("rename to '" + path + "' failed: " +
                       ec.message());
}

std::optional<Manifest>
read_manifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::string magic;
    if (!std::getline(in, magic) || magic != kManifestMagic)
        campaign_error("'" + path + "' has a bad header "
                       "(version mismatch?)");
    Manifest m;
    std::string tag;
    if (!(in >> tag >> m.fingerprint) || tag != "fingerprint")
        campaign_error("'" + path + "' has a bad fingerprint row");
    if (!(in >> tag >> m.shards) || tag != "shards")
        campaign_error("'" + path + "' has a bad shards row");
    return m;
}

ShardOutcome
run_shard(const CampaignOptions &options,
          const std::vector<int> &assigned, u32 shard)
{
    set_log_shard(static_cast<int>(shard));
    ShardOutcome out;
    out.shard = shard;
    if (assigned.empty()) {
        // More shards than instructions: an empty worker is complete
        // by definition (an empty filter would mean "explore all").
        out.complete = true;
        set_log_shard(-1);
        return out;
    }

    PipelineOptions po = options.pipeline;
    po.instruction_filter = assigned;
    po.max_instructions = 0; // The campaign cap was applied at planning.
    ResilienceOptions &res = po.resilience;
    res.checkpoint_path = options.checkpoint_dir.empty()
        ? std::string{}
        : shard_checkpoint_path(options.checkpoint_dir, shard);
    res.explore_at_most_units = options.explore_slice_units;
    res.execute_at_most_tests = options.execute_slice_tests;
    res.resume = options.resume;

    for (;;) {
        Pipeline pipeline(po);
        pipeline.run();
        ++out.sessions;
        out.stats = pipeline.stats();
        out.progress = pipeline.checkpoint();
        if (!out.stats.explore_preempted &&
            !out.stats.execute_preempted) {
            out.complete = true;
            break;
        }
        if (options.max_sessions_per_shard &&
            out.sessions >= options.max_sessions_per_shard) {
            break; // Interrupted; a later resume continues.
        }
        res.resume = true; // Later sessions continue own progress.
    }
    set_log_shard(-1);
    return out;
}

/** Sort key giving quarantine entries their campaign order: stage-2/3
 *  entries by campaign position (then path), execution entries by
 *  (remapped) test id, anything unparseable last by text. */
struct QuarantineKey
{
    int group = 2;
    u64 a = 0;
    u64 b = 0;
};

QuarantineKey
quarantine_key(const std::string &unit,
               const std::map<int, u64> &position)
{
    QuarantineKey key;
    std::istringstream is(unit);
    std::string kind;
    if (!(is >> kind))
        return key;
    if (kind == "insn") {
        int index = 0;
        if (!(is >> index))
            return key;
        auto it = position.find(index);
        key.group = 0;
        key.a = it == position.end() ? ~u64{0} : it->second;
        const std::size_t path_pos = unit.find(" path ");
        if (path_pos != std::string::npos) {
            key.b = 1 +
                std::strtoull(unit.c_str() + path_pos + 6, nullptr,
                              10);
        }
    } else if (kind == "test") {
        u64 id = 0;
        if (!(is >> id)) // Already remapped by the caller.
            return key;
        key.group = 1;
        key.a = id;
    }
    return key;
}

void
merge_outcomes(CampaignResult &result, const ShardPlan &plan,
               Workload &&workload)
{
    PipelineStats &m = result.merged;
    m.insn_set = std::move(workload.insn_set);
    result.complete = true;
    result.sessions = 0;

    // Campaign-global test numbering: walk the campaign order (the
    // 1-shard order) and hand out ids exactly as a single sequential
    // run would have; remember each shard's local -> global map.
    std::vector<std::map<u64, u64>> remap(result.outcomes.size());
    Checkpoint &mc = result.merged_checkpoint;
    u64 next_id = 0;
    for (std::size_t p = 0; p < plan.campaign_order.size(); ++p) {
        const int index = plan.campaign_order[p];
        const u32 owner = static_cast<u32>(p % result.shards);
        const CheckpointUnit *cu =
            result.outcomes[owner].progress.find_unit(index);
        if (cu == nullptr)
            continue; // Quarantined, or not reached yet (incomplete).
        CheckpointUnit unit = *cu;
        for (CheckpointTest &test : unit.tests) {
            remap[owner][test.id] = next_id;
            test.id = next_id++;
        }
        m.add_unit(unit);
        mc.explored.push_back(std::move(unit));
    }

    for (const ShardOutcome &o : result.outcomes) {
        result.complete = result.complete && o.complete;
        result.sessions += o.sessions;
        m.compiled_hits += o.stats.compiled_hits;
        m.compiled_misses += o.stats.compiled_misses;
        // Session-scoped counters (budget_retries, units_resumed,
        // tests_resumed, checkpoints_written) are layout-dependent by
        // nature and deliberately left out of the merged stats.
        const auto &ids = remap[o.shard];
        m.merge(o.stats, [&](u64 local) -> u64 {
            auto it = ids.find(local);
            return it == ids.end() ? local : it->second;
        });
    }

    // Quarantine ledger: remap execution entries to global test ids,
    // then order everything by campaign position so the merged ledger
    // reads exactly like a sequential run's.
    std::map<int, u64> position;
    for (std::size_t p = 0; p < plan.campaign_order.size(); ++p)
        position.emplace(plan.campaign_order[p], p);
    struct Entry
    {
        QuarantineKey key;
        support::QuarantinedUnit unit;
    };
    std::vector<Entry> entries;
    for (const ShardOutcome &o : result.outcomes) {
        for (const support::QuarantinedUnit &q :
             o.stats.quarantine.units()) {
            Entry e{.key = {}, .unit = q};
            if (q.unit.rfind("test ", 0) == 0) {
                const u64 local =
                    std::strtoull(q.unit.c_str() + 5, nullptr, 10);
                const auto &ids = remap[o.shard];
                auto it = ids.find(local);
                if (it != ids.end())
                    e.unit.unit = "test " + std::to_string(it->second);
            }
            e.key = quarantine_key(e.unit.unit, position);
            entries.push_back(std::move(e));
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &x, const Entry &y) {
                  if (x.key.group != y.key.group)
                      return x.key.group < y.key.group;
                  if (x.key.a != y.key.a)
                      return x.key.a < y.key.a;
                  if (x.key.b != y.key.b)
                      return x.key.b < y.key.b;
                  if (x.unit.unit != y.unit.unit)
                      return x.unit.unit < y.unit.unit;
                  if (x.unit.stage != y.unit.stage)
                      return x.unit.stage < y.unit.stage;
                  return x.unit.message < y.unit.message;
              });
    for (Entry &e : entries) {
        m.quarantine.add(e.unit.stage, std::move(e.unit.unit),
                         e.unit.cls, std::move(e.unit.message));
    }

    // Merged checkpoint counters mirror the merged stats. For a
    // complete campaign executed_count covers every merged test; for
    // an incomplete one the merged file is informational (each shard's
    // own checkpoint remains the resumable artifact).
    static_cast<ExecutionTotals &>(mc.execution) = m;
    for (const ShardOutcome &o : result.outcomes) {
        mc.execution.executed_count +=
            o.progress.execution.executed_count;
    }
    mc.quarantine = m.quarantine;
}

} // namespace

ShardPlan
plan_shards(const std::vector<int> &indices, u32 shards)
{
    if (shards == 0)
        campaign_error("shards must be >= 1");
    ShardPlan plan;
    plan.campaign_order = indices;
    plan.assignments.resize(shards);
    for (std::size_t p = 0; p < indices.size(); ++p)
        plan.assignments[p % shards].push_back(indices[p]);
    return plan;
}

CampaignResult
run_campaign(const CampaignOptions &options)
{
    const auto t_start = std::chrono::steady_clock::now();
    if (options.shards == 0)
        campaign_error("shards must be >= 1");
    if (options.checkpoint_dir.empty()) {
        if (options.explore_slice_units ||
            options.execute_slice_tests ||
            options.max_sessions_per_shard) {
            campaign_error(
                "time slicing requires a checkpoint directory "
                "(preempted sessions resume from shard checkpoints)");
        }
        if (options.resume)
            campaign_error("resume requires a checkpoint directory");
    }

    // Stage 1 runs once, driver-side; each worker then receives its
    // slice as an explicit filter.
    Workload workload = resolve_workload(options.pipeline);
    const ShardPlan plan =
        plan_shards(workload.order, options.shards);

    PipelineOptions resolved = options.pipeline;
    resolved.instruction_filter = workload.order;
    resolved.max_instructions = 0;
    if (!options.checkpoint_dir.empty()) {
        std::filesystem::create_directories(options.checkpoint_dir);
        const std::string manifest_path =
            options.checkpoint_dir + "/campaign.manifest";
        const Manifest manifest{
            campaign_fingerprint_of(resolved, options.shards),
            options.shards};
        if (options.resume) {
            if (const auto prior = read_manifest(manifest_path)) {
                if (prior->shards != options.shards) {
                    campaign_error(
                        "'" + manifest_path + "' was written for " +
                        std::to_string(prior->shards) +
                        " shards; resuming with " +
                        std::to_string(options.shards) +
                        " would mix incompatible shard checkpoints — "
                        "use the original shard count or start fresh");
                }
                if (prior->fingerprint != manifest.fingerprint) {
                    campaign_error(
                        "'" + manifest_path +
                        "' was written under different campaign "
                        "options; refusing to resume");
                }
            }
        }
        write_manifest(manifest_path, manifest);
    }

    CampaignResult result;
    result.shards = options.shards;
    result.outcomes.resize(options.shards);
    if (options.shards > 1) {
        std::vector<std::thread> workers;
        std::vector<std::exception_ptr> errors(options.shards);
        workers.reserve(options.shards);
        for (u32 s = 0; s < options.shards; ++s) {
            workers.emplace_back([&, s] {
                try {
                    result.outcomes[s] =
                        run_shard(options, plan.assignments[s], s);
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
    } else {
        for (u32 s = 0; s < options.shards; ++s)
            result.outcomes[s] =
                run_shard(options, plan.assignments[s], s);
    }

    merge_outcomes(result, plan, std::move(workload));
    result.merged_checkpoint.fingerprint =
        options_fingerprint(resolved);
    if (!options.checkpoint_dir.empty()) {
        save_checkpoint_file(options.checkpoint_dir + "/campaign.ckpt",
                             result.merged_checkpoint);
    }
    result.wall_seconds = seconds_since(t_start);
    return result;
}

std::string
CampaignResult::report() const
{
    return merged.to_string();
}

} // namespace pokeemu
