/**
 * @file
 * Parallel sharded campaign driver.
 *
 * The paper's headline sweep (§6: 68,977 candidate instructions,
 * 610,516 paths) is embarrassingly parallel across instructions: each
 * unit's exploration is a pure function of (instruction, options).
 * This driver partitions the instruction set deterministically across
 * N workers, runs each shard as its own Pipeline — with its own
 * checkpoint file and quarantine ledger — in time-sliced
 * sessions, and merges shard progress into one campaign report.
 *
 * Determinism contract: the merged report is byte-identical regardless
 * of shard count, shard completion order, and how many sessions each
 * shard took. The pieces that make that true:
 *
 *  - Interleaved assignment: campaign position p belongs to shard
 *    p % N, so the campaign order (and the 1-shard order) is a fixed
 *    reference frame every layout maps back onto.
 *  - Per-unit purity: the per-worker solver memo is cleared at unit
 *    boundaries (QueryMemo::begin_unit), so a unit's paths, tests and
 *    verdicts cannot depend on which units preceded it on the worker.
 *  - Global renumbering: shard-local test ids are rewritten to the
 *    campaign-order numbering (exactly what a 1-shard run assigns)
 *    before counters, clusters, and quarantine entries are merged.
 *  - The report carries no timings, session counts, or shard counts —
 *    those are observable via CampaignResult fields instead.
 */
#ifndef POKEEMU_POKEEMU_SHARD_H
#define POKEEMU_POKEEMU_SHARD_H

#include "pokeemu/pipeline.h"

namespace pokeemu {

/** Configuration of one sharded campaign. */
struct CampaignOptions
{
    /** Base pipeline options, shared by every shard. The resilience
     *  checkpoint_path / resume / preemption quotas inside are
     *  overridden per shard from the fields below. */
    PipelineOptions pipeline{};
    /** Number of workers (>= 1). */
    u32 shards = 1;
    /** Directory for per-shard checkpoints, the campaign manifest and
     *  the merged checkpoint (created if missing). Empty disables
     *  checkpointing; slicing and resume then refuse to run. */
    std::string checkpoint_dir;
    /** Resume a prior campaign from checkpoint_dir. The manifest
     *  refuses a resume under a different shard count or options. */
    bool resume = false;
    /** Per-session stage-2/3 quota per shard (fresh units); 0 = no
     *  slicing. A preempted shard runs another session until done. */
    u32 explore_slice_units = 0;
    /** Per-session stage-4/5 quota per shard (fresh tests). */
    u32 execute_slice_tests = 0;
    /** Stop each shard after this many sessions even if incomplete
     *  (0 = run to completion) — lets callers simulate interruption;
     *  the next run_campaign with resume=true continues. */
    u32 max_sessions_per_shard = 0;
};

/** Deterministic partition of the campaign workload. */
struct ShardPlan
{
    /** All table indices, in campaign order (= 1-shard order). */
    std::vector<int> campaign_order;
    /** assignments[s] = indices owned by shard s, in campaign order
     *  (campaign position p is owned by shard p % N). */
    std::vector<std::vector<int>> assignments;
};

/** Partition @p indices across @p shards by interleaving. */
ShardPlan plan_shards(const std::vector<int> &indices, u32 shards);

/** What one shard worker produced. */
struct ShardOutcome
{
    u32 shard = 0;
    u32 sessions = 0;     ///< Pipeline sessions this run_campaign ran.
    bool complete = false;
    /** Final session's stats (cumulative across resumed sessions). */
    PipelineStats stats;
    /** Final checkpoint content (shard-local test ids). */
    Checkpoint progress;
};

/** A campaign's merged result. */
struct CampaignResult
{
    bool complete = false; ///< Every shard finished its workload.
    u32 shards = 0;
    u64 sessions = 0;      ///< Total sessions across shards.
    double wall_seconds = 0;
    /** Merged, renumbered, layout-invariant stats (timings and
     *  session-scoped counters are left zero). */
    PipelineStats merged;
    /** Merged checkpoint in campaign order with campaign-global test
     *  ids; also written to checkpoint_dir as campaign.ckpt. */
    Checkpoint merged_checkpoint;
    std::vector<ShardOutcome> outcomes;

    /**
     * The deterministic campaign report: byte-identical for the same
     * workload and options regardless of shard count, completion
     * order, or session slicing. Timings, shard and session counts are
     * deliberately absent (read the fields above instead).
     */
    std::string report() const;
};

/** Run a sharded campaign; see file comment. Throws std::logic_error
 *  on configuration errors (slicing without a checkpoint_dir, resume
 *  under a different layout, ...). */
CampaignResult run_campaign(const CampaignOptions &options);

} // namespace pokeemu

#endif // POKEEMU_POKEEMU_SHARD_H
