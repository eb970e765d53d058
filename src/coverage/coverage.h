/**
 * @file
 * IR block/edge coverage accounting and frontier scheduling for capped
 * path explorations.
 *
 * The paper's headline fidelity claim — complete path coverage for
 * ~95% of instructions under an 8192-path cap (§6) — needs a
 * measurable analog: when the cap truncates an exploration, *what* did
 * the surviving paths cover, and which semantics blocks did the cap
 * leave dark? This module answers that with two pieces:
 *
 *  - CoverageMap: per-unit basic-block and branch-edge coverage over
 *    the instruction's semantics CFG (analysis::Cfg), updated online
 *    as symexec::PathExplorer completes paths. The denominators are
 *    the CFG's *reachable* blocks and their edges; a complete
 *    exploration can still leave edges dark when a branch direction is
 *    infeasible under the preconditions, which is itself informative.
 *
 *  - FrontierPolicy / FrontierScheduler: a pluggable priority policy
 *    consulted by the explorer whenever both directions of a symbolic
 *    branch are still open in the decision tree. The default
 *    (UncoveredEdgeFirst) is the Empc-style "cover new structure
 *    before re-splitting known structure" heuristic: take the branch
 *    edge that is not yet covered, tie-breaking by the CFG distance to
 *    the nearest uncovered edge (the direction that reaches new
 *    structure at the shallowest depth wins). Decisions depend only on
 *    the coverage state — itself a pure function of the exploration so
 *    far — and the explorer's seeded RNG, so scheduling is a pure
 *    function of (unit, seed) and sharded campaign reports stay
 *    byte-identical.
 */
#ifndef POKEEMU_COVERAGE_COVERAGE_H
#define POKEEMU_COVERAGE_COVERAGE_H

#include <memory>
#include <optional>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/pathstructure.h"

namespace pokeemu::coverage {

using analysis::BlockId;

/** Why a capped exploration stopped short of exhausting its tree
 *  (None = the decision tree was exhausted with no path cut short). */
enum class TruncationReason : u8 {
    None,         ///< Complete: every feasible path enumerated fully.
    PathCap,      ///< The max_paths (or dead-end-run) cap ended it.
    Deadline,     ///< The whole-exploration Deadline expired.
    StepLimit,    ///< At least one path hit the per-path step budget.
    SolverTimeout ///< A solver query exceeded its budget (the unit is
                  ///< quarantined; the reason survives in the ledger).
};

constexpr unsigned kNumTruncationReasons = 5;

const char *truncation_reason_name(TruncationReason reason);

/** Covered/total accounting for one unit's semantics CFG. */
struct CoverageStats
{
    u64 covered_blocks = 0;
    u64 total_blocks = 0; ///< Reachable blocks in the CFG.
    u64 covered_edges = 0;
    u64 total_edges = 0;  ///< Edges between reachable blocks.
};

/**
 * Histogram bucket for one unit's block-coverage ratio. Buckets are
 * 0: 100%, 1: [90,100), 2: [75,90), 3: [50,75), 4: [0,50) — chosen so
 * the first bucket is exactly the paper's "complete coverage" figure.
 */
constexpr unsigned kNumCoverageBuckets = 5;

unsigned coverage_bucket(u64 covered, u64 total);

const char *coverage_bucket_name(unsigned bucket);

/** See file comment. */
class CoverageMap
{
  public:
    /** Build the CFG of @p program and start with nothing covered.
     *  Precondition: the program validates (labels bound in range). */
    explicit CoverageMap(const ir::Program &program);

    const analysis::Cfg &cfg() const { return cfg_; }

    /** Block containing statement @p stmt_index. */
    BlockId block_of(u32 stmt_index) const
    {
        return cfg_.block_of(stmt_index);
    }

    /** Block entered when control reaches statement @p stmt_index, or
     *  nullopt when the statement is not a block leader (straight-line
     *  continuation inside the current block). */
    std::optional<BlockId> entered_block(u32 stmt_index) const;

    bool block_covered(BlockId block) const { return covered_[block]; }
    bool edge_covered(BlockId from, BlockId to) const;

    /**
     * Record one completed path as the sequence of blocks it entered,
     * in execution order (consecutive entries are CFG edges). Marks
     * blocks and edges covered; when a block loses its last uncovered
     * out-edge, marks the distance cache stale.
     */
    void cover_path(const std::vector<BlockId> &trace);

    /**
     * CFG distance (in edges) from @p block to the source of the
     * nearest uncovered edge; 0 when @p block itself has an uncovered
     * out-edge, ~u32{0} when no uncovered edge is reachable. One
     * multi-source reverse BFS from the blocks with an uncovered
     * out-edge fills a cache; a query after cover_path removed one of
     * those sources rebuilds it. Covering an edge of a block that
     * keeps another uncovered out-edge changes no distance.
     */
    u32 distance_to_uncovered(BlockId block) const;

    /**
     * Attach the static path-structure analysis (PathCoverFirst's
     * scaffold) and reset the dynamic chain-coverage state to match
     * the blocks/edges covered so far. The map takes ownership;
     * passing null detaches.
     */
    void set_path_structure(
        std::unique_ptr<const analysis::PathStructure> structure);

    const analysis::PathStructure *path_structure() const
    {
        return structure_.get();
    }

    /**
     * Number of still-dirty cover chains reachable from @p block
     * (over non-pruned CFG edges, back edges included). A chain is
     * dirty until every block on it and every chain-internal edge is
     * covered. 0 when no structure is attached.
     */
    u32 uncovered_cover_paths_through(BlockId block) const;

    CoverageStats stats() const;

  private:
    void rebuild_distance() const;
    bool block_has_uncovered_out_edge(BlockId block) const;

    analysis::Cfg cfg_;
    std::vector<bool> covered_;              ///< Per block.
    /** covered_edge_[b][i] covers cfg blocks()[b].succs[i]. */
    std::vector<std::vector<bool>> covered_edge_;
    u64 covered_blocks_ = 0;
    u64 covered_edges_ = 0;
    u64 total_blocks_ = 0;
    u64 total_edges_ = 0;
    /** Reverse-BFS distances (see distance_to_uncovered). */
    mutable std::vector<u32> distance_;
    mutable bool distance_valid_ = false;

    /** PathCoverFirst state; null unless set_path_structure ran. */
    std::unique_ptr<const analysis::PathStructure> structure_;
    /** Per chain: uncovered blocks + uncovered chain-internal edges
     *  remaining; the chain is dirty while nonzero. */
    std::vector<u32> chain_dirty_units_;
    /** Bitset of dirty chains (structure_->chain_words() words). */
    std::vector<u64> dirty_chains_;
};

/** Everything a FrontierPolicy may consult about one open branch. */
struct BranchContext
{
    BlockId from = 0;      ///< Block containing the CJmp.
    BlockId target[2] = {0, 0}; ///< Successor block per direction.
    u32 depth = 0;         ///< Decision-tree depth of the branch node.
    bool model_dir = false; ///< Direction the current model supports
                            ///< (feasible without a solver query).
};

/**
 * Pluggable branch-direction priority. Consulted only when both
 * directions are still open in the decision tree; returning nullopt
 * leaves the choice to the explorer's default (seeded random), so a
 * policy can express "no preference" without forfeiting determinism.
 */
class FrontierPolicy
{
  public:
    virtual ~FrontierPolicy() = default;
    virtual std::optional<bool> prefer(const CoverageMap &map,
                                       const BranchContext &branch)
        const = 0;
};

/**
 * The default policy: uncovered-edge-first with a depth tiebreak.
 *  1. If exactly one direction's branch edge is uncovered, take it.
 *  2. Otherwise prefer the direction whose target is CFG-closer to an
 *     uncovered edge (reach new structure at the shallowest depth).
 *  3. Otherwise no preference (explorer default).
 */
class UncoveredEdgeFirst final : public FrontierPolicy
{
  public:
    std::optional<bool> prefer(const CoverageMap &map,
                               const BranchContext &branch)
        const override;
};

/**
 * Empc-style cover-path scheduling over the static minimal path cover
 * (analysis::PathStructure, attached to the CoverageMap by the
 * explorer's owner):
 *  1. Prefer the direction whose branch edge is still uncovered (the
 *     frontier's strongest rule — under a tight cap, new structure
 *     available *now* beats a richer-looking far side).
 *  2. Tie: prefer the direction whose target lies on more
 *     still-uncovered cover chains
 *     (CoverageMap::uncovered_cover_paths_through).
 *  3. Tie: the UncoveredEdgeFirst distance-to-uncovered rule.
 * Without an attached PathStructure, behaves exactly like
 * UncoveredEdgeFirst. Stateless: all state lives in the CoverageMap,
 * itself a pure function of the exploration so far — scheduling stays
 * a pure function of (unit, seed).
 */
class PathCoverFirst final : public FrontierPolicy
{
  public:
    std::optional<bool> prefer(const CoverageMap &map,
                               const BranchContext &branch)
        const override;
};

/** Named policy selection for options structs (fingerprintable). */
enum class SchedulePolicy : u8 {
    DefaultOrder,       ///< Seeded-random direction choice
                        ///< (pre-coverage behaviour).
    UncoveredEdgeFirst, ///< The frontier scheduler (PR 4 default).
    PathCoverFirst      ///< Minimal-path-cover guided scheduling.
};

const char *schedule_policy_name(SchedulePolicy policy);

/** Shared immutable policy instance for @p policy; null for
 *  DefaultOrder (the explorer then never consults a policy). */
const FrontierPolicy *frontier_policy(SchedulePolicy policy);

} // namespace pokeemu::coverage

#endif // POKEEMU_COVERAGE_COVERAGE_H
