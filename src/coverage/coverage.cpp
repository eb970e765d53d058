#include "coverage/coverage.h"

#include <deque>

namespace pokeemu::coverage {

const char *
truncation_reason_name(TruncationReason reason)
{
    switch (reason) {
      case TruncationReason::None: return "none";
      case TruncationReason::PathCap: return "path-cap";
      case TruncationReason::Deadline: return "deadline";
      case TruncationReason::StepLimit: return "step-limit";
      case TruncationReason::SolverTimeout: return "solver-timeout";
    }
    return "?";
}

unsigned
coverage_bucket(u64 covered, u64 total)
{
    if (total == 0 || covered >= total)
        return 0;
    const u64 pct = covered * 100 / total;
    if (pct >= 90)
        return 1;
    if (pct >= 75)
        return 2;
    if (pct >= 50)
        return 3;
    return 4;
}

const char *
coverage_bucket_name(unsigned bucket)
{
    switch (bucket) {
      case 0: return "100%";
      case 1: return "90-99%";
      case 2: return "75-89%";
      case 3: return "50-74%";
      case 4: return "<50%";
    }
    return "?";
}

namespace {

constexpr u32 kUnreachable = ~u32{0};

} // namespace

CoverageMap::CoverageMap(const ir::Program &program)
    : cfg_(analysis::Cfg::build(program))
{
    const u32 n = cfg_.num_blocks();
    covered_.assign(n, false);
    covered_edge_.resize(n);
    for (BlockId b = 0; b < n; ++b) {
        covered_edge_[b].assign(cfg_.blocks()[b].succs.size(), false);
        if (!cfg_.reachable(b))
            continue;
        ++total_blocks_;
        total_edges_ += cfg_.blocks()[b].succs.size();
    }
}

std::optional<BlockId>
CoverageMap::entered_block(u32 stmt_index) const
{
    const BlockId b = cfg_.block_of(stmt_index);
    if (cfg_.blocks()[b].first != stmt_index)
        return std::nullopt;
    return b;
}

bool
CoverageMap::edge_covered(BlockId from, BlockId to) const
{
    const std::vector<BlockId> &succs = cfg_.blocks()[from].succs;
    for (std::size_t i = 0; i < succs.size(); ++i) {
        if (succs[i] == to)
            return covered_edge_[from][i];
    }
    // Not a CFG edge at all; treat as covered so no policy chases it.
    return true;
}

void
CoverageMap::set_path_structure(
    std::unique_ptr<const analysis::PathStructure> structure)
{
    structure_ = std::move(structure);
    chain_dirty_units_.clear();
    dirty_chains_.clear();
    if (structure_ == nullptr)
        return;
    // A chain's dirty units are its uncovered blocks plus its
    // uncovered chain-internal edges; seed them from the coverage
    // accumulated so far so attaching mid-exploration stays exact.
    chain_dirty_units_.assign(structure_->num_chains(), 0);
    dirty_chains_.assign(structure_->chain_words(), 0);
    for (u32 c = 0; c < structure_->num_chains(); ++c) {
        const analysis::CoverChain &chain = structure_->chains()[c];
        u32 units = 0;
        for (std::size_t i = 0; i < chain.blocks.size(); ++i) {
            if (!covered_[chain.blocks[i]])
                ++units;
            if (i + 1 < chain.blocks.size() &&
                !edge_covered(chain.blocks[i], chain.blocks[i + 1]))
                ++units;
        }
        chain_dirty_units_[c] = units;
        if (units != 0)
            dirty_chains_[c / 64] |= u64{1} << (c % 64);
    }
}

u32
CoverageMap::uncovered_cover_paths_through(BlockId block) const
{
    if (structure_ == nullptr)
        return 0;
    const std::vector<u64> &reach = structure_->reachable_chains(block);
    u32 count = 0;
    for (std::size_t w = 0; w < reach.size(); ++w)
        count += static_cast<u32>(
            __builtin_popcountll(reach[w] & dirty_chains_[w]));
    return count;
}

void
CoverageMap::cover_path(const std::vector<BlockId> &trace)
{
    // Mark a chain unit (block or chain-internal edge) covered and
    // clean the chain's dirty bit when the last one falls.
    const auto chain_unit_covered = [&](u32 chain) {
        if (chain == analysis::kNoChain ||
            chain >= chain_dirty_units_.size() ||
            chain_dirty_units_[chain] == 0)
            return;
        if (--chain_dirty_units_[chain] == 0)
            dirty_chains_[chain / 64] &= ~(u64{1} << (chain % 64));
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BlockId b = trace[i];
        if (!covered_[b]) {
            covered_[b] = true;
            ++covered_blocks_;
            if (structure_ != nullptr)
                chain_unit_covered(structure_->chain_of(b));
        }
        if (i + 1 == trace.size())
            continue;
        const std::vector<BlockId> &succs = cfg_.blocks()[b].succs;
        for (std::size_t s = 0; s < succs.size(); ++s) {
            if (succs[s] == trace[i + 1] && !covered_edge_[b][s]) {
                covered_edge_[b][s] = true;
                ++covered_edges_;
                if (structure_ != nullptr &&
                    structure_->chain_next(b) == trace[i + 1])
                    chain_unit_covered(structure_->chain_of(b));
                // Covering b's last uncovered out-edge removes b from
                // the distance BFS sources: the cache is stale.
                if (!block_has_uncovered_out_edge(b))
                    distance_valid_ = false;
                break;
            }
        }
    }
}

bool
CoverageMap::block_has_uncovered_out_edge(BlockId block) const
{
    const auto &edges = covered_edge_[block];
    for (std::size_t s = 0; s < edges.size(); ++s) {
        if (!edges[s])
            return true;
    }
    return false;
}

void
CoverageMap::rebuild_distance() const
{
    // Multi-source reverse BFS from every block that still has an
    // uncovered out-edge: distance_[b] is then the number of edges
    // control must traverse from b before it can take one.
    distance_.assign(cfg_.num_blocks(), kUnreachable);
    std::deque<BlockId> queue;
    for (BlockId b = 0; b < cfg_.num_blocks(); ++b) {
        if (block_has_uncovered_out_edge(b)) {
            distance_[b] = 0;
            queue.push_back(b);
        }
    }
    while (!queue.empty()) {
        const BlockId b = queue.front();
        queue.pop_front();
        for (BlockId pred : cfg_.blocks()[b].preds) {
            if (distance_[pred] == kUnreachable) {
                distance_[pred] = distance_[b] + 1;
                queue.push_back(pred);
            }
        }
    }
    distance_valid_ = true;
}

u32
CoverageMap::distance_to_uncovered(BlockId block) const
{
    if (!distance_valid_)
        rebuild_distance();
    return distance_[block];
}

CoverageStats
CoverageMap::stats() const
{
    CoverageStats s;
    s.covered_blocks = covered_blocks_;
    s.total_blocks = total_blocks_;
    s.covered_edges = covered_edges_;
    s.total_edges = total_edges_;
    return s;
}

std::optional<bool>
UncoveredEdgeFirst::prefer(const CoverageMap &map,
                           const BranchContext &branch) const
{
    const bool uncovered[2] = {
        !map.edge_covered(branch.from, branch.target[0]),
        !map.edge_covered(branch.from, branch.target[1]),
    };
    if (uncovered[0] != uncovered[1])
        return uncovered[1];
    // Both edges covered (or both new): steer toward the direction
    // that reaches the nearest remaining uncovered edge first.
    const u32 d0 = map.distance_to_uncovered(branch.target[0]);
    const u32 d1 = map.distance_to_uncovered(branch.target[1]);
    if (d0 != d1)
        return d1 < d0;
    return std::nullopt;
}

std::optional<bool>
PathCoverFirst::prefer(const CoverageMap &map,
                       const BranchContext &branch) const
{
    // An uncovered branch edge is new structure *now* — under a tight
    // cap, passing it up for a richer-looking far side often forfeits
    // it for good, so the frontier's strongest rule stays primary.
    const bool uncovered[2] = {
        !map.edge_covered(branch.from, branch.target[0]),
        !map.edge_covered(branch.from, branch.target[1]),
    };
    if (uncovered[0] != uncovered[1])
        return uncovered[1];
    // Both directions equally new: prefer the one lying on more
    // still-uncovered cover chains — it can complete more of the
    // minimal path cover downstream.
    if (map.path_structure() != nullptr) {
        const u32 s0 =
            map.uncovered_cover_paths_through(branch.target[0]);
        const u32 s1 =
            map.uncovered_cover_paths_through(branch.target[1]);
        if (s0 != s1)
            return s1 > s0;
    }
    // Remaining ties: the UncoveredEdgeFirst distance rule.
    const u32 d0 = map.distance_to_uncovered(branch.target[0]);
    const u32 d1 = map.distance_to_uncovered(branch.target[1]);
    if (d0 != d1)
        return d1 < d0;
    return std::nullopt;
}

const char *
schedule_policy_name(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::DefaultOrder: return "default";
      case SchedulePolicy::UncoveredEdgeFirst: return "frontier";
      case SchedulePolicy::PathCoverFirst: return "pathcover";
    }
    return "?";
}

const FrontierPolicy *
frontier_policy(SchedulePolicy policy)
{
    static const UncoveredEdgeFirst uncovered_first;
    static const PathCoverFirst path_cover_first;
    switch (policy) {
      case SchedulePolicy::DefaultOrder: return nullptr;
      case SchedulePolicy::UncoveredEdgeFirst: return &uncovered_first;
      case SchedulePolicy::PathCoverFirst: return &path_cover_first;
    }
    return nullptr;
}

} // namespace pokeemu::coverage
