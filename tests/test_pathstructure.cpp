/**
 * @file
 * Property tests for the path-structure analysis
 * (analysis/pathstructure.h): dominators, post-dominators, DAG
 * classification, feasible-path counts, and the minimal path cover are
 * each cross-checked against independent brute-force computations on
 * randomly generated small CFGs (250 seeds), plus targeted tests for
 * dataflow-pruned edges, the same-target-cjmp lint, the incremental
 * distance-to-uncovered maintenance, and PathCoverFirst scheduling
 * determinism.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/passes.h"
#include "analysis/pathstructure.h"
#include "coverage/coverage.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "symexec/explorer.h"

namespace pokeemu {
namespace {

using analysis::BlockId;
using analysis::Cfg;
using analysis::kNoBlock;
using analysis::kNoChain;
using analysis::kVirtualExit;
using analysis::PathStructure;
using coverage::CoverageMap;
using ir::ExprRef;
using ir::IrBuilder;
using ir::Label;
namespace E = ir::E;

/**
 * A random structurally-valid program: n labelled regions, each a
 * Comment leader plus one random terminator (halt / jmp / cjmp with
 * random targets, same-target cjmps included on purpose). The last
 * region always halts so an exit exists.
 */
ir::Program
random_program(u64 seed)
{
    std::mt19937_64 rng(seed);
    const unsigned n = 2 + static_cast<unsigned>(rng() % 7); // 2..8
    IrBuilder b("rand" + std::to_string(seed));
    std::vector<Label> labels;
    for (unsigned i = 0; i < n; ++i)
        labels.push_back(b.label());
    for (unsigned i = 0; i < n; ++i) {
        b.bind(labels[i]);
        b.comment("region " + std::to_string(i));
        const unsigned kind = i + 1 == n ? 0 : rng() % 3;
        if (kind == 0) {
            b.halt(i);
        } else if (kind == 1) {
            b.jmp(labels[rng() % n]);
        } else {
            b.cjmp(IrBuilder::imm(1, 1), labels[rng() % n],
                   labels[rng() % n]);
        }
    }
    return b.finish();
}

/** Blocks reachable from @p from, never entering @p avoid (pass
 *  kNoBlock to disable); edge filter optional. */
std::vector<bool>
brute_reachable(const Cfg &cfg, BlockId from, BlockId avoid)
{
    std::vector<bool> seen(cfg.num_blocks(), false);
    if (from == avoid)
        return seen;
    std::vector<BlockId> stack{from};
    seen[from] = true;
    while (!stack.empty()) {
        const BlockId b = stack.back();
        stack.pop_back();
        for (BlockId s : cfg.blocks()[b].succs) {
            if (s == avoid || seen[s])
                continue;
            seen[s] = true;
            stack.push_back(s);
        }
    }
    return seen;
}

bool
is_exit(const Cfg &cfg, BlockId b)
{
    return cfg.blocks()[b].succs.empty();
}

/** Can @p b reach any exit block without entering @p avoid? */
bool
brute_reaches_exit(const Cfg &cfg, BlockId b, BlockId avoid)
{
    const std::vector<bool> seen = brute_reachable(cfg, b, avoid);
    for (BlockId x = 0; x < cfg.num_blocks(); ++x) {
        if (seen[x] && is_exit(cfg, x))
            return true;
    }
    return false;
}

/** Maximum bipartite matching on @p adj by exhaustive recursion — the
 *  independent check for the path cover's minimality. */
unsigned
brute_max_matching(const std::vector<std::vector<unsigned>> &adj,
                   unsigned u, u32 used_right)
{
    if (u == adj.size())
        return 0;
    unsigned best = brute_max_matching(adj, u + 1, used_right);
    for (const unsigned v : adj[u]) {
        if (used_right & (u32{1} << v))
            continue;
        best = std::max(best, 1 + brute_max_matching(
                                      adj, u + 1,
                                      used_right | (u32{1} << v)));
    }
    return best;
}

TEST(PathStructureProperty, BruteForceOnRandomCfgs)
{
    for (u64 seed = 1; seed <= 250; ++seed) {
        const ir::Program p = random_program(seed);
        const Cfg cfg = Cfg::build(p);
        const PathStructure ps = PathStructure::build(p, cfg);
        const u32 n = cfg.num_blocks();
        const std::vector<bool> reach =
            brute_reachable(cfg, cfg.entry(), kNoBlock);

        // --- Dominators: a dom b iff removing a cuts b off from the
        // entry (a, b reachable; reflexive).
        std::vector<std::set<BlockId>> doms(n);
        for (BlockId a = 0; a < n; ++a) {
            if (!reach[a])
                continue;
            const std::vector<bool> without =
                brute_reachable(cfg, cfg.entry(), a);
            for (BlockId b = 0; b < n; ++b) {
                if (!reach[b])
                    continue;
                const bool brute = a == b || !without[b];
                EXPECT_EQ(ps.dominates(a, b), brute)
                    << "seed " << seed << " dom " << a << "," << b;
                if (brute)
                    doms[b].insert(a);
            }
        }
        // idom(b) = the strict dominator with the largest dominator
        // set (the closest one).
        for (BlockId b = 0; b < n; ++b) {
            if (!reach[b]) {
                EXPECT_EQ(ps.idom(b), kNoBlock) << "seed " << seed;
                continue;
            }
            if (b == cfg.entry()) {
                EXPECT_EQ(ps.idom(b), b) << "seed " << seed;
                continue;
            }
            BlockId best = kNoBlock;
            for (const BlockId a : doms[b]) {
                if (a == b)
                    continue;
                if (best == kNoBlock ||
                    doms[a].size() > doms[best].size())
                    best = a;
            }
            EXPECT_EQ(ps.idom(b), best)
                << "seed " << seed << " idom " << b;
        }

        // --- Post-dominators: a pdom b iff every b->exit path passes
        // through a. Only meaningful when b reaches an exit at all.
        for (BlockId b = 0; b < n; ++b) {
            if (!reach[b] || !brute_reaches_exit(cfg, b, kNoBlock))
                continue;
            EXPECT_TRUE(ps.post_dominates(kVirtualExit, b));
            std::set<BlockId> pdoms;
            for (BlockId a = 0; a < n; ++a) {
                if (!reach[a])
                    continue;
                const bool brute =
                    a == b || !brute_reaches_exit(cfg, b, a);
                EXPECT_EQ(ps.post_dominates(a, b), brute)
                    << "seed " << seed << " pdom " << a << "," << b;
                if (brute && a != b)
                    pdoms.insert(a);
            }
            // ipdom(b) = the strict post-dominator post-dominated by
            // every other; none -> the virtual exit.
            BlockId best = kVirtualExit;
            for (const BlockId a : pdoms) {
                bool closest = true;
                for (const BlockId other : pdoms) {
                    if (other != a && !ps.post_dominates(other, a)) {
                        closest = false;
                        break;
                    }
                }
                if (closest)
                    best = a;
            }
            EXPECT_EQ(ps.ipdom(b), best)
                << "seed " << seed << " ipdom " << b;
        }

        // --- The non-back subgraph is acyclic (Kahn's algorithm
        // consumes every visited block).
        const auto dag_edges = [&](BlockId b) {
            std::vector<BlockId> out;
            const auto &succs = cfg.blocks()[b].succs;
            for (std::size_t s = 0; s < succs.size(); ++s) {
                if (!ps.back_edge(b, s) && !ps.edge_pruned(b, s))
                    out.push_back(succs[s]);
            }
            return out;
        };
        {
            std::vector<u32> indeg(n, 0);
            std::vector<BlockId> visited;
            for (BlockId b = 0; b < n; ++b) {
                if (!reach[b])
                    continue;
                visited.push_back(b);
                for (BlockId s : dag_edges(b))
                    ++indeg[s];
            }
            std::vector<BlockId> ready;
            for (BlockId b : visited) {
                if (indeg[b] == 0)
                    ready.push_back(b);
            }
            std::size_t consumed = 0;
            while (!ready.empty()) {
                const BlockId b = ready.back();
                ready.pop_back();
                ++consumed;
                for (BlockId s : dag_edges(b)) {
                    if (--indeg[s] == 0)
                        ready.push_back(s);
                }
            }
            EXPECT_EQ(consumed, visited.size())
                << "seed " << seed << ": back-edge removal left a "
                << "cycle";
        }

        // --- Path counts: brute DFS enumeration over the DAG.
        {
            std::vector<u64> in_count(n, 0), out_count(n, 0);
            in_count[cfg.entry()] = 1;
            // Count in topological order by repeated relaxation (the
            // graph is tiny; quadratic is fine and independent of the
            // unit under test's own topo order).
            for (u32 round = 0; round < n; ++round) {
                std::vector<u64> next_in(n, 0);
                next_in[cfg.entry()] = 1;
                for (BlockId b = 0; b < n; ++b) {
                    for (BlockId s : dag_edges(b))
                        next_in[s] += in_count[b];
                }
                in_count = next_in;
            }
            for (u32 round = 0; round < n; ++round) {
                std::vector<u64> next_out(n, 0);
                for (BlockId b = 0; b < n; ++b) {
                    if (reach[b] && is_exit(cfg, b)) {
                        next_out[b] = 1;
                        continue;
                    }
                    for (BlockId s : dag_edges(b))
                        next_out[b] += out_count[s];
                }
                out_count = next_out;
            }
            for (BlockId b = 0; b < n; ++b) {
                if (!reach[b])
                    continue;
                EXPECT_EQ(ps.paths_from_entry(b), in_count[b])
                    << "seed " << seed << " paths_in " << b;
                EXPECT_EQ(ps.paths_to_exit(b), out_count[b])
                    << "seed " << seed << " paths_out " << b;
            }
        }

        // --- Minimal path cover: chains partition the DAG-visited
        // blocks, consecutive chain entries are DAG edges, and the
        // chain count matches |V| - max-matching (König).
        {
            std::vector<BlockId> visited;
            std::vector<int> left_index(n, -1);
            for (BlockId b = 0; b < n; ++b) {
                if (ps.chain_of(b) != kNoChain) {
                    left_index[b] = static_cast<int>(visited.size());
                    visited.push_back(b);
                }
            }
            std::set<BlockId> seen_in_chains;
            for (const analysis::CoverChain &chain : ps.chains()) {
                ASSERT_FALSE(chain.blocks.empty());
                for (std::size_t i = 0; i < chain.blocks.size(); ++i) {
                    EXPECT_TRUE(
                        seen_in_chains.insert(chain.blocks[i]).second)
                        << "seed " << seed << ": block in two chains";
                    if (i + 1 == chain.blocks.size())
                        continue;
                    const auto edges = dag_edges(chain.blocks[i]);
                    EXPECT_TRUE(std::find(edges.begin(), edges.end(),
                                          chain.blocks[i + 1]) !=
                                edges.end())
                        << "seed " << seed
                        << ": chain step is not a DAG edge";
                }
            }
            EXPECT_EQ(seen_in_chains.size(), visited.size())
                << "seed " << seed << ": chains are not a partition";
            std::vector<std::vector<unsigned>> adj(visited.size());
            for (const BlockId b : visited) {
                for (BlockId s : dag_edges(b))
                    adj[left_index[b]].push_back(
                        static_cast<unsigned>(left_index[s]));
            }
            const unsigned matching =
                brute_max_matching(adj, 0, 0);
            EXPECT_EQ(ps.num_chains(), visited.size() - matching)
                << "seed " << seed << ": path cover is not minimal";
        }

        // --- Reachable-chain bitsets vs brute reachability over
        // non-pruned edges (back edges included).
        for (BlockId b = 0; b < n; ++b) {
            if (ps.chain_of(b) == kNoChain)
                continue;
            const std::vector<bool> seen =
                brute_reachable(cfg, b, kNoBlock);
            std::set<u32> expect;
            for (BlockId x = 0; x < n; ++x) {
                if (seen[x] && ps.chain_of(x) != kNoChain)
                    expect.insert(ps.chain_of(x));
            }
            const std::vector<u64> &bits = ps.reachable_chains(b);
            std::set<u32> got;
            for (std::size_t w = 0; w < bits.size(); ++w) {
                for (unsigned bit = 0; bit < 64; ++bit) {
                    if (bits[w] & (u64{1} << bit))
                        got.insert(static_cast<u32>(w * 64 + bit));
                }
            }
            EXPECT_EQ(got, expect)
                << "seed " << seed << " reachable chains of " << b;
        }
    }
}

// ---------------------------------------------------------------------
// Dataflow-pruned edges.
// ---------------------------------------------------------------------

/** if (1 < 2) halt 0 else {dead: halt 1} — the false edge is decided
 *  infeasible by the dataflow facts. */
ir::Program
decided_branch_program()
{
    IrBuilder b("decided");
    Label live = b.label(), dead = b.label();
    b.cjmp(E::ult(IrBuilder::imm32(1), IrBuilder::imm32(2)), live,
           dead);
    b.bind(live);
    b.halt(0);
    b.bind(dead);
    b.halt(1);
    return b.finish();
}

TEST(PathStructureFacts, DecidedEdgesArePruned)
{
    const ir::Program p = decided_branch_program();
    const Cfg cfg = Cfg::build(p);
    const analysis::ProgramFacts facts =
        analysis::analyze_program(p, cfg);
    ASSERT_TRUE(facts.analyzed);

    const PathStructure unpruned = PathStructure::build(p, cfg);
    const PathStructure pruned = PathStructure::build(p, cfg, &facts);
    EXPECT_EQ(unpruned.total_paths(), 2u);
    EXPECT_EQ(pruned.total_paths(), 1u);

    // The entry block's edge to the dead halt is pruned; the dead
    // block leaves the cover (kNoChain) and the live path keeps it
    // minimal: one chain.
    bool saw_pruned = false;
    const BlockId entry = cfg.entry();
    for (std::size_t s = 0; s < cfg.blocks()[entry].succs.size();
         ++s) {
        saw_pruned = saw_pruned || pruned.edge_pruned(entry, s);
    }
    EXPECT_TRUE(saw_pruned);
    EXPECT_EQ(pruned.num_chains(), 1u);
    EXPECT_LE(pruned.num_chains(), unpruned.num_chains());
}

// ---------------------------------------------------------------------
// same-target-cjmp lint.
// ---------------------------------------------------------------------

bool
has_same_target_warning(const ir::Program &p)
{
    const analysis::Report report = analysis::run_pipeline(p);
    for (const analysis::Diagnostic &d : report.diagnostics()) {
        if (d.pass == "same-target-cjmp" &&
            d.severity == analysis::Severity::Warning)
            return true;
    }
    return false;
}

TEST(SameTargetCjmpLint, FlagsBothTargetsSameBlock)
{
    IrBuilder b("same");
    auto x = b.load(IrBuilder::imm32(0x1000), 1);
    Label t = b.label();
    b.cjmp(E::eq(x, IrBuilder::imm8(0)), t, t);
    b.bind(t);
    b.halt(0);
    EXPECT_TRUE(has_same_target_warning(b.finish()));
}

TEST(SameTargetCjmpLint, FlagsEffectFreeDiamond)
{
    IrBuilder b("diamond");
    auto x = b.load(IrBuilder::imm32(0x1000), 1);
    Label t = b.label(), f = b.label(), join = b.label();
    b.cjmp(E::eq(x, IrBuilder::imm8(0)), t, f);
    b.bind(t);
    b.comment("empty arm");
    b.jmp(join);
    b.bind(f);
    b.comment("other empty arm");
    b.jmp(join);
    b.bind(join);
    b.halt(0);
    EXPECT_TRUE(has_same_target_warning(b.finish()));
}

TEST(SameTargetCjmpLint, EffectfulArmIsClean)
{
    IrBuilder b("effectful");
    auto x = b.load(IrBuilder::imm32(0x1000), 1);
    Label t = b.label(), f = b.label(), join = b.label();
    b.cjmp(E::eq(x, IrBuilder::imm8(0)), t, f);
    b.bind(t);
    b.store(IrBuilder::imm32(0x2000), 1, IrBuilder::imm8(1));
    b.jmp(join);
    b.bind(f);
    b.comment("empty arm");
    b.jmp(join);
    b.bind(join);
    b.halt(0);
    EXPECT_FALSE(has_same_target_warning(b.finish()));
}

TEST(SameTargetCjmpLint, AllowMarkerSuppresses)
{
    IrBuilder b("allowed");
    auto x = b.load(IrBuilder::imm32(0x1000), 1);
    Label t = b.label();
    b.comment("lint: allow-same-target-cjmp");
    b.cjmp(E::eq(x, IrBuilder::imm8(0)), t, t);
    b.bind(t);
    b.halt(0);
    EXPECT_FALSE(has_same_target_warning(b.finish()));
}

TEST(SameTargetCjmpLint, DistinctLeafTargetsAreClean)
{
    IrBuilder b("leaves");
    auto x = b.load(IrBuilder::imm32(0x1000), 1);
    Label t = b.label(), f = b.label();
    b.cjmp(E::eq(x, IrBuilder::imm8(0)), t, f);
    b.bind(t);
    b.halt(1);
    b.bind(f);
    b.halt(2);
    EXPECT_FALSE(has_same_target_warning(b.finish()));
}

// ---------------------------------------------------------------------
// Distance-to-uncovered cache invalidation.
// ---------------------------------------------------------------------

/** All feasible block traces of length <= limit from the entry, for
 *  replaying coverage in a brute-force order. */
void
enumerate_traces(const Cfg &cfg, std::vector<BlockId> &cur,
                 std::vector<std::vector<BlockId>> &out,
                 std::size_t limit)
{
    const BlockId b = cur.back();
    if (cfg.blocks()[b].succs.empty() || cur.size() == limit) {
        out.push_back(cur);
        return;
    }
    for (BlockId s : cfg.blocks()[b].succs) {
        cur.push_back(s);
        enumerate_traces(cfg, cur, out, limit);
        cur.pop_back();
    }
}

TEST(IncrementalDistance, MatchesFullRebuildAcrossRandomCfgs)
{
    // cover_path must mark the cached distances stale whenever it
    // removes a BFS source. Query every block between paths so the
    // cache is always built, across many shapes and orders; a missed
    // invalidation leaves stale distances that differ from a map that
    // only ever built the cache once, at the end.
    for (u64 seed = 1; seed <= 40; ++seed) {
        const ir::Program p = random_program(seed);
        CoverageMap incremental(p);
        const Cfg &cfg = incremental.cfg();
        std::vector<std::vector<BlockId>> traces;
        std::vector<BlockId> cur{cfg.entry()};
        enumerate_traces(cfg, cur, traces, 6);
        // Interleave queries (building the cache) with cover_path
        // (invalidating it).
        for (const auto &trace : traces) {
            for (BlockId b = 0; b < cfg.num_blocks(); ++b)
                (void)incremental.distance_to_uncovered(b);
            incremental.cover_path(trace);
        }
        CoverageMap fresh(p);
        for (const auto &trace : traces)
            fresh.cover_path(trace);
        for (BlockId b = 0; b < cfg.num_blocks(); ++b) {
            EXPECT_EQ(incremental.distance_to_uncovered(b),
                      fresh.distance_to_uncovered(b))
                << "seed " << seed << " block " << b;
        }
    }
}

// ---------------------------------------------------------------------
// PathCoverFirst scheduling.
// ---------------------------------------------------------------------

symexec::InitialByteFn
make_initial(symexec::VarPool &pool, u32 sym_base, u32 sym_len)
{
    return [&pool, sym_base, sym_len](u32 addr) -> ExprRef {
        if (addr >= sym_base && addr < sym_base + sym_len) {
            char name[32];
            std::snprintf(name, sizeof name, "mem_%08x", addr);
            return pool.get(name, 8);
        }
        return E::constant(8, 0);
    };
}

/** Three independent symbolic bits -> 8 paths. */
ir::Program
threebits_program()
{
    IrBuilder b("threebits");
    auto byte = b.load(IrBuilder::imm32(0x1000), 1);
    for (int i = 0; i < 3; ++i) {
        Label set = b.label(), join = b.label();
        auto cur = b.load(IrBuilder::imm32(0x2000), 1);
        b.cjmp(E::eq(E::extract(byte, i, 1), E::bool_const(true)), set,
               join);
        b.bind(set);
        b.store(IrBuilder::imm32(0x2000), 1,
                E::bor(cur, IrBuilder::imm8(1 << i)));
        b.bind(join);
        b.comment("next bit");
    }
    auto final_code = b.load(IrBuilder::imm32(0x2000), 1);
    b.halt(E::zext(final_code, 32));
    return b.finish();
}

std::multiset<std::string>
pathcover_path_set(const ir::Program &p, u64 max_paths, u64 seed)
{
    symexec::VarPool pool;
    CoverageMap map(p);
    map.set_path_structure(
        std::make_unique<const PathStructure>(
            PathStructure::build(p, map.cfg())));
    symexec::ExplorerConfig config;
    config.max_paths = max_paths;
    config.seed = seed;
    config.coverage = &map;
    config.policy = coverage::frontier_policy(
        coverage::SchedulePolicy::PathCoverFirst);
    symexec::PathExplorer ex(p, pool, make_initial(pool, 0x1000, 1),
                             config);
    std::multiset<std::string> out;
    ex.explore([&](const symexec::PathInfo &info,
                   symexec::SymbolicMemory &) {
        std::string key = std::to_string(info.halt_code);
        for (const ExprRef &conjunct : info.path_condition)
            key += "|" + ir::to_string(conjunct);
        out.insert(std::move(key));
    });
    return out;
}

TEST(PathCoverFirst, PureFunctionOfUnitAndSeed)
{
    const ir::Program p = threebits_program();
    for (const u64 seed : {1ull, 7ull, 1234567ull}) {
        const auto a = pathcover_path_set(p, 4, seed);
        const auto b = pathcover_path_set(p, 4, seed);
        EXPECT_EQ(a, b) << "seed " << seed;
    }
}

TEST(PathCoverFirst, UnlimitedCapEnumeratesEveryPath)
{
    const ir::Program p = threebits_program();
    const auto paths = pathcover_path_set(p, u64(-1), 1);
    EXPECT_EQ(paths.size(), 8u);
}

TEST(PathCoverFirst, WithoutStructureFallsBackToFrontier)
{
    // No attached PathStructure: the policy must behave exactly like
    // UncoveredEdgeFirst, so its preference on a fresh two-way branch
    // matches.
    const ir::Program p = threebits_program();
    CoverageMap map(p);
    const coverage::FrontierPolicy *pathcover =
        coverage::frontier_policy(
            coverage::SchedulePolicy::PathCoverFirst);
    const coverage::FrontierPolicy *frontier =
        coverage::frontier_policy(
            coverage::SchedulePolicy::UncoveredEdgeFirst);
    ASSERT_NE(pathcover, nullptr);
    ASSERT_NE(frontier, nullptr);
    BlockId cjmp_block = kNoBlock;
    for (BlockId b = 0; b < map.cfg().num_blocks(); ++b) {
        if (map.cfg().blocks()[b].succs.size() == 2) {
            cjmp_block = b;
            break;
        }
    }
    ASSERT_NE(cjmp_block, kNoBlock);
    const auto &branch_succs = map.cfg().blocks()[cjmp_block].succs;
    coverage::BranchContext branch;
    branch.from = cjmp_block;
    branch.target[0] = branch_succs[0];
    branch.target[1] = branch_succs[1];
    EXPECT_EQ(pathcover->prefer(map, branch),
              frontier->prefer(map, branch));
}

TEST(PathCoverFirst, DirtyChainsDrainAsCoverageGrows)
{
    const ir::Program p = threebits_program();
    CoverageMap map(p);
    map.set_path_structure(
        std::make_unique<const PathStructure>(
            PathStructure::build(p, map.cfg())));
    const BlockId entry = map.cfg().entry();
    EXPECT_GT(map.uncovered_cover_paths_through(entry), 0u);
    // A complete exploration covers every feasible block and edge:
    // all chains drain and the score reaches zero.
    symexec::VarPool pool;
    symexec::ExplorerConfig config;
    config.seed = 1;
    config.coverage = &map;
    config.policy = coverage::frontier_policy(
        coverage::SchedulePolicy::PathCoverFirst);
    symexec::PathExplorer ex(p, pool, make_initial(pool, 0x1000, 1),
                             config);
    ex.explore([](const symexec::PathInfo &,
                  symexec::SymbolicMemory &) {});
    EXPECT_EQ(map.uncovered_cover_paths_through(entry), 0u);
}

} // namespace
} // namespace pokeemu
