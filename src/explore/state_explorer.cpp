#include "explore/state_explorer.h"

#include "support/logging.h"

namespace pokeemu::explore {

namespace {

StateExploreResult
explore_program(const ir::Program &semantics, const StateSpec &spec,
                const StateExploreOptions &options);

} // namespace

StateExploreResult
explore_instruction(const arch::DecodedInsn &insn, const StateSpec &spec,
                    const symexec::Summary *summary,
                    const StateExploreOptions &options)
{
    hifi::SemanticsOptions sem_options;
    sem_options.hifi_far_fetch_order = options.hifi_far_fetch_order;
    sem_options.descriptor_summary =
        options.use_descriptor_summary ? summary : nullptr;
    const ir::Program semantics =
        hifi::build_semantics(insn, sem_options);
    StateExploreResult result = explore_program(semantics, spec,
                                                options);
    log_debug("explored ", insn.desc->mnemonic, ": ",
              result.stats.paths, " paths, complete=",
              result.stats.complete);
    return result;
}

StateExploreResult
explore_sequence(const std::vector<arch::DecodedInsn> &insns,
                 const StateSpec &spec, const symexec::Summary *summary,
                 const StateExploreOptions &options)
{
    hifi::SemanticsOptions sem_options;
    sem_options.hifi_far_fetch_order = options.hifi_far_fetch_order;
    sem_options.descriptor_summary =
        options.use_descriptor_summary ? summary : nullptr;
    const ir::Program semantics =
        hifi::build_sequence_semantics(insns, sem_options);
    return explore_program(semantics, spec, options);
}

namespace {

StateExploreResult
explore_program(const ir::Program &semantics, const StateSpec &spec,
                const StateExploreOptions &options)
{

    StateExploreResult result;
    symexec::VarPool &pool = result.pool;
    // Fresh per exploration: coverage (and therefore scheduling) is a
    // pure function of (program, options) — the property the sharded
    // campaign's byte-identical merge rests on.
    coverage::CoverageMap cov(semantics);
    symexec::ExplorerConfig config;
    config.max_paths = options.max_paths;
    config.max_steps = options.max_steps;
    config.seed = options.seed;
    config.preconditions = spec.preconditions(pool);
    config.deadline = options.deadline;
    config.solver_query_ms = options.solver_query_ms;
    config.solver_query_steps = options.solver_query_steps;
    config.injector = options.injector;
    config.memo = options.memo;
    config.coverage = &cov;
    config.policy = coverage::frontier_policy(options.schedule);
    config.prune = options.prune;

    // Dataflow facts over an isolated variable pool, mirroring the
    // main pool's factory-call order. The spec names variables by
    // machine location, so the analysis sees the same preconditions
    // and initial bytes up to a variable-id bijection — decisions are
    // per-statement and transfer. Using `pool` itself would add
    // analysis-only variables to it and perturb every assignment.
    symexec::VarPool analysis_pool;
    analysis::DataflowConfig df_config;
    df_config.assumes = spec.preconditions(analysis_pool);
    df_config.initial_byte = spec.initial_fn(analysis_pool);
    semantics.validate(); // Cfg::build requires bound labels.
    const analysis::Cfg cfg = analysis::Cfg::build(semantics);
    const analysis::ProgramFacts facts =
        analysis::analyze_program(semantics, cfg, df_config);
    config.facts = &facts;

    // PathCoverFirst needs the static path-structure scaffold
    // (dominators, minimal path cover, facts-pruned path counts) on
    // the coverage map. Built from the same facts the explorer prunes
    // with, so "pruned" and "infeasible" agree; a deterministic
    // function of (program, options) like everything else here.
    if (options.schedule == coverage::SchedulePolicy::PathCoverFirst) {
        cov.set_path_structure(
            std::make_unique<const analysis::PathStructure>(
                analysis::PathStructure::build(semantics, cov.cfg(),
                                               &facts)));
    }

    symexec::PathExplorer explorer(semantics, pool,
                                   spec.initial_fn(pool), config);

    result.stats = explorer.explore(
        [&](const symexec::PathInfo &info, symexec::SymbolicMemory &) {
            ExploredPath path;
            path.halt_code = info.halt_code;
            path.steps = info.steps;
            path.step_limited =
                info.status == symexec::PathStatus::StepLimit;
            path.assignment = info.assignment;
            if (options.minimize) {
                // Extend the baseline with any variables created since
                // (on-demand memory bytes).
                solver::Assignment base =
                    spec.baseline_assignment(pool);
                const auto stats = symexec::minimize_against_baseline(
                    path.assignment, base, info.path_condition, pool);
                result.minimize.bits_different_before +=
                    stats.bits_different_before;
                result.minimize.bits_different_after +=
                    stats.bits_different_after;
                result.minimize.bits_tried += stats.bits_tried;
            }
            result.paths.push_back(std::move(path));
        });

    return result;
}

} // namespace

} // namespace pokeemu::explore
