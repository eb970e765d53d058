/**
 * @file
 * Fault isolation for long-running sweeps.
 *
 * The paper's headline experiment (§6: 68,977 candidate instructions,
 * 610,516 paths) only works at campaign scale if a single bad unit of
 * work — one instruction's state exploration, one test's generation,
 * one test's three-way execution — cannot kill the whole run. This
 * header provides the vocabulary the pipeline uses for that:
 *
 *  - FaultError / FaultClass: typed failures raised by library code in
 *    place of bare panic() when the condition is attributable to one
 *    unit of work rather than a global invariant.
 *  - Guarded<T> / try_run(): run one unit, capture its value or its
 *    fault; nothing escapes the stage boundary.
 *  - QuarantineReport: the per-sweep ledger of quarantined units,
 *    carried in PipelineStats so a campaign's output states exactly
 *    what was skipped and why.
 *  - Deadline: a combined wall-clock / step budget with one-shot
 *    escalation, the time-domain analog of the paper's 8192-path cap.
 *  - FaultInjector: deterministic, seeded fault injection at named
 *    sites, used by the chaos_pipeline ctest to prove containment.
 */
#ifndef POKEEMU_SUPPORT_FAULT_H
#define POKEEMU_SUPPORT_FAULT_H

#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "support/common.h"

namespace pokeemu::support {

/** Pipeline stages, used to attribute quarantined units. */
enum class Stage : u8 {
    InsnExploration,  ///< Stage 1: instruction-set exploration.
    StateExploration, ///< Stage 2: per-instruction path exploration.
    Generation,       ///< Stage 3: test-program generation.
    Execution,        ///< Stage 4: three-way execution.
    Comparison,       ///< Stage 5: difference analysis.
    /** A backend misbehaved while executing one test — crashed, hung
     *  past the per-run watchdog, or produced a corrupt snapshot.
     *  Distinct from Execution (a backend *refusing* a test) because
     *  the defect matrix scores containment of misbehaving variant
     *  backends separately from ordinary execution failures. */
    Backend,
};

/** Stage count; checkpoints persist stages by value and refuse any
 *  value at or above it. */
constexpr unsigned kNumStages = 6;
static_assert(static_cast<unsigned>(Stage::Backend) + 1 == kNumStages);

const char *stage_name(Stage stage);

/** Why a unit of work failed. */
enum class FaultClass : u8 {
    Internal,        ///< Escaped invariant failure (panic/logic_error).
    Decode,          ///< Representative bytes failed to decode.
    SolverTimeout,   ///< A solver query exceeded its deadline.
    BudgetExhausted, ///< Unit deadline expired even after escalation.
    Execution,       ///< A backend refused or failed the test.
    Injected,        ///< Synthetic fault from a FaultInjector.
    BackendCrash,    ///< A backend threw out of its run loop.
    BackendHang,     ///< A backend tripped the per-run watchdog.
    SnapshotCorrupt, ///< A backend emitted an invalid snapshot.
};

/** FaultClass count; checkpoints persist classes by value and refuse
 *  any value at or above it. */
constexpr unsigned kNumFaultClasses = 9;
static_assert(static_cast<unsigned>(FaultClass::SnapshotCorrupt) + 1 ==
              kNumFaultClasses);

const char *fault_class_name(FaultClass cls);

/** True for the classes a misbehaving backend raises; the pipeline
 *  routes these to Stage::Backend instead of Stage::Execution. */
inline bool
is_backend_fault(FaultClass cls)
{
    return cls == FaultClass::BackendCrash ||
        cls == FaultClass::BackendHang ||
        cls == FaultClass::SnapshotCorrupt;
}

/**
 * A typed, unit-attributable failure. Library code inside a pipeline
 * stage throws this instead of panic() so the stage boundary can
 * quarantine the unit and keep sweeping; panic() remains reserved for
 * global invariants where continuing would produce garbage.
 */
class FaultError : public std::runtime_error
{
  public:
    FaultError(FaultClass cls, const std::string &message)
        : std::runtime_error(message), cls_(cls)
    {
    }

    FaultClass fault_class() const { return cls_; }

  private:
    FaultClass cls_;
};

/** One quarantined unit of work in the sweep ledger. */
struct QuarantinedUnit
{
    Stage stage;
    std::string unit; ///< E.g. "insn 17 (iret)" or "test 204".
    FaultClass cls;
    std::string message;
};

/** The sweep's quarantine ledger (lives in PipelineStats). */
class QuarantineReport
{
  public:
    void
    add(Stage stage, std::string unit, FaultClass cls,
        std::string message)
    {
        units_.push_back({stage, std::move(unit), cls,
                          std::move(message)});
    }

    const std::vector<QuarantinedUnit> &units() const { return units_; }
    u64 total() const { return units_.size(); }
    u64 count(Stage stage) const;
    u64 count(FaultClass cls) const;

    /** True when an identical entry is already ledgered — used to
     *  dedup when a resumed session replays a persisted ledger. */
    bool contains(Stage stage, const std::string &unit, FaultClass cls,
                  const std::string &message) const;

    std::string to_string() const;

  private:
    std::vector<QuarantinedUnit> units_;
};

/**
 * The value-or-fault result of one guarded unit of work.
 * Either `value` holds the unit's result, or `fault` describes why it
 * was quarantined — never both, never neither.
 */
template <typename T> struct Guarded
{
    std::optional<T> value;
    FaultClass cls = FaultClass::Internal;
    std::string message;

    bool ok() const { return value.has_value(); }
    explicit operator bool() const { return ok(); }
    T &operator*() { return *value; }
    const T &operator*() const { return *value; }
    T *operator->() { return &*value; }
    const T *operator->() const { return &*value; }
};

/**
 * Run @p fn, capturing a thrown FaultError (or any std::exception,
 * classed Internal) instead of letting it cross the stage boundary.
 */
template <typename Fn>
auto
try_run(Fn &&fn) -> Guarded<decltype(fn())>
{
    Guarded<decltype(fn())> result;
    try {
        result.value = fn();
    } catch (const FaultError &e) {
        result.cls = e.fault_class();
        result.message = e.what();
    } catch (const std::exception &e) {
        result.cls = FaultClass::Internal;
        result.message = e.what();
    }
    return result;
}

/**
 * A combined wall-clock / step budget for one unit of work — the
 * paper caps exploration by path count (8192); campaigns additionally
 * need time- and step-domain caps so one pathological unit cannot
 * stall the sweep. Default-constructed deadlines are unlimited and
 * cost one branch to check.
 *
 * Steps are consumed explicitly via consume(); the wall clock is
 * sampled lazily (every kWallCheckStride consumptions) so per-step
 * overhead stays negligible.
 */
class Deadline
{
  public:
    Deadline() = default; ///< Unlimited.

    static Deadline
    after_ms(u64 ms)
    {
        Deadline d;
        d.wall_limited_ = true;
        d.wall_deadline_ = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(ms);
        return d;
    }

    static Deadline
    steps(u64 n)
    {
        Deadline d;
        d.step_budget_ = n;
        return d;
    }

    /** Both limits at once; 0 disables the respective limit. */
    static Deadline
    with(u64 ms, u64 max_steps)
    {
        Deadline d = ms ? after_ms(ms) : Deadline{};
        d.step_budget_ = max_steps;
        return d;
    }

    bool limited() const { return wall_limited_ || step_budget_ != 0; }

    /** Consume @p n steps; returns true when the deadline has passed. */
    bool
    consume(u64 n = 1)
    {
        if (!limited())
            return false;
        steps_used_ += n;
        if (step_budget_ && steps_used_ > step_budget_)
            return true;
        if (wall_limited_ && steps_used_ >= next_wall_check_) {
            next_wall_check_ = steps_used_ + kWallCheckStride;
            return expired();
        }
        return false;
    }

    /** Immediate check (steps already consumed + wall clock now). */
    bool
    expired() const
    {
        if (step_budget_ && steps_used_ > step_budget_)
            return true;
        return wall_limited_ &&
            std::chrono::steady_clock::now() >= wall_deadline_;
    }

    u64 steps_used() const { return steps_used_; }

  private:
    /** Steps between wall-clock samples (clock_gettime is ~20ns but
     *  the explorer consumes per IR statement). */
    static constexpr u64 kWallCheckStride = 256;

    bool wall_limited_ = false;
    std::chrono::steady_clock::time_point wall_deadline_{};
    u64 step_budget_ = 0; ///< 0 = unlimited.
    u64 steps_used_ = 0;
    u64 next_wall_check_ = 0;
};

/** Every place the chaos harness can inject a fault. */
enum class FaultSite : u8 {
    SolverQuery, ///< Inside Solver::check (models a solver timeout).
    Exploration, ///< Start of one instruction's path exploration.
    Generation,  ///< One test program's generation.
    BackendHiFi, ///< Hi-Fi execution of one test.
    BackendLoFi, ///< Lo-Fi execution of one test.
    BackendHw,   ///< Hardware-oracle execution of one test.
    /** Lo-Fi run raising a backend crash (FaultClass::BackendCrash)
     *  rather than a generic injected fault — exercises the
     *  Stage::Backend containment path end to end. */
    BackendCrash,
    /** Lo-Fi run burning its entire per-run watchdog budget before
     *  failing (FaultClass::BackendHang) — the chaos analog of a
     *  variant backend stuck in its dispatch loop. */
    BackendHang,
};

constexpr std::size_t kNumFaultSites = 8;

const char *fault_site_name(FaultSite site);

/** What a FaultInjector does (in the spirit of lofi::BugConfig: each
 *  site individually toggleable so containment per site is testable). */
struct FaultPlan
{
    /** Probability of failing any armed site occurrence, in [0, 1]. */
    double probability = 0.0;
    u64 seed = 1;
    /** Armed sites; all on by default (filtered via arm()/disarm()). */
    bool armed[kNumFaultSites] = {true, true, true, true,
                                  true, true, true, true};
    /**
     * Key the fail/pass decision by the occurrence's `where` string
     * instead of its per-site counter. Counter streams depend on how
     * many occurrences preceded this one — i.e. on shard layout and on
     * what earlier sessions already completed. Unit-keyed decisions
     * depend only on (seed, site, where), so a sharded or resumed
     * campaign quarantines exactly the same units as a monolithic run;
     * the injected message also omits the occurrence number for the
     * same reason.
     */
    bool key_by_unit = false;

    static FaultPlan
    none()
    {
        FaultPlan plan;
        plan.probability = 0.0;
        return plan;
    }

    /** Plan failing every occurrence of exactly @p site. */
    static FaultPlan only(FaultSite site, double probability = 1.0,
                          u64 seed = 1);
};

/**
 * Deterministic seeded fault injection. Each site has an independent
 * counter-based stream: occurrence i of site s fails iff
 * hash(seed, s, i) maps below `probability` — so the decision for a
 * given occurrence is reproducible regardless of what other sites did
 * in between (which is what lets the chaos test predict exactly which
 * units a re-run will quarantine).
 */
class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    bool enabled() const { return plan_.probability > 0.0; }

    /**
     * Record one occurrence of @p site; throws a FaultError classed
     * Injected when the plan says this occurrence fails.
     */
    void maybe_fail(FaultSite site, const std::string &where);

    /** Occurrences seen / faults thrown per site, for accounting. */
    u64 occurrences(FaultSite site) const
    {
        return occurrences_[static_cast<std::size_t>(site)];
    }
    u64 injected(FaultSite site) const
    {
        return injected_[static_cast<std::size_t>(site)];
    }
    u64 total_injected() const;

    /** Forget all counters (streams restart at occurrence 0). */
    void reset();

  private:
    FaultPlan plan_;
    u64 occurrences_[kNumFaultSites] = {};
    u64 injected_[kNumFaultSites] = {};
};

} // namespace pokeemu::support

#endif // POKEEMU_SUPPORT_FAULT_H
