#include "support/fault.h"

#include <sstream>

#include "support/rng.h"

namespace pokeemu::support {

const char *
stage_name(Stage stage)
{
    switch (stage) {
      case Stage::InsnExploration: return "insn-exploration";
      case Stage::StateExploration: return "state-exploration";
      case Stage::Generation: return "generation";
      case Stage::Execution: return "execution";
      case Stage::Comparison: return "comparison";
      case Stage::Backend: return "backend";
    }
    return "?";
}

const char *
fault_class_name(FaultClass cls)
{
    switch (cls) {
      case FaultClass::Internal: return "internal";
      case FaultClass::Decode: return "decode";
      case FaultClass::SolverTimeout: return "solver-timeout";
      case FaultClass::BudgetExhausted: return "budget-exhausted";
      case FaultClass::Execution: return "execution";
      case FaultClass::Injected: return "injected";
      case FaultClass::BackendCrash: return "backend-crash";
      case FaultClass::BackendHang: return "backend-hang";
      case FaultClass::SnapshotCorrupt: return "snapshot-corrupt";
    }
    return "?";
}

const char *
fault_site_name(FaultSite site)
{
    switch (site) {
      case FaultSite::SolverQuery: return "solver-query";
      case FaultSite::Exploration: return "exploration";
      case FaultSite::Generation: return "generation";
      case FaultSite::BackendHiFi: return "backend-hifi";
      case FaultSite::BackendLoFi: return "backend-lofi";
      case FaultSite::BackendHw: return "backend-hw";
      case FaultSite::BackendCrash: return "backend-crash";
      case FaultSite::BackendHang: return "backend-hang";
    }
    return "?";
}

u64
QuarantineReport::count(Stage stage) const
{
    u64 n = 0;
    for (const QuarantinedUnit &u : units_)
        n += u.stage == stage;
    return n;
}

u64
QuarantineReport::count(FaultClass cls) const
{
    u64 n = 0;
    for (const QuarantinedUnit &u : units_)
        n += u.cls == cls;
    return n;
}

bool
QuarantineReport::contains(Stage stage, const std::string &unit,
                           FaultClass cls,
                           const std::string &message) const
{
    for (const QuarantinedUnit &u : units_) {
        if (u.stage == stage && u.cls == cls && u.unit == unit &&
            u.message == message) {
            return true;
        }
    }
    return false;
}

std::string
QuarantineReport::to_string() const
{
    std::ostringstream os;
    os << "quarantined units: " << units_.size() << "\n";
    for (const QuarantinedUnit &u : units_) {
        os << "  [" << stage_name(u.stage) << "] " << u.unit << ": "
           << fault_class_name(u.cls) << " (" << u.message << ")\n";
    }
    return os.str();
}

FaultPlan
FaultPlan::only(FaultSite site, double probability, u64 seed)
{
    FaultPlan plan;
    plan.probability = probability;
    plan.seed = seed;
    for (bool &armed : plan.armed)
        armed = false;
    plan.armed[static_cast<std::size_t>(site)] = true;
    return plan;
}

namespace {

/** FNV-1a over the occurrence's `where` string, for unit-keyed plans. */
u64
fnv1a(const std::string &s)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

void
FaultInjector::maybe_fail(FaultSite site, const std::string &where)
{
    const auto s = static_cast<std::size_t>(site);
    const u64 occurrence = occurrences_[s]++;
    if (plan_.probability <= 0.0 || !plan_.armed[s])
        return;
    // Map a hash to [0, 1). Counter keying gives independent streams
    // per site, so occurrence i of a site fails identically across
    // runs whatever the interleaving with other sites; unit keying
    // hashes the `where` string instead so the decision is identical
    // across shard layouts and resumed sessions (see FaultPlan).
    const u64 k = plan_.key_by_unit ? fnv1a(where) : occurrence;
    const u64 h = mix64(plan_.seed ^ mix64((u64{s} << 32) | 1) ^
                        mix64(k));
    const double draw =
        static_cast<double>(h >> 11) * 0x1.0p-53; // 53 uniform bits.
    if (draw < plan_.probability) {
        ++injected_[s];
        std::string message = "injected fault at " +
            std::string(fault_site_name(site));
        if (!plan_.key_by_unit)
            message += " occurrence " + std::to_string(occurrence);
        message += " (" + where + ")";
        throw FaultError(FaultClass::Injected, message);
    }
}

u64
FaultInjector::total_injected() const
{
    u64 n = 0;
    for (u64 i : injected_)
        n += i;
    return n;
}

void
FaultInjector::reset()
{
    for (std::size_t i = 0; i < kNumFaultSites; ++i)
        occurrences_[i] = injected_[i] = 0;
}

} // namespace pokeemu::support
