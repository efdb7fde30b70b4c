// The benchmark's workloads: which coupled months each one runs, how a
// month's inputs are made from the seed, and what one untraced month
// produces.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/coupled_sim.h"

namespace perfbench {

enum class Workload : std::uint8_t { kBaseMonth, kPaperGrid, kDurableChaos };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// One coupled Intrepid/Eureka month under the paper's schedulers (WFP +
/// EASY backfill, 20-minute hold release).
struct MonthSpec {
  std::string label;  ///< e.g. "load=0.50/HY", "prop=10.0%/base"
  bool by_load = true;  ///< Figs. 3-6 load workload, else Figs. 7-10
  double x = 0.0;       ///< Eureka load or paired proportion
  cosched::SchemeCombo combo = cosched::kHH;
  bool cosched_on = true;  ///< false = the paper's "base" series
  bool chaos = false;      ///< the durable_chaos fault/liveness/journal set
};

std::vector<MonthSpec> workload_months(Workload w);

/// Constants of the durable_chaos months.
namespace chaos {
/// Chaos on every link, seeded from the workload seed.
cosched::FaultPlan fault_plan(std::uint64_t seed);
cosched::CoschedConfig::Liveness liveness();
/// Records between periodic journal compactions.
inline constexpr std::uint64_t kCompactEvery = 2000;
/// Durable sequence number whose commit crashes and recovers each domain
/// (Intrepid, Eureka).  A month journals about 320,000 records per domain,
/// so both crashes land near the middle of the run.
inline constexpr std::uint64_t kCrashAtSeq[2] = {150000, 170000};
}  // namespace chaos

/// A month's generated inputs, before any simulator object exists.
struct MonthInputs {
  std::vector<cosched::DomainSpec> specs;
  std::vector<cosched::Trace> traces;
  std::size_t jobs() const;
};

MonthInputs make_inputs(const MonthSpec& month, std::uint64_t seed);

/// Applies the post-construction configuration a month needs (durable_chaos
/// only).  The traced run repeats the same steps on its own wiring.
void configure(cosched::CoupledSim& sim, const MonthSpec& month,
               std::uint64_t seed);

/// Guard time passed to run(): a month that has not drained by then counts
/// as incomplete.  Correct months of seeds 0-31 end within 45 days; a month
/// caught in a hold-release livelock keeps the engine busy until the guard,
/// so a short guard keeps such a run within the time limit.
inline constexpr cosched::Time kGuardTime = 120 * cosched::kDay;

/// One job's observable outcome: the tuple determinism_fingerprint hashes.
struct JobOutcome {
  cosched::JobId id;
  cosched::Time start, end;
  int yields, releases;
  bool operator==(const JobOutcome&) const = default;
};

/// Every job's outcome, sorted by id.
std::vector<JobOutcome> job_outcomes(
    const std::vector<const cosched::Cluster*>& clusters);

/// Named per-layer counts of one month.  Names ending in "_s" are host
/// times; every other entry is an exact count.
using Counts = std::map<std::string, double>;

/// The simulator objects a month's counts are read from: either the parts
/// inside a CoupledSim or the traced run's own wiring.
struct SystemView {
  const cosched::Engine* engine = nullptr;
  std::vector<const cosched::Cluster*> clusters;
  std::vector<const cosched::LoopbackPeer*> loopbacks;
  std::vector<const cosched::FaultInjectingPeer*> links;
  std::vector<const cosched::Cluster::RecoveryStats*> recoveries;
};

SystemView view_of(cosched::CoupledSim& sim);

/// Counts read from the parts' public accessors after a run.
Counts read_counts(const SystemView& system);

/// What one untraced month produced.
struct MonthResult {
  std::string label;
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  double sim_s = 0.0;    ///< CoupledSim::run
  bool completed = false;
  std::vector<std::string> violations;
  std::uint64_t fingerprint = 0;
  cosched::Time end_time = 0;
  Counts counts;
  std::vector<JobOutcome> outcomes;  ///< filled only when asked for
};

/// Host seconds to set one month up as run_month() does, without running
/// it; tearing the simulator down is not timed.
double time_setup(const MonthSpec& month, std::uint64_t seed);

/// Builds, configures and runs one month with the public CoupledSim API.
MonthResult run_month(const MonthSpec& month, std::uint64_t seed,
                      bool keep_outcomes);

}  // namespace perfbench
