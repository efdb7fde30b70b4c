#include "months.h"

#include <algorithm>
#include <chrono>

#include "common.h"

namespace perfbench {

using cosched::CoupledSim;
using cosched::bench::SeriesSpec;

namespace {

constexpr cosched::NodeCount kIntrepidNodes = 40960;
constexpr cosched::NodeCount kEurekaNodes = 100;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

MonthSpec month(bool by_load, double x, cosched::SchemeCombo combo,
                bool cosched_on, bool chaos) {
  MonthSpec m;
  m.by_load = by_load;
  m.x = x;
  m.combo = combo;
  m.cosched_on = cosched_on;
  m.chaos = chaos;
  m.label = (chaos ? "chaos/" : "") +
            cosched::bench::series_label(
                SeriesSpec{by_load, x, combo, cosched_on, {}});
  return m;
}

/// The "base" series and the four scheme combos at one x value.
void add_grid_column(std::vector<MonthSpec>& out, bool by_load, double x) {
  out.push_back(month(by_load, x, cosched::kHH, false, false));
  for (const cosched::SchemeCombo& c : cosched::kAllCombos)
    out.push_back(month(by_load, x, c, true, false));
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w :
       {Workload::kBaseMonth, Workload::kPaperGrid, Workload::kDurableChaos})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBaseMonth: return "base_month";
    case Workload::kPaperGrid: return "paper_grid";
    case Workload::kDurableChaos: return "durable_chaos";
  }
  return "?";
}

std::vector<MonthSpec> workload_months(Workload w) {
  std::vector<MonthSpec> out;
  switch (w) {
    case Workload::kBaseMonth:
      for (double load : cosched::bench::kEurekaLoads)
        out.push_back(month(true, load, cosched::kHH, false, false));
      break;
    case Workload::kPaperGrid:
      for (double load : cosched::bench::kEurekaLoads)
        add_grid_column(out, true, load);
      for (double p : cosched::bench::kPairedProportions)
        add_grid_column(out, false, p);
      break;
    case Workload::kDurableChaos:
      for (const cosched::SchemeCombo& c : cosched::kAllCombos)
        out.push_back(month(false, 0.10, c, true, true));
      break;
  }
  return out;
}

namespace chaos {

cosched::FaultPlan fault_plan(std::uint64_t seed) {
  cosched::FaultPlan plan;
  plan.seed = 0x5eedf001ULL + seed;
  plan.drop_probability = 0.02;
  // Latency 5 s + U[0, 60) s against a 60 s deadline: ~7% of calls time out.
  plan.latency_base = 5;
  plan.latency_jitter = 60;
  plan.rpc_deadline = 60;
  plan.retry_backoff = 60;
  return plan;
}

cosched::CoschedConfig::Liveness liveness() {
  cosched::CoschedConfig::Liveness l;
  l.enabled = true;
  return l;
}

}  // namespace chaos

std::size_t MonthInputs::jobs() const {
  std::size_t n = 0;
  for (const cosched::Trace& t : traces) n += t.size();
  return n;
}

MonthInputs make_inputs(const MonthSpec& m, std::uint64_t seed) {
  cosched::bench::CoupledWorkload w =
      m.by_load ? cosched::bench::make_load_workload(m.x, seed)
                : cosched::bench::make_proportion_workload(m.x, seed);
  MonthInputs in;
  // The same domain set-up as the figure benches (bench::run_case).
  in.specs = cosched::make_coupled_specs("intrepid", kIntrepidNodes, "eureka",
                                         kEurekaNodes, m.combo, m.cosched_on);
  for (cosched::DomainSpec& s : in.specs) s.policy = "wfp";
  in.traces.push_back(std::move(w.intrepid));
  in.traces.push_back(std::move(w.eureka));
  return in;
}

void configure(CoupledSim& sim, const MonthSpec& m, std::uint64_t seed) {
  if (!m.chaos) return;
  sim.set_fault_plan_all(chaos::fault_plan(seed));
  sim.set_liveness_all(chaos::liveness());
  sim.enable_journaling(chaos::kCompactEvery);
  for (std::size_t d = 0; d < sim.size(); ++d)
    sim.schedule_crash_recovery(d, chaos::kCrashAtSeq[d]);
}

std::vector<JobOutcome> job_outcomes(
    const std::vector<const cosched::Cluster*>& clusters) {
  std::vector<JobOutcome> out;
  for (const cosched::Cluster* c : clusters)
    c->scheduler().for_each_job(
        [&](cosched::JobId id, const cosched::RuntimeJob& j) {
          out.push_back(
              JobOutcome{id, j.start, j.end, j.yield_count, j.forced_releases});
        });
  std::sort(out.begin(), out.end(),
            [](const JobOutcome& a, const JobOutcome& b) { return a.id < b.id; });
  return out;
}

SystemView view_of(CoupledSim& sim) {
  SystemView v;
  v.engine = &sim.engine();
  for (std::size_t d = 0; d < sim.size(); ++d) {
    v.clusters.push_back(&sim.cluster(d));
    if (sim.journaling_enabled() && sim.last_recovery(d))
      v.recoveries.push_back(&*sim.last_recovery(d));
  }
  for (std::size_t from = 0; from < sim.size(); ++from)
    for (std::size_t to = 0; to < sim.size(); ++to) {
      if (from == to) continue;
      cosched::FaultInjectingPeer& link = sim.link(from, to);
      v.links.push_back(&link);
      v.loopbacks.push_back(
          &dynamic_cast<const cosched::LoopbackPeer&>(link.inner()));
    }
  return v;
}

Counts read_counts(const SystemView& s) {
  Counts c;
  c["sim.events"] = static_cast<double>(s.engine->executed());
  c["sim.scheduled"] = static_cast<double>(s.engine->scheduled_total());
  c["sim.cancelled"] = static_cast<double>(s.engine->cancelled_total());
  c["sim.peak_pending"] = static_cast<double>(s.engine->peak_pending());
  auto& iterations = c["sched.iterations"];
  auto& try_starts = c["sched.try_start_requests"];
  auto& forced = c["sched.forced_releases"];
  auto& unknown = c["core.unknown_status_decisions"];
  auto& unsync = c["core.unsync_starts"];
  auto& heartbeats = c["liveness.heartbeats"];
  auto& grants = c["liveness.lease_grants"];
  auto& expiries = c["liveness.lease_expiries"];
  for (const cosched::Cluster* cl : s.clusters) {
    iterations += static_cast<double>(cl->iterations_run());
    try_starts += static_cast<double>(cl->try_start_requests());
    forced += static_cast<double>(cl->forced_releases());
    unknown += static_cast<double>(cl->unknown_status_decisions());
    unsync += static_cast<double>(cl->unsync_starts());
    heartbeats += static_cast<double>(cl->heartbeats_sent());
    grants += static_cast<double>(cl->lease_grants());
    expiries += static_cast<double>(cl->lease_expiries());
  }
  auto& calls = c["proto.calls"];
  auto& req = c["proto.request_bytes"];
  auto& resp = c["proto.response_bytes"];
  for (const cosched::LoopbackPeer* lb : s.loopbacks) {
    calls += static_cast<double>(lb->calls());
    req += static_cast<double>(lb->request_bytes());
    resp += static_cast<double>(lb->response_bytes());
  }
  // A link without a fault plan passes every call straight through; only
  // calls judged against an active plan are fault-layer work.
  auto& fcalls = c["fault.calls"];
  auto& ffailed = c["fault.failed"];
  for (const cosched::FaultInjectingPeer* link : s.links) {
    if (!link->plan().has_faults()) continue;
    fcalls += static_cast<double>(link->stats().calls);
    ffailed += static_cast<double>(link->stats().failed());
  }
  auto& recoveries = c["journal.recoveries"];
  auto& replayed = c["journal.replay_records"];
  auto& replay_s = c["journal.replay_s"];
  for (const cosched::Cluster::RecoveryStats* r : s.recoveries) {
    ++recoveries;
    replayed += static_cast<double>(r->records_replayed);
    replay_s += r->replay_seconds;
  }
  return c;
}

double time_setup(const MonthSpec& m, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  const MonthInputs in = make_inputs(m, seed);
  CoupledSim sim(in.specs, in.traces);
  configure(sim, m, seed);
  return seconds_since(t0);
}

MonthResult run_month(const MonthSpec& m, std::uint64_t seed,
                      bool keep_outcomes) {
  MonthResult r;
  r.label = m.label;
  r.seed = seed;
  const MonthInputs in = make_inputs(m, seed);
  CoupledSim sim(in.specs, in.traces);
  configure(sim, m, seed);
  r.jobs = in.jobs();

  const auto t1 = std::chrono::steady_clock::now();
  const cosched::SimResult result = sim.run(kGuardTime);
  r.sim_s = seconds_since(t1);

  r.completed = result.completed;
  r.violations = result.invariants.violations;
  r.fingerprint = cosched::determinism_fingerprint(sim);
  r.end_time = result.end_time;
  const SystemView view = view_of(sim);
  r.counts = read_counts(view);
  if (keep_outcomes) r.outcomes = job_outcomes(view.clusters);
  return r;
}

}  // namespace perfbench
