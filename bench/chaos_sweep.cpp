// Chaos sweep: the fault planes of the resilience layer under one driver.
//
// Each plane puts the paper's §IV-C degraded-mode rule, or a fault layer
// built on it, under seeded chaos:
//
//   fault           link availability (per-RPC drop probability) across the
//                   HH/HY/YH/YY grid, and RPC latency against a fixed
//                   protocol deadline.
//   partition       the liveness layer (heartbeats, phi-accrual detector,
//                   leased holds) against partition shape: none, symmetric,
//                   one-way and reply-loss, healing or permanent.
//   mesh_partition  the k-of-N two-phase gang costart on k in {3,4,5}
//                   domains with random healing link cuts, and rings of k
//                   gangs that only the cycle-resolution victim order breaks.
//   recovery        kill-anywhere: one domain crashes at seeded points of
//                   the baseline's journal and must replay to the uncrashed
//                   baseline's fingerprint and end time.
//   storage_faults  at-rest corruption between crash and recovery, plus an
//                   ENOSPC quota: corruption may cost data, never quietly.
//
// A plane is one row of kPlanes: its case grid, the metrics its (case,
// seed) units report and which counters fail its gate.  The driver runs the
// units of every plane over COSCHED_BENCH_THREADS workers and aggregates
// them in seed order, so results are identical to a serial run.  Per plane
// it prints a table, writes BENCH_<json>.json (and <csv>.csv under
// COSCHED_BENCH_CSV_DIR) and one "<plane> gate: PASS|FAILED (...)" line;
// any failed gate makes the exit status 1.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/storage_fault.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/pairing.h"
#include "workload/synth.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

// -- what a unit reports -------------------------------------------------

/// The output of one (case, seed) unit, keyed by the plane's column names.
/// Observations of a metric are pooled per unit and merged across seeds;
/// counters are summed.
struct Outcome {
  std::map<std::string, RunningStats> stats;
  std::map<std::string, std::size_t> counts;
  double wall_seconds = 0.0;  ///< host time inside CoupledSim::run
  std::uint64_t events = 0;
  std::string error;  ///< what() of an exception that ended the unit

  void observe(const std::string& metric, double v) { stats[metric].add(v); }
  void count(const std::string& counter, std::size_t n = 1) {
    counts[counter] += n;
  }
};

enum class Kind {
  kStat,   ///< mean/stddev over every observation of the case
  kCount,  ///< summed over the case's units (JSON stddev 0)
  kGate,   ///< a kCount whose nonzero total fails the plane's gate
};

struct Column {
  const char* name;    ///< JSON metric name, and the Outcome key
  const char* header;  ///< table header; nullptr keeps the column JSON-only
  Kind kind = Kind::kStat;
  int decimals = 1;
  double scale = 1.0;  ///< table cell multiplier (100 for a percentage)
};

struct Case {
  std::string label;
  std::function<void(std::uint64_t seed, Outcome&)> run;
};

struct Plane {
  const char* name;   ///< gate-line name
  const char* title;  ///< print_header's figure and description
  const char* what;
  const char* json;  ///< BENCH_<json>.json
  const char* csv;   ///< <csv>.csv under COSCHED_BENCH_CSV_DIR
  std::size_t min_seeds;  ///< seeds per case = max(runs(), min_seeds)
  std::vector<Column> columns;
  std::vector<Case> (*grid)();
  const char* note;  ///< what the table should show
};

/// Every plane also reports units that threw; any fails its gate.
const Column kUnitErrors{"unit_errors", nullptr, Kind::kGate};

// -- shared run helpers ----------------------------------------------------

/// Runs `sim` to completion under a 120-day guard and books its host time,
/// engine events, invariant violations and whether it completed.
SimResult simulate(CoupledSim& sim, Outcome& out) {
  const auto t0 = std::chrono::steady_clock::now();
  SimResult r = sim.run(120 * kDay);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds += std::chrono::duration<double>(t1 - t0).count();
  out.events += sim.engine().executed();
  out.count("invariant_violations", r.invariants.violations.size());
  if (!r.completed) out.count("incomplete");
  return r;
}

void observe_costart(const SimResult& r, Outcome& out) {
  double fraction = 1.0;
  if (r.groups.groups_total > 0)
    fraction = static_cast<double>(r.groups.groups_started_together) /
               static_cast<double>(r.groups.groups_total);
  out.observe("costart_fraction", fraction);
}

/// Seed bases of the two-domain workload: trace A, trace B, pairing.
struct SeedBases {
  std::uint64_t a, b, pair;
};
constexpr SeedBases kLinkSeeds{100, 200, 11};       // fault, recovery
constexpr SeedBases kPartitionSeeds{300, 400, 17};  // partition, storage

/// Two coupled 100-node domains (eureka model), ~2 simulated days at load
/// 0.7, 20% of jobs paired: small enough that a plane's grid runs in
/// seconds, busy enough that every fault lands on active holds.
std::vector<Trace> two_domain_traces(SeedBases bases, std::uint64_t seed) {
  SynthParams p;
  p.span = static_cast<Duration>(2 * kDay * scale());
  p.offered_load = 0.7;
  p.seed = bases.a + seed;
  Trace a = generate_trace(eureka_model(), p);
  p.seed = bases.b + seed;
  Trace b = generate_trace(eureka_model(), p);
  for (auto& j : b.jobs()) j.id += 1000000;
  pair_by_proportion(a, b, 0.20, bases.pair + seed);
  return {std::move(a), std::move(b)};
}

std::vector<DomainSpec> two_domain_specs(SchemeCombo combo) {
  return make_coupled_specs("alpha", 100, "beta", 100, combo);
}

CoschedConfig::Liveness liveness_on() {
  CoschedConfig::Liveness liveness;
  liveness.enabled = true;
  liveness.heartbeat_period = 30 * kSecond;
  liveness.lease_duration = 5 * kMinute;
  return liveness;
}

/// The ways a link can be cut, all taking (from, to, start, end).
using Cut = void (CoupledSim::*)(std::size_t, std::size_t, Time, Time);
constexpr Cut kCuts[] = {&CoupledSim::add_partition,
                         &CoupledSim::add_one_way_partition,
                         &CoupledSim::add_reply_partition};

// -- fault: link degradation ---------------------------------------------

void run_fault(SchemeCombo combo, FaultPlan plan, std::uint64_t seed,
               Outcome& out) {
  CoupledSim sim(two_domain_specs(combo), two_domain_traces(kLinkSeeds, seed));
  plan.seed = 0x5eedf001ULL + seed;  // chaos varies with the workload seed
  sim.set_fault_plan_all(plan);
  const SimResult r = simulate(sim, out);

  double sync = 0.0, held = 0.0, unknown = 0.0, unsync = 0.0, degraded = 0.0;
  for (const SystemMetrics& m : r.systems) {
    sync += m.avg_sync_minutes / static_cast<double>(r.systems.size());
    held += m.held_node_hours;
    unknown += static_cast<double>(m.unknown_status_decisions);
    unsync += static_cast<double>(m.unsync_starts);
    degraded += static_cast<double>(m.degraded_forced_releases);
  }
  out.observe("sync_minutes", sync);
  observe_costart(r, out);
  out.observe("held_node_hours", held);
  out.observe("unknown_status_decisions", unknown);
  out.observe("unsync_starts", unsync);
  out.observe("degraded_forced_releases", degraded);
}

std::vector<Case> fault_cases() {
  std::vector<Case> cases;
  auto add = [&cases](std::string label, SchemeCombo combo, FaultPlan plan) {
    cases.push_back({std::move(label), [combo, plan](std::uint64_t seed,
                                                     Outcome& out) {
                       run_fault(combo, plan, seed, out);
                     }});
  };
  // Availability grid: drop probability = 1 - availability.
  for (const SchemeCombo& combo : kAllCombos) {
    for (double avail : {1.0, 0.9, 0.5, 0.0}) {
      FaultPlan plan;
      plan.drop_probability = 1.0 - avail;
      add("avail=" + format_double(avail, 2) + "/" + combo.label, combo, plan);
    }
  }
  // Latency vs a 120 s protocol deadline on HY, the paper's recommended
  // production combo: 60 s fits, 90±60 s straddles, 180 s always times out.
  for (Duration latency : {Duration{60}, Duration{90}, Duration{180}}) {
    FaultPlan plan;
    plan.latency_base = latency;
    plan.latency_jitter = latency == 90 ? 60 : 0;
    plan.rpc_deadline = 120;
    add("latency=" + std::to_string(latency) + "s/deadline=120s/HY", kHY,
        plan);
  }
  return cases;
}

// -- partition: liveness vs partition shape ------------------------------

struct PartitionShape {
  const char* label;
  Cut cut;  ///< nullptr: healthy network
  bool heals;
};

const PartitionShape kShapes[] = {
    {"none", nullptr, true},
    {"2way-heal", &CoupledSim::add_partition, true},
    {"2way-perm", &CoupledSim::add_partition, false},
    {"1way-heal", &CoupledSim::add_one_way_partition, true},
    {"1way-perm", &CoupledSim::add_one_way_partition, false},
    {"reply-heal", &CoupledSim::add_reply_partition, true},
};

void run_partition(SchemeCombo combo, const PartitionShape& shape,
                   std::uint64_t seed, Outcome& out) {
  CoupledSim sim(two_domain_specs(combo),
                 two_domain_traces(kPartitionSeeds, seed));
  sim.set_liveness_all(liveness_on());

  // The schedule is a pure function of (shape, seed): onset in hours 6-18,
  // a 1-7 h outage for healing shapes, one that outlives the run otherwise.
  SplitMix64 mix(0xBADC0FFEEULL + seed * 1000003ULL);
  const Time onset =
      6 * kHour + static_cast<Time>(mix.next() % (12ULL * kHour));
  const Time heal =
      onset + kHour + static_cast<Time>(mix.next() % (6ULL * kHour));
  if (shape.cut != nullptr)
    (sim.*shape.cut)(0, 1, onset, shape.heals ? heal : onset + 100 * kDay);

  EventLog& log = sim.enable_event_log();
  const SimResult r = simulate(sim, out);

  double unsync = 0.0, grants = 0.0, expiries = 0.0, suspected = 0.0;
  double fence = 0.0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const Cluster& cl = sim.cluster(i);
    unsync += static_cast<double>(cl.unsync_starts());
    grants += static_cast<double>(cl.lease_grants());
    expiries += static_cast<double>(cl.lease_expiries());
    suspected += static_cast<double>(cl.suspected_status_decisions());
    fence += static_cast<double>(cl.stale_fence_rejections());
  }
  observe_costart(r, out);
  out.observe("unsync_starts", unsync);
  out.observe("lease_grants", grants);
  out.observe("lease_expiries", expiries);
  out.observe("suspected_status_decisions", suspected);
  out.observe("stale_fence_rejections", fence);

  // MTTR: onset to the first blocked job giving up on its mate.
  if (shape.cut == nullptr) return;
  Time first_unsync = kNoTime;
  for (const JobEvent& e : log.events()) {
    if (e.kind != JobEventKind::kUnsyncStart || e.time < onset) continue;
    if (first_unsync == kNoTime || e.time < first_unsync) first_unsync = e.time;
  }
  if (first_unsync != kNoTime)
    out.observe("mttr_minutes",
                static_cast<double>(first_unsync - onset) / double(kMinute));
}

std::vector<Case> partition_cases() {
  std::vector<Case> cases;
  for (const SchemeCombo& combo : kAllCombos) {
    for (const PartitionShape& shape : kShapes) {
      cases.push_back({std::string("shape=") + shape.label + "/" + combo.label,
                       [combo, &shape](std::uint64_t seed, Outcome& out) {
                         run_partition(combo, shape, seed, out);
                       }});
    }
  }
  return cases;
}

// -- mesh_partition: the k-of-N gang under partial connectivity ----------

void observe_gangs(const SimResult& r, Outcome& out) {
  out.observe("gangs_prepared", static_cast<double>(r.gangs_prepared));
  out.observe("gangs_committed", static_cast<double>(r.gangs_committed));
  out.observe("gangs_aborted", static_cast<double>(r.gangs_aborted));
  out.observe("gangs_resolved_by_victim",
              static_cast<double>(r.gangs_resolved_by_victim));
  observe_costart(r, out);
  out.count("gang_atomicity_violations",
            r.invariants.gang_atomicity_violations);
}

/// k coupled 100-node domains, ~2 simulated days, 15% of jobs grouped
/// across the whole mesh, with 1..k seeded healing link outages.  The
/// combo's first scheme drives domain 0, its second every other domain.
void run_mesh(std::size_t k, SchemeCombo combo, std::uint64_t seed,
              Outcome& out) {
  std::vector<DomainSpec> specs(k);
  std::vector<Trace> traces;
  std::vector<Trace*> ptrs;
  SynthParams p;
  p.span = static_cast<Duration>(2 * kDay * scale());
  p.offered_load = 0.6;
  for (std::size_t d = 0; d < k; ++d) {
    specs[d].name = "m" + std::to_string(d);
    specs[d].capacity = 100;
    specs[d].cosched.scheme = d == 0 ? combo.first : combo.second;
    specs[d].cosched.hold_release_period = 20 * kMinute;
    specs[d].cosched.gang.two_phase = true;
    p.seed = 500 + seed * 10 + d;
    traces.push_back(generate_trace(eureka_model(), p));
    for (auto& j : traces.back().jobs())
      j.id += static_cast<JobId>(1000000 * (d + 1));
  }
  for (auto& t : traces) ptrs.push_back(&t);
  group_by_proportion(ptrs, 0.15, 17 + seed);

  CoupledSim sim(specs, traces);
  sim.set_liveness_all(liveness_on());

  // Cut 1..k random directed links; the rest of the mesh keeps working, so
  // some gang rounds see a reachable-but-unpreparable mesh.
  SplitMix64 mix(0x3E5427ULL + seed * 1000003ULL + k * 7919ULL);
  const std::size_t cuts = 1 + static_cast<std::size_t>(mix.next() % k);
  for (std::size_t c = 0; c < cuts; ++c) {
    const std::size_t from = static_cast<std::size_t>(mix.next() % k);
    std::size_t to = static_cast<std::size_t>(mix.next() % (k - 1));
    if (to >= from) ++to;
    const Time onset =
        4 * kHour + static_cast<Time>(mix.next() % (8ULL * kHour));
    const Time heal =
        onset + kHour + static_cast<Time>(mix.next() % (5ULL * kHour));
    (sim.*kCuts[mix.next() % 3])(from, to, onset, heal);
  }

  const SimResult r = simulate(sim, out);
  observe_gangs(r, out);
  double unsync = 0.0;
  for (std::size_t i = 0; i < sim.size(); ++i)
    unsync += static_cast<double>(sim.cluster(i).unsync_starts());
  out.observe("unsync_starts", unsync);
}

/// A ring of k full-machine gangs: domain i holds group i+1 from t=0 while
/// its member of group i queues behind that holder, a length-k circular
/// wait that only the cycle-resolution victim order can break.
void run_cycle(std::size_t k, std::uint64_t seed, Outcome& out) {
  std::vector<DomainSpec> specs(k);
  std::vector<Trace> traces(k);
  const Duration runtime = 600 + static_cast<Duration>(60 * seed);
  for (std::size_t i = 0; i < k; ++i) {
    specs[i].name = "r" + std::to_string(i);
    specs[i].capacity = 6;
    specs[i].policy = "fcfs";
    specs[i].cosched.scheme = Scheme::kHold;
    specs[i].cosched.hold_release_period = 0;  // no pairwise breaker
    specs[i].cosched.gang.two_phase = true;
    JobSpec holder;
    holder.id = static_cast<JobId>(i + 1);
    holder.submit = 0;
    holder.runtime = holder.walltime = runtime;
    holder.nodes = 6;
    holder.group = static_cast<GroupId>(i + 1);
    traces[i].add(holder);
    JobSpec member;
    member.id = static_cast<JobId>(100 + i);
    member.submit = 10;
    member.runtime = member.walltime = runtime;
    member.nodes = 6;
    member.group = static_cast<GroupId>(i == 0 ? k : i);
    traces[i].add(member);
  }
  CoupledSim sim(specs, traces);
  sim.enable_gang_resolution(5 * kMinute);
  observe_gangs(simulate(sim, out), out);
  out.observe("unsync_starts", 0.0);
}

std::vector<Case> mesh_cases() {
  std::vector<Case> cases;
  for (std::size_t k : {3u, 4u, 5u}) {
    for (const SchemeCombo& combo : kAllCombos) {
      cases.push_back({"mesh/k=" + std::to_string(k) + "/" + combo.label,
                       [k, combo](std::uint64_t seed, Outcome& out) {
                         run_mesh(k, combo, seed, out);
                       }});
    }
    cases.push_back({"cycle/k=" + std::to_string(k),
                     [k](std::uint64_t seed, Outcome& out) {
                       run_cycle(k, seed, out);
                     }});
  }
  return cases;
}

// -- recovery and storage_faults: crash, (corrupt,) replay ---------------

/// The uncrashed journaled run every crashed re-run is checked against.
struct Baseline {
  std::uint64_t fingerprint = 0;
  Time end = 0;
  std::uint64_t last_seq[2] = {0, 0};
};

Baseline run_baseline(const std::vector<DomainSpec>& specs,
                      const std::vector<Trace>& traces,
                      std::uint64_t compact_every, Outcome& out) {
  CoupledSim sim(specs, traces);
  sim.enable_journaling(compact_every);
  const SimResult r = simulate(sim, out);
  return {determinism_fingerprint(sim), r.end_time,
          {sim.journal(0).last_committed_seq(),
           sim.journal(1).last_committed_seq()}};
}

bool matches(CoupledSim& sim, const SimResult& r, const Baseline& base) {
  return r.completed && determinism_fingerprint(sim) == base.fingerprint &&
         r.end_time == base.end;
}

/// Crash point `fraction` of domain fi % 2's baseline journal: the crash
/// points alternate between the two domains.
std::uint64_t crash_seq(const Baseline& base, std::size_t fi, double fraction,
                        std::uint64_t at_least) {
  return std::max<std::uint64_t>(
      at_least, static_cast<std::uint64_t>(
                    fraction * static_cast<double>(base.last_seq[fi % 2])));
}

void run_recovery(SchemeCombo combo, std::uint64_t compact_every,
                  std::uint64_t seed, Outcome& out) {
  constexpr double kCrashFractions[] = {0.20, 0.50, 0.85};
  const std::vector<DomainSpec> specs = two_domain_specs(combo);
  const std::vector<Trace> traces = two_domain_traces(kLinkSeeds, seed);
  const Baseline base = run_baseline(specs, traces, compact_every, out);

  for (std::size_t fi = 0; fi < std::size(kCrashFractions); ++fi) {
    const std::size_t domain = fi % 2;
    CoupledSim sim(specs, traces);
    sim.enable_journaling(compact_every);
    sim.schedule_crash_recovery(domain,
                                crash_seq(base, fi, kCrashFractions[fi], 1));
    const SimResult r = simulate(sim, out);
    out.count("crashes");
    if (!matches(sim, r, base)) out.count("fingerprint_mismatches");
    const auto& rec = sim.last_recovery(domain);
    if (!rec.has_value()) {
      out.count("recovery_missing");
      continue;
    }
    out.observe("mttr_ms", rec->replay_seconds * 1e3);
    out.observe("replay_records", static_cast<double>(rec->records_replayed));
    out.observe("journal_kb", static_cast<double>(rec->bytes_scanned) / 1024.0);
    if (rec->replay_seconds > 0.0) {
      out.observe("replay_records_per_sec",
                  static_cast<double>(rec->records_replayed) /
                      rec->replay_seconds);
      out.observe("replay_mb_per_sec", static_cast<double>(rec->bytes_scanned) /
                                           (1024.0 * 1024.0) /
                                           rec->replay_seconds);
    }
  }
}

std::vector<Case> recovery_cases() {
  std::vector<Case> cases;
  for (const SchemeCombo& combo : kAllCombos) {
    for (std::uint64_t compact : {std::uint64_t{0}, std::uint64_t{128}}) {
      const std::string mode =
          compact == 0 ? "wal-only" : "compact=" + std::to_string(compact);
      cases.push_back({std::string(combo.label) + "/" + mode,
                       [combo, compact](std::uint64_t seed, Outcome& out) {
                         run_recovery(combo, compact, seed, out);
                       }});
    }
  }
  return cases;
}

/// Snapshot every this many records: the image carries generations, so the
/// fallback path is reachable when the damage lands in the newest snapshot.
constexpr std::uint64_t kCompactEvery = 96;

/// Byte quota of the ENOSPC class: generous enough for the attach snapshot,
/// far too small for the full run.
constexpr std::uint64_t kQuotaBytes = 8 * 1024;

std::size_t site(const std::vector<std::uint8_t>& b, double where) {
  return std::min(b.size() - 1, static_cast<std::size_t>(
                                    where * static_cast<double>(b.size())));
}

struct CorruptionClass {
  const char* name;
  /// Mutates the durable image; `where` in [0,1) picks the damage site.
  /// nullptr is the ENOSPC class: a byte quota instead of at-rest damage.
  void (*mutate)(std::vector<std::uint8_t>&, double where);
};

const CorruptionClass kClasses[] = {
    {"bit-flip",
     [](std::vector<std::uint8_t>& b, double where) {
       b[site(b, where)] ^=
           static_cast<std::uint8_t>(1u << (site(b, where) % 8));
     }},
    {"zero-run",
     [](std::vector<std::uint8_t>& b, double where) {
       const std::size_t at = site(b, where);
       const std::size_t end = std::min(b.size(), at + 24);
       std::fill(b.begin() + static_cast<std::ptrdiff_t>(at),
                 b.begin() + static_cast<std::ptrdiff_t>(end),
                 std::uint8_t{0});
     }},
    {"excise",
     [](std::vector<std::uint8_t>& b, double where) {
       const std::size_t at = site(b, where * 0.9);
       const std::size_t end = std::min(b.size(), at + 12);
       b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
               b.begin() + static_cast<std::ptrdiff_t>(end));
     }},
    {"torn-tail",
     [](std::vector<std::uint8_t>& b, double where) {
       b.resize(std::max<std::size_t>(1, site(b, 0.5 + where / 2)));
     }},
    {"enospc-quota", nullptr},
};

/// Every crashed run is classified: exact replay, loss that RecoveryStats
/// itemizes, a recovery that refused to proceed (threw), or silent loss.
void run_storage(SchemeCombo combo, const CorruptionClass& cls,
                 std::uint64_t seed, Outcome& out) {
  constexpr double kCrashFractions[] = {0.25, 0.55, 0.85};
  const std::vector<DomainSpec> specs = two_domain_specs(combo);
  const std::vector<Trace> traces = two_domain_traces(kPartitionSeeds, seed);
  const Baseline base = run_baseline(specs, traces, kCompactEvery, out);

  if (cls.mutate == nullptr) {
    // No crash: the quota forces the degradation ladder mid-run, and the
    // ladder itself must never change scheduling results.
    CoupledSim sim(specs, traces);
    StorageFaultPlan plan;
    plan.seed = seed;
    plan.capacity_bytes = kQuotaBytes;
    sim.enable_faulty_journaling(plan, kCompactEvery);
    const SimResult r = simulate(sim, out);
    out.count("crashes");
    out.count("enospc_events", r.invariants.storage_enospc_events);
    out.count(matches(sim, r, base) ? "exact_replays" : "silent_loss");
    return;
  }

  for (std::size_t fi = 0; fi < std::size(kCrashFractions); ++fi) {
    const std::size_t domain = fi % 2;
    // The damage site sweeps the image as the crash point sweeps the run.
    const double where =
        (static_cast<double>(fi) + static_cast<double>(seed % 3) / 3.0) /
        static_cast<double>(std::size(kCrashFractions));
    CoupledSim sim(specs, traces);
    sim.enable_journaling(kCompactEvery);
    sim.schedule_crash_recovery(
        domain, crash_seq(base, fi, kCrashFractions[fi], 2),
        [&cls, where](std::vector<std::uint8_t>& b) {
          if (!b.empty()) cls.mutate(b, where);
        });
    out.count("crashes");
    SimResult r;
    try {
      r = simulate(sim, out);
    } catch (const Error&) {
      out.count("loud_failures");
      continue;
    }

    const auto& rec = sim.last_recovery(domain);
    if (matches(sim, r, base))
      out.count("exact_replays");
    else if (rec.has_value() && (rec->data_loss_reported() || rec->tail_torn))
      out.count("reported_loss");
    else
      out.count("silent_loss");
    if (!rec.has_value()) continue;
    out.observe("mttr_ms", rec->replay_seconds * 1e3);
    out.observe("corrupt_regions", static_cast<double>(rec->corrupt_regions));
    out.observe("records_dropped", static_cast<double>(rec->records_missing +
                                                       rec->records_dropped));
    if (rec->snapshot_fallback) out.count("snapshot_fallbacks");
  }
}

std::vector<Case> storage_cases() {
  std::vector<Case> cases;
  for (const SchemeCombo& combo : kAllCombos) {
    for (const CorruptionClass& cls : kClasses) {
      cases.push_back({std::string(combo.label) + "/" + cls.name,
                       [combo, &cls](std::uint64_t seed, Outcome& out) {
                         run_storage(combo, cls, seed, out);
                       }});
    }
  }
  return cases;
}

// -- the plane table -------------------------------------------------------

const Plane kPlanes[] = {
    {.name = "fault",
     .title = "Fault sweep",
     .what = "sync overhead and loss of capability vs link degradation",
     .json = "fault_sweep",
     .csv = "fault_sweep",
     .min_seeds = 1,
     .columns = {{"sync_minutes", "sync (min)", Kind::kStat, 2},
                 {"costart_fraction", "co-start %", Kind::kStat, 1, 100.0},
                 {"held_node_hours", "held (nh)"},
                 {"unknown_status_decisions", "unknown"},
                 {"unsync_starts", "unsync"},
                 {"degraded_forced_releases", "deg. releases"},
                 {"invariant_violations", nullptr, Kind::kGate},
                 {"incomplete", nullptr, Kind::kGate}},
     .grid = fault_cases,
     .note = "sync overhead and co-start capability fall as availability\n"
             "  drops; at avail=0 every pair start is unsynchronized (pure\n"
             "  §IV-C unknown rule) and held time collapses to ~0."},
    {.name = "partition",
     .title = "Partition sweep",
     .what = "liveness layer (detector + leased holds) vs partition shape",
     .json = "partition",
     .csv = "partition_sweep",
     .min_seeds = 5,  // 24 cases x 5 >= 100 distinct partition schedules
     .columns = {{"mttr_minutes", "mttr (min)", Kind::kStat, 2},
                 {"costart_fraction", "co-start %", Kind::kStat, 1, 100.0},
                 {"unsync_starts", "unsync"},
                 {"lease_grants", "grants"},
                 {"lease_expiries", "expiries"},
                 {"suspected_status_decisions", "suspected"},
                 {"stale_fence_rejections", "fence rej."},
                 {"invariant_violations", nullptr, Kind::kGate},
                 {"incomplete", nullptr, Kind::kGate}},
     .grid = partition_cases,
     .note = "healing partitions recover co-start capability; permanent\n"
             "  ones convert holds into lease expiries and unsynchronized\n"
             "  starts with MTTR on the order of the lease duration."},
    {.name = "mesh_partition",
     .title = "Mesh-partition sweep",
     .what = "k-of-N gang costart under partial mesh connectivity",
     .json = "mesh_partition",
     .csv = "mesh_partition_sweep",
     .min_seeds = 3,  // 15 cases x 3 >= 45 distinct mesh outage schedules
     .columns = {{"gangs_prepared", "prepared"},
                 {"gangs_committed", "committed"},
                 {"gangs_aborted", "aborted"},
                 {"gangs_resolved_by_victim", "victimized"},
                 {"costart_fraction", "co-start %", Kind::kStat, 1, 100.0},
                 {"unsync_starts", "unsync"},
                 {"gang_atomicity_violations", "atomicity", Kind::kGate},
                 {"invariant_violations", nullptr, Kind::kGate},
                 {"incomplete", nullptr, Kind::kGate}},
     .grid = mesh_cases,
     .note = "a committed gang fully starts (gang_atomicity_violations\n"
             "  == 0), every ring resolves via the deterministic victim,\n"
             "  and no run stalls."},
    {.name = "recovery",
     .title = "Recovery sweep",
     .what = "kill-anywhere crash/replay equivalence gate + MTTR",
     .json = "recovery",
     .csv = "recovery_sweep",
     .min_seeds = 1,
     .columns = {{"crashes", "crashes", Kind::kCount},
                 {"mttr_ms", "mttr (ms)", Kind::kStat, 3},
                 {"replay_records", "replayed"},
                 {"replay_records_per_sec", "records/s", Kind::kStat, 0},
                 {"replay_mb_per_sec", "MB/s"},
                 {"journal_kb", "journal (KB)"},
                 {"fingerprint_mismatches", nullptr, Kind::kGate},
                 {"recovery_missing", nullptr, Kind::kGate},
                 {"invariant_violations", nullptr, Kind::kGate},
                 {"incomplete", nullptr, Kind::kGate}},
     .grid = recovery_cases,
     .note = "compaction caps replayed-record counts (the snapshot\n"
             "  swallows the prefix) at a slightly higher MB/s; MTTR stays\n"
             "  in the low milliseconds either way."},
    {.name = "storage_faults",
     .title = "Storage fault sweep",
     .what = "at-rest corruption + ENOSPC recovery, zero-silent-loss gate",
     .json = "storage_faults",
     .csv = "storage_fault_sweep",
     .min_seeds = 1,
     .columns = {{"crashes", "crashes", Kind::kCount},
                 {"exact_replays", "exact", Kind::kCount},
                 {"reported_loss", "reported", Kind::kCount},
                 {"loud_failures", "loud", Kind::kCount},
                 {"silent_loss", "SILENT", Kind::kGate},
                 {"snapshot_fallbacks", "fallbacks", Kind::kCount},
                 {"enospc_events", nullptr, Kind::kCount},
                 {"mttr_ms", "mttr (ms)", Kind::kStat, 3},
                 {"corrupt_regions", nullptr},
                 {"records_dropped", "dropped"},
                 {"invariant_violations", nullptr, Kind::kGate},
                 {"incomplete", nullptr, Kind::kCount}},
     .grid = storage_cases,
     .note = "bit flips mostly land in replayable regions (exact or\n"
             "  reported), torn tails always report, and the ENOSPC ladder\n"
             "  never alters scheduling results."},
};

// -- the driver ------------------------------------------------------------

std::size_t seeds_of(const Plane& plane) {
  return std::max<std::size_t>(static_cast<std::size_t>(runs()),
                               plane.min_seeds);
}

/// Runs one unit; an exception (or an Outcome key the plane does not
/// declare) becomes a unit error of its case instead of ending the process.
Outcome run_unit(const Plane& plane, const Case& c, std::uint64_t seed) {
  Outcome out;
  try {
    c.run(seed, out);
    auto declared = [&plane](const std::string& key, bool stat) {
      return std::any_of(plane.columns.begin(), plane.columns.end(),
                         [&](const Column& col) {
                           return key == col.name &&
                                  (col.kind == Kind::kStat) == stat;
                         });
    };
    for (const auto& [key, stats] : out.stats)
      if (!declared(key, true)) throw Error("undeclared metric " + key);
    for (const auto& [key, n] : out.counts)
      if (!declared(key, false)) throw Error("undeclared counter " + key);
  } catch (const std::exception& e) {
    out = Outcome{};
    out.error = e.what();
  } catch (...) {
    out = Outcome{};
    out.error = "unknown exception";
  }
  if (!out.error.empty()) out.count(kUnitErrors.name);
  return out;
}

/// Prints, exports and gates one plane from its units' outcomes (case-major,
/// seed-minor).  Returns whether the gate passed.
bool report(const Plane& plane, const std::vector<Case>& cases,
            const Outcome* outcomes) {
  const std::size_t seeds = seeds_of(plane);
  std::vector<Column> columns = plane.columns;
  columns.push_back(kUnitErrors);

  print_header(plane.title, plane.what);
  std::vector<std::string> header = {"case"};
  for (const Column& col : columns)
    if (col.header != nullptr) header.push_back(col.header);
  Table table(std::move(header));
  BenchJsonFile json(plane.json);
  std::vector<std::size_t> gate_totals(columns.size(), 0);

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Outcome* units = outcomes + ci * seeds;
    double wall = 0.0;
    std::uint64_t events = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      wall += units[s].wall_seconds;
      events += units[s].events;
      if (!units[s].error.empty())
        std::cerr << plane.name << ": case " << cases[ci].label << " seed "
                  << s << " threw: " << units[s].error << "\n";
    }
    std::vector<std::string> row = {cases[ci].label};
    std::vector<BenchJsonFile::Metric> metrics;
    for (std::size_t k = 0; k < columns.size(); ++k) {
      const Column& col = columns[k];
      std::string cell;
      if (col.kind == Kind::kStat) {
        RunningStats merged;
        for (std::size_t s = 0; s < seeds; ++s)
          if (const auto it = units[s].stats.find(col.name);
              it != units[s].stats.end())
            merged.merge(it->second);
        metrics.push_back({col.name, merged.mean(), merged.stddev()});
        cell = merged.count() > 0
                   ? format_double(col.scale * merged.mean(), col.decimals)
                   : "-";
      } else {
        std::size_t total = 0;
        for (std::size_t s = 0; s < seeds; ++s)
          if (const auto it = units[s].counts.find(col.name);
              it != units[s].counts.end())
            total += it->second;
        metrics.push_back({col.name, static_cast<double>(total), 0.0});
        gate_totals[k] += total;
        cell = std::to_string(total);
      }
      if (col.header != nullptr) row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
    json.add_case(cases[ci].label, wall, events, std::move(metrics));
  }

  table.print(std::cout);
  maybe_export_csv(plane.csv, table);
  json.write();

  bool pass = true;
  std::string totals;
  for (std::size_t k = 0; k < columns.size(); ++k) {
    if (columns[k].kind != Kind::kGate) continue;
    pass = pass && gate_totals[k] == 0;
    totals += (totals.empty() ? "" : ", ") + std::to_string(gate_totals[k]) +
              " " + columns[k].name;
  }
  std::cout << "\nUnits: " << cases.size() * seeds << " (" << cases.size()
            << " cases x " << seeds << " seeds)\nShape check: " << plane.note
            << "\n"
            << plane.name << " gate: " << (pass ? "PASS" : "FAILED") << " ("
            << totals << ")\n\n";
  return pass;
}

}  // namespace

int main() {
  std::vector<std::vector<Case>> grids;
  struct Unit {
    std::size_t plane, c;
    std::uint64_t seed;
  };
  std::vector<Unit> units;
  for (std::size_t p = 0; p < std::size(kPlanes); ++p) {
    grids.push_back(kPlanes[p].grid());
    for (std::size_t c = 0; c < grids[p].size(); ++c)
      for (std::uint64_t s = 0; s < seeds_of(kPlanes[p]); ++s)
        units.push_back({p, c, s});
  }
  std::cout << "Chaos sweep: " << units.size() << " units over "
            << std::size(kPlanes) << " planes, threads=" << threads() << "\n";

  std::vector<Outcome> outcomes(units.size());
  parallel_for(units.size(), [&](std::size_t i) {
    const Unit& u = units[i];
    outcomes[i] = run_unit(kPlanes[u.plane], grids[u.plane][u.c], u.seed);
  });

  bool pass = true;
  const Outcome* next = outcomes.data();
  for (std::size_t p = 0; p < std::size(kPlanes); ++p) {
    pass = report(kPlanes[p], grids[p], next) && pass;
    next += grids[p].size() * seeds_of(kPlanes[p]);
  }
  return pass ? 0 : 1;
}
