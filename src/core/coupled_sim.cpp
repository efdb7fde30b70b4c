#include "core/coupled_sim.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/deadlock.h"
#include "util/error.h"
#include "util/log.h"

namespace cosched {

CoupledSim::CoupledSim(std::vector<DomainSpec> specs,
                       const std::vector<Trace>& traces) {
  COSCHED_CHECK_MSG(specs.size() == traces.size(),
                    "specs/traces arity mismatch");
  COSCHED_CHECK(!specs.empty());

  clusters_.reserve(specs.size());
  for (const DomainSpec& spec : specs) {
    clusters_.push_back(std::make_unique<Cluster>(
        engine_, spec.name, spec.capacity, make_policy(spec.policy),
        spec.cosched, spec.sched, spec.alloc));
  }

  // All-to-all protocol links: every call crosses the full
  // encode/dispatch/decode path through a loopback peer, wrapped in a fault
  // injector.
  links_.resize(specs.size());
  for (std::size_t from = 0; from < specs.size(); ++from) {
    links_[from].resize(specs.size());
    for (std::size_t to = 0; to < specs.size(); ++to) {
      if (from == to) continue;
      links_[from][to] = std::make_unique<FaultInjectingPeer>(
          std::make_unique<LoopbackPeer>(*clusters_[to]), &engine_);
      // After a transport fault the *calling* domain re-examines its queue
      // once the plan's backoff elapses (only plans with retry_backoff > 0
      // ever schedule this).
      links_[from][to]->set_retry_listener(
          [cluster = clusters_[from].get()] { cluster->request_iteration(); });
      clusters_[from]->add_peer(*links_[from][to]);
    }
  }

  for (std::size_t i = 0; i < traces.size(); ++i)
    clusters_[i]->load_trace(traces[i]);
}

FaultInjectingPeer& CoupledSim::link(std::size_t from, std::size_t to) {
  COSCHED_CHECK(from != to);
  return *links_.at(from).at(to);
}

void CoupledSim::set_fault_plan(std::size_t from, std::size_t to,
                                FaultPlan plan) {
  link(from, to).set_plan(std::move(plan));
}

void CoupledSim::set_fault_plan_all(const FaultPlan& plan) {
  // Derive one independent substream per directed link; mixing in the link
  // coordinates keeps the streams decorrelated while remaining a pure
  // function of plan.seed.
  SplitMix64 mix(plan.seed);
  for (std::size_t from = 0; from < links_.size(); ++from) {
    for (std::size_t to = 0; to < links_[from].size(); ++to) {
      if (from == to) continue;
      FaultPlan p = plan;
      p.seed = mix.next() ^ (static_cast<std::uint64_t>(from) << 32 | to);
      links_[from][to]->set_plan(std::move(p));
    }
  }
}

void CoupledSim::set_liveness_all(const CoschedConfig::Liveness& liveness) {
  for (auto& c : clusters_) {
    CoschedConfig cfg = c->config();
    cfg.liveness = liveness;
    c->set_config(cfg);
  }
}

void CoupledSim::set_gang_all(const CoschedConfig::Gang& gang) {
  for (auto& c : clusters_) {
    CoschedConfig cfg = c->config();
    cfg.gang = gang;
    c->set_config(cfg);
  }
}

void CoupledSim::enable_gang_resolution(Duration scan_period) {
  COSCHED_CHECK(scan_period > 0);
  if (gang_scan_period_ > 0) return;
  gang_scan_period_ = scan_period;
  engine_.schedule_at(engine_.now() + scan_period, EventPriority::kMessage,
                      [this] { gang_resolution_body(); });
}

void CoupledSim::gang_resolution_body() {
  // Stop rescheduling once every job finished — otherwise the scan would
  // keep the event queue alive forever and the drain never happens.
  bool active = false;
  for (const auto& c : clusters_) {
    const Scheduler& s = c->scheduler();
    if (s.queue_length() > 0 || s.holding_count() > 0 || s.running_count() > 0)
      active = true;
  }
  if (active) {
    std::vector<const Cluster*> view;
    view.reserve(clusters_.size());
    for (const auto& c : clusters_) view.push_back(c.get());
    const WaitCycle cycle = find_hold_wait_cycle(view);
    if (!cycle.empty()) {
      const WaitEdge victim = choose_victim(cycle, [&](const WaitEdge& e) {
        const RuntimeJob* j = clusters_[e.from]->scheduler().find(e.holding_job);
        return j != nullptr ? j->spec.submit : kNoTime;
      });
      // The domain blocked *on* the victim issues the yield order over its
      // own mesh link, so the command crosses the fault plane and the fence
      // gate like any other side-effecting call.  A lost order is simply
      // retried at the next scan (the cycle persists until acted on).
      std::size_t waiter = victim.to;
      for (const WaitEdge& e : cycle.edges)
        if (e.to == victim.from) waiter = e.from;
      const RuntimeJob* vj =
          clusters_[victim.from]->scheduler().find(victim.holding_job);
      if (vj != nullptr && waiter != victim.from) {
        COSCHED_LOG(kInfo) << "gang resolution: cycle of length "
                           << cycle.length() << ", victim job "
                           << victim.holding_job << " on "
                           << clusters_[victim.from]->name();
        (void)links_[waiter][victim.from]->gang_victim(victim.holding_job,
                                                       vj->spec.group);
      }
    }
    engine_.schedule_at(engine_.now() + gang_scan_period_,
                        EventPriority::kMessage,
                        [this] { gang_resolution_body(); });
  }
}

void CoupledSim::add_partition(std::size_t a, std::size_t b, Time start,
                               Time end) {
  link(a, b).add_outage(start, end);
  link(b, a).add_outage(start, end);
}

void CoupledSim::add_one_way_partition(std::size_t from, std::size_t to,
                                       Time start, Time end) {
  link(from, to).add_outage(start, end);
}

void CoupledSim::add_reply_partition(std::size_t from, std::size_t to,
                                     Time start, Time end) {
  link(from, to).add_reply_outage(start, end);
}

void CoupledSim::schedule_domain_crash(std::size_t domain, Time at,
                                       Time restart_at, bool kill_running) {
  COSCHED_CHECK(domain < clusters_.size());
  COSCHED_CHECK(restart_at == 0 || restart_at > at);
  engine_.schedule_at(at, EventPriority::kMessage, [this, domain,
                                                    kill_running] {
    COSCHED_LOG(kInfo) << clusters_[domain]->name() << ": domain crash at t="
                       << engine_.now();
    // A crashed machine neither answers its peers nor reaches them.
    for (std::size_t other = 0; other < clusters_.size(); ++other) {
      if (other == domain) continue;
      links_[domain][other]->set_crashed(true);
      links_[other][domain]->set_crashed(true);
    }
    if (kill_running) {
      std::vector<JobId> casualties;
      clusters_[domain]->scheduler().for_each_job(
          [&](JobId id, const RuntimeJob& job) {
            if (job.state == JobState::kRunning ||
                job.state == JobState::kHolding)
              casualties.push_back(id);
          });
      for (JobId id : casualties) clusters_[domain]->kill_job(id);
    }
  });
  if (restart_at > 0) {
    engine_.schedule_at(restart_at, EventPriority::kMessage, [this, domain] {
      COSCHED_LOG(kInfo) << clusters_[domain]->name()
                         << ": domain restart at t=" << engine_.now();
      for (std::size_t other = 0; other < clusters_.size(); ++other) {
        if (other == domain) continue;
        links_[domain][other]->set_crashed(false);
        links_[other][domain]->set_crashed(false);
      }
      // Every domain re-evaluates: survivors may have jobs whose mates just
      // came back, and the restarted machine rebuilds its own schedule.
      for (auto& c : clusters_) c->request_iteration();
    });
  }
}

FaultStats CoupledSim::fault_stats() const {
  FaultStats total;
  for (const auto& row : links_)
    for (const auto& l : row)
      if (l) total += l->stats();
  return total;
}

CoupledSim::ProtocolStats CoupledSim::protocol_stats() const {
  ProtocolStats s;
  for (const auto& row : links_) {
    for (const auto& link : row) {
      if (!link) continue;
      const auto* lb = dynamic_cast<const LoopbackPeer*>(&link->inner());
      if (lb == nullptr) continue;
      s.calls += lb->calls();
      s.request_bytes += lb->request_bytes();
      s.response_bytes += lb->response_bytes();
    }
  }
  return s;
}

EventLog& CoupledSim::enable_event_log() {
  if (!event_log_) {
    event_log_ = std::make_unique<EventLog>();
    for (auto& c : clusters_) c->set_event_log(event_log_.get());
  }
  return *event_log_;
}

// -- crash recovery ----------------------------------------------------------

void CoupledSim::enable_journaling(std::uint64_t compact_every) {
  if (!journals_.empty()) return;
  recoveries_.resize(clusters_.size());
  corruptors_.resize(clusters_.size());
  faulty_sinks_.resize(clusters_.size(), nullptr);
  journals_.reserve(clusters_.size());
  for (auto& c : clusters_) {
    journals_.push_back(
        std::make_unique<Journal>(std::make_unique<MemoryJournalSink>()));
    c->set_journal(journals_.back().get(), compact_every);
  }
}

void CoupledSim::enable_faulty_journaling(const StorageFaultPlan& plan,
                                          std::uint64_t compact_every) {
  if (!journals_.empty()) return;
  recoveries_.resize(clusters_.size());
  corruptors_.resize(clusters_.size());
  faulty_sinks_.resize(clusters_.size(), nullptr);
  journals_.reserve(clusters_.size());
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    StorageFaultPlan domain_plan = plan;
    domain_plan.seed = plan.seed + i;  // independent corruption per domain
    auto sink = std::make_unique<FaultyJournalSink>(
        std::make_unique<MemoryJournalSink>(), domain_plan);
    faulty_sinks_[i] = sink.get();
    journals_.push_back(std::make_unique<Journal>(std::move(sink)));
    clusters_[i]->set_journal(journals_.back().get(), compact_every);
  }
}

void CoupledSim::schedule_crash_recovery(std::size_t domain,
                                         std::uint64_t at_seq,
                                         JournalCorruptor corrupt) {
  COSCHED_CHECK(domain < clusters_.size());
  COSCHED_CHECK_MSG(!journals_.empty(),
                    "schedule_crash_recovery needs enable_journaling()");
  corruptors_[domain] = std::move(corrupt);
  journals_[domain]->set_on_commit([this, domain, at_seq](std::uint64_t seq) {
    if (seq < at_seq) return;
    // Disarm first: the crash event itself commits records while recovering.
    journals_[domain]->set_on_commit(nullptr);
    // kMessage priority: the crash lands right after the committing event
    // body, before any same-time scheduling activity.
    engine_.schedule_at(engine_.now(), EventPriority::kMessage,
                        [this, domain] { crash_and_recover(domain); });
  });
}

void CoupledSim::crash_and_recover(std::size_t domain) {
  Journal& journal = *journals_[domain];
  COSCHED_LOG(kInfo) << clusters_[domain]->name()
                     << ": process crash at t=" << engine_.now()
                     << " (durable seq " << journal.last_committed_seq()
                     << ")";
  // Transient read errors (JournalIoError) are retryable by definition: each
  // attempt draws a fresh per-operation fault seed.  Hard-cap the retries so
  // a plan with read_error_probability = 1.0 fails loudly instead of
  // spinning.
  constexpr int kMaxReadRetries = 8;
  int read_retries = 0;
  const auto with_retries = [&](auto&& fn) {
    for (;;) {
      try {
        return fn();
      } catch (const JournalIoError&) {
        COSCHED_CHECK_MSG(++read_retries <= kMaxReadRetries,
                          clusters_[domain]->name()
                              << ": journal unreadable after "
                              << kMaxReadRetries << " retries");
      }
    }
  };

  // The crash loses everything appended but not committed; reopen re-syncs
  // the journal's counters to its durable image.
  with_retries([&] { journal.reopen(); });

  if (corruptors_[domain]) {
    // At-rest corruption lands after the crash, before recovery reads the
    // image back (the corrupt-anywhere harness hook; one shot per arm).
    JournalCorruptor corrupt = std::move(corruptors_[domain]);
    corruptors_[domain] = nullptr;
    std::vector<std::uint8_t> image =
        with_retries([&] { return journal.sink().contents(); });
    corrupt(image);
    journal.sink().reset(std::move(image));
    with_retries([&] { journal.reopen(); });
  }

  recoveries_[domain] = with_retries(
      [&] { return clusters_[domain]->recover_from_journal(journal); });
  recoveries_[domain]->read_retries = read_retries;
  COSCHED_LOG(kInfo) << clusters_[domain]->name() << ": recovered "
                     << recoveries_[domain]->records_replayed
                     << " records, incarnation "
                     << recoveries_[domain]->incarnation;
}

void CoupledSim::snapshot(WireWriter& w) const {
  w.put_i64(engine_.now());
  for (const auto& c : clusters_) c->write_snapshot(w);
}

void CoupledSim::restore(WireReader& r) {
  const Time t = r.get_i64();
  // Apply state first so the trace-submit events re-firing below see their
  // jobs as already known and no-op.
  for (auto& c : clusters_) c->restore_snapshot(r);
  engine_.run_until(t);
  for (auto& c : clusters_) c->rearm_after_restore();
}

SimResult CoupledSim::run(Time max_time) {
  abort_invariants_.reset();
  bool aborted = false;
  try {
    while (engine_.step()) {
      if (max_time > 0 && engine_.now() > max_time) {
        COSCHED_LOG(kWarn) << "simulation aborted at t=" << engine_.now()
                           << " (max_time exceeded)";
        aborted = true;
        break;
      }
    }
  } catch (...) {
    // Even an exceptional exit reports invariants: a half-completed run
    // that leaked nodes or double-started a pair is a second bug worth
    // surfacing next to the thrown one.
    SimResult partial;
    partial.end_time = engine_.now();
    check_invariants(partial, /*aborted=*/true);
    abort_invariants_ = partial.invariants;
    throw;
  }

  SimResult result;
  result.end_time = engine_.now();

  bool all_finished = true;
  std::map<GroupId, std::vector<Time>> group_starts;
  for (const auto& cluster : clusters_) {
    SystemMetrics m = collect_metrics(cluster->scheduler(), result.end_time,
                                      cluster->name());
    m.unknown_status_decisions =
        static_cast<long long>(cluster->unknown_status_decisions());
    m.unsync_starts = static_cast<long long>(cluster->unsync_starts());
    m.degraded_forced_releases =
        static_cast<long long>(cluster->degraded_forced_releases());
    result.systems.push_back(std::move(m));
    cluster->scheduler().for_each_job([&](JobId id, const RuntimeJob& job) {
      (void)id;
      if (job.state != JobState::kFinished) all_finished = false;
      if (job.spec.is_paired())
        group_starts[job.spec.group].push_back(job.start);
    });
  }
  result.completed = all_finished;
  result.deadlocked = !all_finished;
  for (const auto& cluster : clusters_) {
    result.gangs_prepared += cluster->gangs_prepared();
    result.gangs_committed += cluster->gangs_committed();
    result.gangs_aborted += cluster->gangs_aborted();
    result.gangs_resolved_by_victim += cluster->gangs_victimized();
  }
  check_invariants(result, aborted);

  for (const auto& [group, starts] : group_starts) {
    ++result.groups.groups_total;
    if (std::any_of(starts.begin(), starts.end(),
                    [](Time t) { return t == kNoTime; })) {
      ++result.groups.groups_unstarted;
      continue;
    }
    const auto [lo, hi] = std::minmax_element(starts.begin(), starts.end());
    const Duration skew = *hi - *lo;
    result.groups.skew_by_group[group] = skew;
    result.groups.max_start_skew = std::max(result.groups.max_start_skew, skew);
    if (skew == 0) ++result.groups.groups_started_together;
  }
  return result;
}

void CoupledSim::check_invariants(SimResult& result, bool aborted) const {
  auto violate = [&result](std::string msg) {
    result.invariants.violations.push_back(std::move(msg));
  };

  for (const auto& cluster : clusters_) {
    // Node accounting: the pool's busy/held totals must equal the sums over
    // live jobs — a mismatch means a kill/release/finish path leaked nodes.
    // Finished jobs hold no nodes and never wait, so only live jobs are read.
    NodeCount busy_sum = 0, held_sum = 0;
    for (const RuntimeJob* live : cluster->scheduler().live_by_id()) {
      const RuntimeJob& job = *live;
      const JobId id = job.spec.id;
      if (job.state == JobState::kRunning) busy_sum += job.allocated;
      if (job.state == JobState::kHolding) held_sum += job.allocated;
      // Waits-forever: the event queue drained on its own, yet this job is
      // still waiting.  (On paired schemes without the release enhancement
      // this is the hold-hold deadlock the paper describes.)
      if (!aborted && (job.state == JobState::kQueued ||
                       job.state == JobState::kHolding)) {
        ++result.invariants.jobs_waiting_forever;
        violate("job " + std::to_string(id) + " on " + cluster->name() +
                " waits forever (state=" +
                (job.state == JobState::kQueued ? "queued" : "holding") + ")");
      }
    }
    const auto& pool = cluster->scheduler().pool();
    if (pool.busy() != busy_sum || pool.held() != held_sum) {
      ++result.invariants.node_accounting_leaks;
      violate(cluster->name() + " node leak: pool busy/held " +
              std::to_string(pool.busy()) + "/" + std::to_string(pool.held()) +
              " vs job sums " + std::to_string(busy_sum) + "/" +
              std::to_string(held_sum));
    }

    // Liveness invariants (both zero unless the liveness layer is on).
    const std::uint64_t overdue =
        cluster->lease_expiry_violations(engine_.now());
    if (overdue > 0) {
      result.invariants.lease_expiry_violations +=
          static_cast<std::size_t>(overdue);
      violate(cluster->name() + ": " + std::to_string(overdue) +
              " lease(s) held past expiry + grace");
    }
    if (cluster->stale_fence_starts() > 0) {
      result.invariants.stale_fence_starts +=
          static_cast<std::size_t>(cluster->stale_fence_starts());
      violate(cluster->name() + ": " +
              std::to_string(cluster->stale_fence_starts()) +
              " start(s) executed under a stale fencing token");
    }

    // Storage fault plane alarms — surfaced, never counted as violations
    // (see InvariantReport).
    result.invariants.storage_enospc_events +=
        static_cast<std::size_t>(cluster->storage_enospc_events());
    result.invariants.storage_emergency_compactions +=
        static_cast<std::size_t>(cluster->storage_emergency_compactions());
    if (cluster->journal_degraded())
      ++result.invariants.storage_degraded_domains;
  }

  // k-of-N gang atomicity: once any member of a group starts through a gang
  // commit, every member must eventually start.  Checked only at a
  // non-aborted drain — an aborted run may legitimately stop mid-gang, and
  // a member whose commit was lost re-enters the queue once its prepare
  // lease expires, so by drain time it either started or the gang leaked.
  if (!aborted) {
    std::map<GroupId, std::pair<bool, bool>> gangs;  // {committed, unstarted}
    for (const auto& cluster : clusters_) {
      const auto& committed = cluster->gang_started_jobs();
      cluster->scheduler().for_each_job([&](JobId id, const RuntimeJob& job) {
        if (!job.spec.is_paired()) return;
        auto& flags = gangs[job.spec.group];
        if (committed.count(id) > 0) flags.first = true;
        if (job.start == kNoTime) flags.second = true;
      });
    }
    for (const auto& [group, flags] : gangs) {
      if (flags.first && flags.second) {
        ++result.invariants.gang_atomicity_violations;
        violate("group " + std::to_string(group) +
                " committed a gang start but left a member unstarted");
      }
    }
  }

  // Double starts are only observable from the lifecycle log.
  if (event_log_) {
    std::map<JobId, std::size_t> starts;
    for (const JobEvent& e : event_log_->events())
      if (e.kind == JobEventKind::kStart) ++starts[e.job];
    for (const auto& [job, n] : starts) {
      if (n > 1) {
        ++result.invariants.double_starts;
        violate("job " + std::to_string(job) + " started " +
                std::to_string(n) + " times");
      }
    }
  }
}

std::uint64_t determinism_fingerprint(CoupledSim& sim) {
  struct Rec {
    JobId id;
    Time start, end;
    int yields, releases;
  };
  std::vector<Rec> recs;
  for (std::size_t d = 0; d < sim.size(); ++d) {
    sim.cluster(d).scheduler().for_each_job([&](JobId id, const RuntimeJob& j) {
      recs.push_back(Rec{id, j.start, j.end, j.yield_count, j.forced_releases});
    });
  }
  std::sort(recs.begin(), recs.end(),
            [](const Rec& a, const Rec& b) { return a.id < b.id; });
  auto fnv = [](std::uint64_t h, std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
    return h;
  };
  std::uint64_t h = 1469598103934665603ULL;
  for (const Rec& r : recs) {
    h = fnv(h, static_cast<std::uint64_t>(r.id));
    h = fnv(h, static_cast<std::uint64_t>(r.start));
    h = fnv(h, static_cast<std::uint64_t>(r.end));
    h = fnv(h, static_cast<std::uint64_t>(r.yields));
    h = fnv(h, static_cast<std::uint64_t>(r.releases));
  }
  return h;
}

std::vector<DomainSpec> make_coupled_specs(const std::string& name_a,
                                           NodeCount capacity_a,
                                           const std::string& name_b,
                                           NodeCount capacity_b,
                                           SchemeCombo combo,
                                           bool cosched_enabled,
                                           Duration hold_release_period) {
  DomainSpec a;
  a.name = name_a;
  a.capacity = capacity_a;
  a.cosched.enabled = cosched_enabled;
  a.cosched.scheme = combo.first;
  a.cosched.hold_release_period = hold_release_period;

  DomainSpec b;
  b.name = name_b;
  b.capacity = capacity_b;
  b.cosched.enabled = cosched_enabled;
  b.cosched.scheme = combo.second;
  b.cosched.hold_release_period = hold_release_period;

  return {a, b};
}

}  // namespace cosched
