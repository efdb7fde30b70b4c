#include "core/cluster.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "proto/message.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace cosched {

void Cluster::track_dependency(const JobSpec& spec) {
  if (!spec.has_dependency()) return;
  // Dependency already finished: schedule the delayed wake directly (the
  // finish-side drain will never see this dependent).
  const std::optional<RuntimeJob> dep = sched_.lookup(spec.after);
  if (dep && dep->state == JobState::kFinished) {
    const Time ready_at =
        std::max(engine_.now(), dep->end + spec.after_delay);
    engine_.schedule_at(ready_at, EventPriority::kSchedule,
                        [this] { request_iteration(); });
    return;
  }
  dependents_.emplace(spec.after, std::make_pair(spec.id, spec.after_delay));
}

namespace {

/// RAII commit marker: while a job is deciding/starting, peers that query it
/// see `starting`, which Algorithm 1 treats like `holding` (ready).
class CommitGuard {
 public:
  CommitGuard(std::unordered_set<JobId>& set, JobId id) : set_(set), id_(id) {
    set_.insert(id_);
  }
  ~CommitGuard() { set_.erase(id_); }
  CommitGuard(const CommitGuard&) = delete;
  CommitGuard& operator=(const CommitGuard&) = delete;

 private:
  std::unordered_set<JobId>& set_;
  JobId id_;
};

}  // namespace

Cluster::Cluster(Engine& engine, std::string name, NodeCount capacity,
                 std::unique_ptr<PriorityPolicy> policy, CoschedConfig cosched,
                 SchedulerConfig sched_config,
                 std::shared_ptr<const AllocationModel> alloc)
    : engine_(engine),
      name_(std::move(name)),
      source_(engine.register_source()),
      cfg_(cosched),
      sched_cfg_(sched_config),
      sched_(capacity, std::move(policy), sched_config, std::move(alloc)) {
  sched_.set_on_start([this](const RuntimeJob& job) { on_job_started(job); });
}

void Cluster::arm_periodic_iteration() {
  if (sched_cfg_.iteration_period <= 0 || periodic_armed_) return;
  periodic_armed_ = true;
  periodic_at_ = engine_.now() + sched_cfg_.iteration_period;
  if (journaling()) {
    WireWriter w;
    w.put_i64(periodic_at_);
    journal_->append(JournalRecordKind::kPeriodicArmed, w.bytes());
  }
  periodic_event_ = engine_.schedule_at(periodic_at_, EventPriority::kStats,
                                        [this] { periodic_body(); });
}

void Cluster::periodic_body() {
  periodic_event_.reset();
  periodic_armed_ = false;
  periodic_at_ = kNoTime;
  const bool work_left = sched_.queue_length() > 0 ||
                         sched_.running_count() > 0 ||
                         sched_.holding_count() > 0;
  if (!work_left) return;  // go quiescent; submits re-arm
  request_iteration();
  arm_periodic_iteration();
  journal_commit();
}

void Cluster::add_peer(PeerClient& peer) {
  peers_.push_back(&peer);
  peer_state_.push_back(PeerState{
      FailureDetector(cfg_.liveness.heartbeat_period, engine_.now()),
      HeartbeatInfo{}, false});
}

void Cluster::register_expected(const JobSpec& spec) {
  COSCHED_CHECK(spec.is_paired());
  auto [it, inserted] = group_to_job_.emplace(spec.group, spec.id);
  COSCHED_CHECK_MSG(inserted || it->second == spec.id,
                    "group " << spec.group << " already has local member "
                             << it->second << " on " << name_);
  expected_.emplace(spec.id, spec);
  if (journaling()) {
    WireWriter w;
    encode_job_spec(w, spec);
    journal_->append(JournalRecordKind::kExpected, w.bytes());
    journal_commit();
  }
}

void Cluster::do_submit(const JobSpec& spec) {
  if (spec.is_paired() && !group_to_job_.count(spec.group))
    group_to_job_.emplace(spec.group, spec.id);
  expected_.erase(spec.id);
  sched_.submit(spec, engine_.now());
  track_dependency(spec);
  arm_periodic_iteration();
  arm_liveness_tick();
  if (journaling()) {
    WireWriter w;
    encode_job_spec(w, spec);
    w.put_i64(engine_.now());
    journal_->append(JournalRecordKind::kSubmit, w.bytes());
  }
  log_event(JobEventKind::kSubmit, spec);
  request_iteration();
}

void Cluster::load_trace(const Trace& trace) {
  for (const JobSpec& spec : trace.jobs()) {
    if (spec.is_paired()) register_expected(spec);
    engine_.schedule_at(spec.submit, EventPriority::kJobSubmit, [this, spec] {
      // A snapshot restore may already carry this job: the submit event
      // survives the crash (it is untracked) and must re-fire as a no-op.
      if (sched_.find(spec.id) != nullptr || sched_.is_finished(spec.id))
        return;
      do_submit(spec);
      journal_commit();
    });
  }
}

void Cluster::submit_now(const JobSpec& spec) {
  do_submit(spec);
  journal_commit();
}

void Cluster::kill_job(JobId id) {
  const RuntimeJob* j = sched_.find(id);
  if (j == nullptr) return;  // unknown or already finished
  const JobSpec spec = j->spec;  // kill() archives the job: j dangles
  sched_.kill(id, engine_.now());
  // The stale completion event stays armed (its body is state-guarded) so
  // the engine's drain time matches a run without the kill; only the
  // tracking entry goes.
  completion_events_.erase(id);
  if (journaling()) {
    WireWriter w;
    w.put_i64(id);
    w.put_i64(engine_.now());
    journal_->append(JournalRecordKind::kKill, w.bytes());
  }
  leases_.erase(id);
  gang_prepared_.erase(id);
  gang_backoff_until_.erase(id);
  gang_attempts_.erase(id);
  log_event(JobEventKind::kFinish, spec);
  request_iteration();
  journal_commit();
}

void Cluster::request_iteration() {
  if (iteration_pending_) return;
  iteration_pending_ = true;
  if (journaling()) {
    // Committed immediately: this can be the only record of an entry point
    // (e.g. a transport retry listener), and losing it would silently drop
    // the armed iteration on recovery.
    WireWriter w;
    w.put_i64(engine_.now());
    journal_->append(JournalRecordKind::kIterArmed, w.bytes());
    journal_->commit();
  }
  iteration_event_ = engine_.schedule_at(
      engine_.now(), EventPriority::kSchedule, [this] { run_iteration_body(); });
}

void Cluster::run_iteration_body() {
  iteration_event_.reset();
  iteration_pending_ = false;
  ++iterations_run_;
  sched_.iterate(engine_.now(), [this](RuntimeJob& job) {
    return run_job_hook(job, /*try_context=*/false);
  });
  if (journaling()) {
    WireWriter w;
    w.put_i64(engine_.now());
    journal_->append(JournalRecordKind::kIterate, w.bytes());
  }
  journal_commit();
}

// -- CoschedService ---------------------------------------------------------

std::optional<JobId> Cluster::get_mate_job(GroupId group, JobId asking) {
  (void)asking;
  auto it = group_to_job_.find(group);
  if (it == group_to_job_.end()) return std::nullopt;
  return it->second;
}

MateStatus Cluster::get_mate_status(JobId job) {
  if (committing_.count(job)) return MateStatus::kStarting;
  const RuntimeJob* j = sched_.find(job);
  if (!j) {
    if (sched_.is_finished(job)) return MateStatus::kFinished;
    return expected_.count(job) ? MateStatus::kUnsubmitted
                                : MateStatus::kUnknown;
  }
  switch (j->state) {
    case JobState::kQueued: return MateStatus::kQueuing;
    case JobState::kHolding: return MateStatus::kHolding;
    case JobState::kRunning: return MateStatus::kRunning;
    case JobState::kFinished: return MateStatus::kFinished;
  }
  return MateStatus::kUnknown;
}

bool Cluster::try_start_mate(JobId job) {
  // Tripwire behind the no-start-with-stale-fence invariant: the dispatcher
  // must not reach this method after admit_fence() said "stale".
  if (job == pending_stale_fence_) ++stale_fence_starts_;
  pending_stale_fence_ = kNoJob;
  ++try_start_requests_;
  if (!sched_.find(job)) return false;  // unsubmitted or unknown: cannot start
  const bool started =
      sched_.try_start_specific(job, engine_.now(), [this](RuntimeJob& j) {
        return run_job_hook(j, /*try_context=*/true);
      });
  journal_commit();
  return started;
}

bool Cluster::start_job(JobId job) {
  if (job == pending_stale_fence_) ++stale_fence_starts_;
  pending_stale_fence_ = kNoJob;
  const RuntimeJob* j = sched_.find(job);
  if (!j || j->state != JobState::kHolding) return false;
  starting_from_hold_ = true;
  // cosched-lint: allow(journal-before-mutate) kStart journaled by on_job_started
  sched_.start_holding(job, engine_.now());
  starting_from_hold_ = false;
  journal_commit();
  return true;
}

// -- Algorithm 1 --------------------------------------------------------------

RunDecision Cluster::run_job_hook(RuntimeJob& job, bool try_context) {
  if (ready_logged_.insert(job.spec.id)) {
    log_event(JobEventKind::kReady, job.spec);
    if (journaling()) {
      WireWriter w;
      w.put_i64(job.spec.id);
      w.put_i64(job.first_ready);
      journal_->append(JournalRecordKind::kReady, w.bytes());
    }
  }
  if (!journaling()) return run_job_decision(job, try_context);

  // The decision path may talk to peers and flip degraded-mode state; diff
  // it around the call so replay reproduces the §IV-C bookkeeping exactly.
  const std::uint64_t unknown_before = unknown_status_decisions_;
  const std::uint64_t suspected_before = suspected_status_decisions_;
  const bool fault_before = fault_seen_.count(job.spec.id) > 0;
  const bool unsync_before = unsync_pending_.count(job.spec.id) > 0;
  const RunDecision d = run_job_decision(job, try_context);
  const std::uint64_t unknown_delta =
      unknown_status_decisions_ - unknown_before;
  const std::uint64_t suspected_delta =
      suspected_status_decisions_ - suspected_before;
  const bool fault_now = fault_seen_.count(job.spec.id) > 0;
  const bool unsync_now = unsync_pending_.count(job.spec.id) > 0;
  if (unknown_delta != 0 || suspected_delta != 0 ||
      fault_now != fault_before || unsync_now != unsync_before) {
    WireWriter w;
    w.put_i64(job.spec.id);
    w.put_u64(unknown_delta);
    w.put_bool(fault_now);
    w.put_bool(unsync_now);
    w.put_u64(suspected_delta);
    journal_->append(JournalRecordKind::kDegraded, w.bytes());
  }
  return d;
}

RunDecision Cluster::run_job_decision(RuntimeJob& job, bool try_context) {
  blocking_peer_ = -1;

  // Lines 33-36: coscheduling disabled, or a regular job: start normally.
  if (!cfg_.enabled || !job.spec.is_paired()) return RunDecision::kStart;

  // A gang job inside its re-prepare backoff window yields without touching
  // peers (jittered backoff after an aborted round or a victim order).
  if (gang_on()) {
    const auto bo = gang_backoff_until_.find(job.spec.id);
    if (bo != gang_backoff_until_.end() && engine_.now() < bo->second)
      return scheme_decision(job, try_context, Scheme::kYield);
  }

  // Line 2: locate the mate on each peer.  A peer that is down, or has no
  // member of this group, does not constrain the job (lines 30-31).
  using MateRef = GangMate;
  bool transport_fault = false;
  std::int32_t suspect_peer = -1;  // a suspected peer we could not consult
  std::vector<MateRef> mates;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    // A confirmed-dead peer is not consulted: the detector already holds the
    // answer the transport would eventually fail its way to (§IV-C: remote
    // down, mate unknown — do not block the local job).
    if (liveness_on() && peer_health(i) == PeerHealth::kDead) {
      transport_fault = true;
      ++unknown_status_decisions_;
      continue;
    }
    const auto found = peers_[i]->get_mate_job(job.spec.group, job.spec.id);
    if (!found) {
      if (liveness_on() && peer_health(i) == PeerHealth::kSuspect) {
        // Unreachable but not yet confirmed dead: await confirmation under
        // the local scheme instead of starting unsynchronized right away.
        ++suspected_status_decisions_;
        if (suspect_peer < 0) suspect_peer = static_cast<std::int32_t>(i);
      } else {
        transport_fault = true;
        ++unknown_status_decisions_;
      }
      continue;
    }
    if (!*found) continue;
    mates.push_back(MateRef{peers_[i], static_cast<std::int32_t>(i), **found});
  }
  if (mates.empty()) {
    if (suspect_peer >= 0) {
      blocking_peer_ = suspect_peer;
      return scheme_decision(job, try_context);
    }
    if (transport_fault) unsync_pending_.insert(job.spec.id);
    return RunDecision::kStart;
  }

  CommitGuard commit(committing_, job.spec.id);

  // Lines 4-27: classify each mate.
  std::vector<MateRef> holding, not_ready, suspected;
  std::int32_t unsubmitted_peer = -1;
  for (const MateRef& m : mates) {
    const auto status_reply = m.peer->get_mate_status(m.id);
    MateStatus status;
    if (!status_reply) {
      if (liveness_on() &&
          peer_health(static_cast<std::size_t>(m.peer_index)) ==
              PeerHealth::kSuspect) {
        // The failure is not confirmed yet: treat the silent mate as
        // `suspected` and fall back to the local scheme (hold/yield) rather
        // than start unsynchronized on what may be a transient partition.
        ++suspected_status_decisions_;
        status = MateStatus::kSuspected;
      } else {
        transport_fault = true;
        ++unknown_status_decisions_;
        status = MateStatus::kUnknown;
      }
    } else {
      status = *status_reply;
    }
    switch (status) {
      case MateStatus::kHolding:
        holding.push_back(m);
        break;
      case MateStatus::kStarting:
        break;  // committed by its own Run_Job; it will start with us
      case MateStatus::kQueuing:
        not_ready.push_back(m);
        break;
      case MateStatus::kUnsubmitted:
        not_ready.push_back(m);
        if (unsubmitted_peer < 0) unsubmitted_peer = m.peer_index;
        break;
      case MateStatus::kSuspected:
        suspected.push_back(m);
        break;
      case MateStatus::kRunning:
      case MateStatus::kFinished:
      case MateStatus::kUnknown:
        // Line 25-26: mate failed/unknowable — start the local job normally
        // rather than wait forever.
        break;
    }
  }

  // -- k-of-N two-phase gang costart (>= 3 domains, gang.two_phase on) -----
  // The recursive tryStartMate chain commits one member at a time; a crash
  // or partition mid-chain strands a partial gang.  The two-phase path first
  // places *every* member into a fenced leased hold (prepare), then starts
  // them all (commit) — any failure aborts the round and releases every
  // prepared hold.  Two-domain groups keep the paper's Algorithm-1 chain.
  if (gang_on() && !try_context && mates.size() >= 2) {
    if (!suspected.empty() || suspect_peer >= 0) {
      blocking_peer_ =
          !suspected.empty() ? suspected.front().peer_index : suspect_peer;
      return scheme_decision(job, try_context);
    }
    if (unsubmitted_peer >= 0) {
      // A member is not in its queue yet; there is nothing to prepare.
      blocking_peer_ = unsubmitted_peer;
      return scheme_decision(job, try_context);
    }
    std::vector<MateRef> members = holding;
    members.insert(members.end(), not_ready.begin(), not_ready.end());
    std::sort(members.begin(), members.end(),
              [](const MateRef& a, const MateRef& b) {
                return a.peer_index < b.peer_index;
              });
    const RunDecision d = gang_costart(job, members, transport_fault);
    if (d == RunDecision::kStart && transport_fault)
      unsync_pending_.insert(job.spec.id);
    return d;
  }

  if (!not_ready.empty()) {
    // Lines 10-23: ask the first unready mate's domain to run an additional
    // scheduling iteration.  Its own Run_Job (seeing us as `starting`)
    // recursively extends the chain to any further domains, so one call
    // suffices; `false` means the mate could not start now.
    const auto started = not_ready.front().peer->try_start_mate(
        not_ready.front().id);
    if (!started) {
      transport_fault = true;
      ++unknown_status_decisions_;
    }
    if (started.has_value() && !*started) {
      if (transport_fault) fault_seen_.insert(job.spec.id);
      blocking_peer_ = not_ready.front().peer_index;
      return scheme_decision(job, try_context);
    }
    // Transport failure counts as unknown: do not block the local job.
  }

  if (not_ready.empty() && (!suspected.empty() || suspect_peer >= 0)) {
    // Every reachable mate is ready but at least one lives on a suspected
    // domain: await confirmation under the local scheme instead of waking
    // holders into a possibly half-dead group.
    blocking_peer_ =
        !suspected.empty() ? suspected.front().peer_index : suspect_peer;
    return scheme_decision(job, try_context);
  }

  // Lines 6-8: everyone is ready; wake the holding mates and start.
  for (const MateRef& m : holding) {
    const auto woke = m.peer->start_job(m.id);
    if (!woke) {
      // The wake-up itself was lost: our mate stays holding while we run —
      // the quintessential unsynchronized start.
      transport_fault = true;
      ++unknown_status_decisions_;
    } else if (!*woke) {
      COSCHED_LOG(kDebug) << name_ << ": mate " << m.id
                          << " was no longer holding at start";
    }
  }
  if (transport_fault) unsync_pending_.insert(job.spec.id);
  return RunDecision::kStart;
}

RunDecision Cluster::scheme_decision(RuntimeJob& job, bool try_context,
                                     std::optional<Scheme> force) {
  // Under a remote tryStartMate the job must start or decline; holding or
  // yielding inside someone else's iteration would corrupt their queue pass.
  if (try_context) return RunDecision::kSkip;

  Scheme scheme = force.value_or(cfg_.scheme);

  // §IV-E2: a job that yielded too many times escalates to hold.  The
  // escalation never applies to a forced yield (gang backoff): escalating
  // a backoff into a hold would recreate the deadlock being resolved.
  if (!force && scheme == Scheme::kYield && cfg_.max_yield_before_hold > 0 &&
      job.yield_count >= cfg_.max_yield_before_hold)
    scheme = Scheme::kHold;

  // §IV-E2: cap the fraction of the machine allowed to sit in hold state.
  if (scheme == Scheme::kHold) {
    const auto& pool = sched_.pool();
    const double would_hold =
        static_cast<double>(pool.held() + job.allocated);
    if (would_hold >
        cfg_.max_hold_fraction * static_cast<double>(pool.capacity()))
      scheme = Scheme::kYield;
  }

  if (scheme == Scheme::kHold) {
    schedule_hold_release(job.spec.id);
    if (journaling()) {
      WireWriter w;
      w.put_i64(job.spec.id);
      w.put_i64(engine_.now());
      w.put_i64(job.first_ready);
      w.put_i64(job.allocated);
      journal_->append(JournalRecordKind::kHold, w.bytes());
    }
    log_event(JobEventKind::kHold, job.spec);
    if (liveness_on()) grant_lease(job.spec.id, blocking_peer_);
    return RunDecision::kHold;
  }
  job.priority_boost += cfg_.yield_priority_boost;
  schedule_yield_retry(job.spec.id);
  if (journaling()) {
    WireWriter w;
    w.put_i64(job.spec.id);
    w.put_i64(engine_.now());
    w.put_i64(job.first_ready);
    w.put_double(job.priority_boost);  // absolute, so replay is idempotent
    journal_->append(JournalRecordKind::kYield, w.bytes());
  }
  log_event(JobEventKind::kYield, job.spec);
  return RunDecision::kYield;
}

// -- k-of-N gang costart (two-phase, fenced) ----------------------------------

Duration Cluster::gang_backoff(JobId job, std::uint32_t attempt) const {
  const Duration base = std::max<Duration>(1, cfg_.gang.backoff_base);
  const std::uint32_t exp =
      std::min<std::uint32_t>(attempt > 0 ? attempt - 1 : 0, 6);
  Duration d = base << exp;
  // Jitter is a pure function of (seed, job, attempt): deterministic across
  // runs and replays, yet decorrelated between the gangs of a wait cycle so
  // they do not re-prepare in lockstep forever.
  SplitMix64 mix(cfg_.gang.seed ^
                 (static_cast<std::uint64_t>(job) * 0x9e3779b97f4a7c15ULL) ^
                 attempt);
  d += static_cast<Duration>(mix.next() % static_cast<std::uint64_t>(base));
  if (cfg_.gang.backoff_cap > 0 && d > cfg_.gang.backoff_cap)
    d = cfg_.gang.backoff_cap;
  return d;
}

RunDecision Cluster::gang_hold_hook(RuntimeJob& job) {
  if (ready_logged_.insert(job.spec.id)) {
    log_event(JobEventKind::kReady, job.spec);
    if (journaling()) {
      WireWriter w;
      w.put_i64(job.spec.id);
      w.put_i64(job.first_ready);
      journal_->append(JournalRecordKind::kReady, w.bytes());
    }
  }
  schedule_hold_release(job.spec.id);
  if (journaling()) {
    WireWriter w;
    w.put_i64(job.spec.id);
    w.put_i64(engine_.now());
    w.put_i64(job.first_ready);
    w.put_i64(job.allocated);
    journal_->append(JournalRecordKind::kHold, w.bytes());
  }
  log_event(JobEventKind::kHold, job.spec);
  // The prepared hold's lease has no renewal source (peer = -1): unless a
  // commit lands, it expires after lease_duration and the fencing epoch
  // advances — a partitioned coordinator can neither keep these nodes past
  // the lease nor commit with its stale token once the partition heals.
  if (liveness_on()) grant_lease(job.spec.id, /*peer=*/-1);
  return RunDecision::kHold;
}

RunDecision Cluster::gang_costart(RuntimeJob& job,
                                  const std::vector<GangMate>& members,
                                  bool& transport_fault) {
  const GroupId group = job.spec.group;

  // Phase 1 — prepare: place every member into a fenced leased hold.
  std::vector<GangMate> prepared;
  std::int32_t failed_peer = -1;
  for (const GangMate& m : members) {
    const auto ok = m.peer->gang_prepare(m.id, group);
    if (!ok) {
      transport_fault = true;
      ++unknown_status_decisions_;
    }
    if (!ok || !*ok) {
      failed_peer = m.peer_index;
      break;
    }
    prepared.push_back(m);
  }

  if (failed_peer >= 0) {
    // Abort: release every hold this round placed, then back off before
    // re-preparing so the gangs of a wait cycle do not livelock
    // re-acquiring each other's nodes.
    for (const GangMate& m : prepared) {
      const auto released = m.peer->gang_abort(m.id, group);
      if (!released) {
        // The member keeps its prepared hold, but its self-expiring lease
        // returns the nodes at expiry — the fencing guarantee.
        transport_fault = true;
        ++unknown_status_decisions_;
      }
    }
    const auto ait = gang_attempts_.find(job.spec.id);
    const std::uint32_t attempt =
        (ait == gang_attempts_.end() ? 0u : ait->second) + 1;
    const Time until = engine_.now() + gang_backoff(job.spec.id, attempt);
    if (journaling()) {
      WireWriter w;
      w.put_i64(job.spec.id);
      w.put_i64(group);
      w.put_i64(engine_.now());
      w.put_bool(true);  // coordinator-side round abort
      w.put_u64(attempt);
      w.put_i64(until);
      journal_->append(JournalRecordKind::kGangAbort, w.bytes());
    }
    gang_attempts_[job.spec.id] = attempt;
    gang_backoff_until_[job.spec.id] = until;
    ++gangs_aborted_;
    if (transport_fault) fault_seen_.insert(job.spec.id);
    blocking_peer_ = failed_peer;
    return scheme_decision(job, /*try_context=*/false, Scheme::kYield);
  }

  // Phase 2 — commit: start every prepared member, then the local job.  A
  // lost commit cannot strand its member: the prepared hold's lease
  // expires, the member requeues, and its own Run_Job sees the rest of the
  // gang running and starts it (§IV-C unknown rule) — eventual completion.
  for (const GangMate& m : prepared) {
    const auto started = m.peer->gang_commit(m.id, group);
    if (!started) {
      transport_fault = true;
      ++unknown_status_decisions_;
    } else if (!*started) {
      COSCHED_LOG(kDebug) << name_ << ": gang member " << m.id
                          << " was no longer prepared at commit";
    }
  }
  if (journaling()) {
    WireWriter w;
    w.put_i64(job.spec.id);
    w.put_i64(group);
    w.put_i64(engine_.now());
    w.put_bool(true);  // coordinator-side commit
    w.put_u64(0);
    w.put_i64(kNoTime);
    journal_->append(JournalRecordKind::kGangCommit, w.bytes());
  }
  gang_started_.insert(job.spec.id);
  ++gangs_committed_;
  return RunDecision::kStart;
}

bool Cluster::gang_prepare(JobId job, GroupId group) {
  pending_stale_fence_ = kNoJob;
  if (!cfg_.enabled) return false;
  const RuntimeJob* j = sched_.find(job);
  if (j == nullptr) return false;
  if (j->state == JobState::kHolding) {
    // Idempotent re-prepare (coordinator retry after a lost reply, or the
    // member already held under its own scheme): refresh the self-expiring
    // lease so the hold is fenced, and report success.
    if (gang_prepared_.insert(job).second) {
      if (journaling()) {
        WireWriter w;
        w.put_i64(job);
        w.put_i64(group);
        w.put_i64(engine_.now());
        journal_->append(JournalRecordKind::kGangPrepare, w.bytes());
      }
      ++gangs_prepared_;
    }
    if (liveness_on()) grant_lease(job, /*peer=*/-1);
    journal_commit();
    return true;
  }
  if (j->state != JobState::kQueued) return false;
  sched_.try_start_specific(job, engine_.now(), [this](RuntimeJob& jj) {
    return gang_hold_hook(jj);
  });
  const RuntimeJob* after = sched_.find(job);
  if (after == nullptr || after->state != JobState::kHolding) {
    // Not enough free nodes (or not eligible yet): the coordinator aborts
    // the round and backs off.
    journal_commit();
    return false;
  }
  if (journaling()) {
    WireWriter w;
    w.put_i64(job);
    w.put_i64(group);
    w.put_i64(engine_.now());
    journal_->append(JournalRecordKind::kGangPrepare, w.bytes());
  }
  gang_prepared_.insert(job);
  ++gangs_prepared_;
  journal_commit();
  return true;
}

bool Cluster::gang_commit(JobId job, GroupId group) {
  // Tripwire parity with start_job: the dispatcher must not reach a gang
  // start after admit_fence() said "stale".
  if (job == pending_stale_fence_) ++stale_fence_starts_;
  pending_stale_fence_ = kNoJob;
  const RuntimeJob* j = sched_.find(job);
  if (j == nullptr || j->state != JobState::kHolding) return false;
  if (journaling()) {
    WireWriter w;
    w.put_i64(job);
    w.put_i64(group);
    w.put_i64(engine_.now());
    w.put_bool(false);  // member-side commit
    w.put_u64(0);
    w.put_i64(kNoTime);
    journal_->append(JournalRecordKind::kGangCommit, w.bytes());
  }
  gang_prepared_.erase(job);
  gang_started_.insert(job);
  starting_from_hold_ = true;
  sched_.start_holding(job, engine_.now());
  starting_from_hold_ = false;
  journal_commit();
  return true;
}

bool Cluster::gang_abort(JobId job, GroupId group) {
  pending_stale_fence_ = kNoJob;
  if (gang_prepared_.count(job) == 0) return false;
  const Time now = engine_.now();
  if (journaling()) {
    WireWriter w;
    w.put_i64(job);
    w.put_i64(group);
    w.put_i64(now);
    w.put_bool(false);  // member-side hold release
    w.put_u64(0);
    w.put_i64(kNoTime);
    journal_->append(JournalRecordKind::kGangAbort, w.bytes());
    if (liveness_on() && leases_.count(job) > 0) {
      // Abort advances the fencing epoch just like a lease expiry: any
      // in-flight commit stamped under the prepared epoch is now stale.
      WireWriter f;
      f.put_u64(static_cast<std::uint64_t>(fence_counter_) + 1);
      journal_->append(JournalRecordKind::kLeaseFence, f.bytes());
    }
  }
  gang_prepared_.erase(job);
  if (liveness_on() && leases_.erase(job) > 0) ++fence_counter_;
  const RuntimeJob* j = sched_.find(job);
  if (j != nullptr && j->state == JobState::kHolding) {
    sched_.release_hold(job, now);
    if (const RuntimeJob* released = sched_.find(job))
      log_event(JobEventKind::kHoldRelease, released->spec);
    request_iteration();
  }
  journal_commit();
  return true;
}

bool Cluster::gang_victim(JobId job, GroupId group) {
  pending_stale_fence_ = kNoJob;
  const RuntimeJob* j = sched_.find(job);
  if (j == nullptr || j->state != JobState::kHolding) return false;
  const Time now = engine_.now();
  const auto ait = gang_attempts_.find(job);
  const std::uint32_t attempt =
      (ait == gang_attempts_.end() ? 0u : ait->second) + 1;
  const Time until = now + gang_backoff(job, attempt);
  if (journaling()) {
    WireWriter w;
    w.put_i64(job);
    w.put_i64(group);
    w.put_i64(now);
    w.put_u64(attempt);
    w.put_i64(until);
    journal_->append(JournalRecordKind::kGangVictim, w.bytes());
    if (liveness_on() && leases_.count(job) > 0) {
      WireWriter f;
      f.put_u64(static_cast<std::uint64_t>(fence_counter_) + 1);
      journal_->append(JournalRecordKind::kLeaseFence, f.bytes());
    }
  }
  gang_attempts_[job] = attempt;
  gang_backoff_until_[job] = until;
  gang_prepared_.erase(job);
  ++gangs_victimized_;
  if (liveness_on() && leases_.erase(job) > 0) ++fence_counter_;
  sched_.release_hold(job, now);
  if (const RuntimeJob* released = sched_.find(job))
    log_event(JobEventKind::kHoldRelease, released->spec);
  request_iteration();
  journal_commit();
  return true;
}

// -- events -------------------------------------------------------------------

void Cluster::on_job_started(const RuntimeJob& job) {
  const JobId id = job.spec.id;
  const bool was_unsync = unsync_pending_.erase(id) > 0;
  if (was_unsync) ++unsync_starts_;
  fault_seen_.erase(id);
  // A start retires the job's gang bookkeeping (gang_started_ is permanent:
  // it witnesses the atomicity invariant).  Before the replay check so a
  // replayed kStart clears exactly what the live start cleared.
  gang_prepared_.erase(id);
  gang_backoff_until_.erase(id);
  gang_attempts_.erase(id);
  // During journal replay the start came from a kStart record: the degraded
  // bookkeeping above still applies (driven by replayed kDegraded state),
  // but events, records, and timers are reconstructed elsewhere.
  if (replaying_) return;
  log_event(JobEventKind::kStart, job.spec);
  if (was_unsync) log_event(JobEventKind::kUnsyncStart, job.spec);
  if (journaling()) {
    WireWriter w;
    w.put_i64(id);
    w.put_i64(engine_.now());
    w.put_i64(job.first_ready);
    w.put_i64(job.allocated);
    w.put_bool(starting_from_hold_);
    w.put_bool(was_unsync);
    journal_->append(JournalRecordKind::kStart, w.bytes());
  }
  // A start closes the job's hold lease (replay closes it via the kStart
  // record, in apply_record).
  leases_.erase(id);
  completion_events_[id] = engine_.schedule_at(
      engine_.now() + job.spec.runtime, EventPriority::kJobEnd,
      [this, id] { on_job_finished(id); });
}

void Cluster::on_job_finished(JobId id) {
  completion_events_.erase(id);
  // The job may have been killed between its start and this completion
  // event; a second finish would corrupt the pool accounting.
  const RuntimeJob* cur = sched_.find(id);
  if (cur == nullptr || cur->state != JobState::kRunning) return;
  const JobSpec spec = cur->spec;  // finish() archives the job: cur dangles
  sched_.finish(id, engine_.now());
  if (journaling()) {
    WireWriter w;
    w.put_i64(id);
    w.put_i64(engine_.now());
    journal_->append(JournalRecordKind::kFinish, w.bytes());
  }
  log_event(JobEventKind::kFinish, spec);
  // Dependents gated by a think-time delay become eligible later than this
  // finish-triggered iteration; wake the scheduler when the gap elapses.
  auto [begin, end] = dependents_.equal_range(id);
  for (auto it = begin; it != end; ++it) {
    const Duration delay = it->second.second;
    if (delay > 0)
      engine_.schedule_in(delay, EventPriority::kSchedule,
                          [this] { request_iteration(); });
  }
  dependents_.erase(id);
  request_iteration();
  journal_commit();
}

void Cluster::log_event(JobEventKind kind, const JobSpec& spec) {
  if (event_log_ == nullptr) return;
  JobEvent e;
  e.time = engine_.now();
  e.system = name_;
  e.kind = kind;
  e.job = spec.id;
  e.group = spec.group;
  e.nodes = spec.nodes;
  event_log_->record(source_, std::move(e));
}

bool Cluster::AscendingIds::insert(JobId id) {
  // Jobs mostly become ready in id order, so the append is the common case.
  if (ids_.empty() || ids_.back() < id) {
    ids_.push_back(id);
    return true;
  }
  const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (*at == id) return false;
  ids_.insert(at, id);
  return true;
}

void Cluster::arm_yield_retry_event(Time at, JobId id) {
  // Untracked on purpose: the event survives a crash, and its body is fully
  // state-guarded, so a recovery re-arm at the same (at, id) coalesces: the
  // set entry is the ground truth, and whichever twin fires first consumes
  // it.
  engine_.schedule_at(at, EventPriority::kSchedule, [this, at, id] {
    if (yield_retries_.erase({at, id}) == 0) return;
    const RuntimeJob* j = sched_.find(id);
    if (!j || j->state != JobState::kQueued) return;
    request_iteration();
  });
}

void Cluster::schedule_yield_retry(JobId id) {
  if (cfg_.yield_retry_period <= 0) return;
  const Time at = engine_.now() + cfg_.yield_retry_period;
  yield_retries_.insert({at, id});
  arm_yield_retry_event(at, id);
}

void Cluster::schedule_hold_release(JobId id) {
  (void)id;
  if (cfg_.hold_release_period <= 0) return;  // deadlock breaker disabled
  if (release_tick_pending_) return;
  // One synchronized tick per domain, not per-job timers: the paper's
  // enhancement "force[s] the holding jobs to release their resources
  // periodically".  Releasing all holders at the same instant matters —
  // with staggered per-job releases, a blocked job larger than any single
  // hold can never see enough simultaneous free nodes, and every released
  // holder immediately re-holds (cross-machine livelock).
  release_tick_pending_ = true;
  release_tick_at_ = engine_.now() + cfg_.hold_release_period;
  if (journaling()) {
    WireWriter w;
    w.put_i64(release_tick_at_);
    journal_->append(JournalRecordKind::kTickArmed, w.bytes());
  }
  tick_event_ = engine_.schedule_at(release_tick_at_,
                                    EventPriority::kHoldRelease,
                                    [this] { hold_release_tick(); });
}

void Cluster::hold_release_tick() {
  tick_event_.reset();
  release_tick_pending_ = false;
  release_tick_at_ = kNoTime;
  if (journaling()) {
    WireWriter w;
    w.put_i64(engine_.now());
    journal_->append(JournalRecordKind::kTickFired, w.bytes());
  }
  const std::vector<JobId> holders = sched_.holding_ids();
  if (holders.empty()) {
    journal_commit();
    return;
  }
  for (JobId h : holders) {
    sched_.release_hold(h, engine_.now());
    ++forced_releases_;
    const bool degraded = fault_seen_.count(h) > 0;
    if (degraded) ++degraded_forced_releases_;
    if (journaling()) {
      WireWriter w;
      w.put_i64(h);
      w.put_i64(engine_.now());
      w.put_bool(degraded);
      journal_->append(JournalRecordKind::kHoldRelease, w.bytes());
    }
    leases_.erase(h);  // the domain-wide breaker supersedes the lease
    if (const RuntimeJob* j = sched_.find(h))
      log_event(JobEventKind::kHoldRelease, j->spec);
  }
  request_iteration();
  journal_commit();
}

// -- liveness layer -----------------------------------------------------------

HeartbeatInfo Cluster::liveness_info() const {
  HeartbeatInfo info;
  info.incarnation = incarnation_;
  info.fence = fence_epoch();
  info.queue_depth = sched_.queue_length();
  info.hold_fraction = sched_.hold_fraction();
  return info;
}

PeerHealth Cluster::peer_health(std::size_t i) const {
  if (!cfg_.liveness.enabled) return PeerHealth::kAlive;
  return peer_state_[i].detector.health(engine_.now(),
                                        cfg_.liveness.phi_suspect,
                                        cfg_.liveness.phi_confirm);
}

std::optional<HeartbeatInfo> Cluster::heartbeat(const HeartbeatInfo& from) {
  // Each side probes independently; answering at all is the evidence the
  // prober wants, and the payload lets it piggyback our load picture.
  (void)from;
  if (!cfg_.liveness.enabled) return std::nullopt;
  return liveness_info();
}

bool Cluster::admit_fence(JobId job, std::uint64_t fence) {
  pending_stale_fence_ = kNoJob;
  if (!cfg_.liveness.enabled || fence == 0 || fence >= fence_epoch())
    return true;
  // The caller learned this token before our last lease expiry (or before a
  // restart bumped the incarnation): its view of our holds is stale, and
  // acting on it could double-start the group.
  ++stale_fence_rejections_;
  pending_stale_fence_ = job;
  // The stale caller may name a job that has since finished.
  if (const std::optional<RuntimeJob> j = sched_.lookup(job))
    log_event(JobEventKind::kFenceReject, j->spec);
  return false;
}

std::uint64_t Cluster::lease_expiry_violations(Time now) const {
  const Duration grace = 2 * cfg_.liveness.heartbeat_period;
  std::uint64_t violations = 0;
  for (const auto& [id, lease] : leases_) {
    if (now - lease.expires_at <= grace) continue;
    const RuntimeJob* j = sched_.find(id);
    if (j != nullptr && j->state == JobState::kHolding) ++violations;
  }
  return violations;
}

void Cluster::arm_liveness_tick() {
  if (!liveness_on() || liveness_armed_) return;
  liveness_armed_ = true;
  liveness_at_ = engine_.now() + cfg_.liveness.heartbeat_period;
  if (journaling()) {
    WireWriter w;
    w.put_i64(liveness_at_);
    journal_->append(JournalRecordKind::kLivenessArmed, w.bytes());
  }
  liveness_event_ = engine_.schedule_at(liveness_at_, EventPriority::kStats,
                                        [this] { liveness_body(); });
}

void Cluster::liveness_body() {
  liveness_event_.reset();
  liveness_armed_ = false;
  liveness_at_ = kNoTime;
  if (!liveness_on()) return;
  const bool work_left = sched_.queue_length() > 0 ||
                         sched_.running_count() > 0 ||
                         sched_.holding_count() > 0;
  // Quiescent fire journals nothing (mirrors periodic_body); submits re-arm.
  if (!work_left && leases_.empty()) return;

  const Time now = engine_.now();
  const HeartbeatInfo mine = liveness_info();

  // Probe every peer first, then journal the whole round before touching
  // detector or lease state (journal-before-mutate for the entire body).
  struct Ack {
    bool acked = false;
    HeartbeatInfo info;
  };
  std::vector<Ack> acks(peers_.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    peer_state_[i].detector.mark_probe(now);
    const auto reply = peers_[i]->heartbeat(mine);
    if (reply) acks[i] = Ack{true, *reply};
  }
  if (journaling()) {
    WireWriter w;
    w.put_i64(now);
    w.put_u64(acks.size());
    for (const Ack& a : acks) {
      w.put_bool(a.acked);
      if (!a.acked) continue;
      w.put_u64(a.info.incarnation);
      w.put_u64(a.info.fence);
      w.put_u64(a.info.queue_depth);
      w.put_double(a.info.hold_fraction);
    }
    journal_->append(JournalRecordKind::kHeartbeat, w.bytes());
  }
  heartbeats_sent_ += acks.size();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (!acks[i].acked) continue;
    ++heartbeats_acked_;
    peer_state_[i].detector.record_heartbeat(now);
    peer_state_[i].info = acks[i].info;
    peer_state_[i].ever_heard = true;
    // Learn the peer's fencing epoch: every later side-effecting call to it
    // carries this token, so the peer can spot us going stale.
    peers_[i]->set_fence_token(acks[i].info.fence);
  }

  // Lease maintenance.  Renewal requires fresh evidence from the blocking
  // peer *this round*; a lease whose peer stayed silent past the expiry
  // auto-expires.  leases_ is ordered, so the scan is deterministic.
  std::vector<std::pair<JobId, bool>> to_expire;  // (job, mate confirmed dead)
  for (auto& [job, lease] : leases_) {
    const bool peer_ok = lease.peer >= 0 &&
                         static_cast<std::size_t>(lease.peer) < acks.size() &&
                         acks[static_cast<std::size_t>(lease.peer)].acked;
    if (peer_ok) {
      const Time renewed = now + cfg_.liveness.lease_duration;
      if (journaling()) {
        WireWriter w;
        w.put_i64(job);
        w.put_i64(renewed);
        journal_->append(JournalRecordKind::kLeaseRenew, w.bytes());
      }
      lease.expires_at = renewed;
      ++lease.renewals;
      ++lease_renewals_;
      continue;
    }
    if (lease.expires_at <= now) {
      const bool dead =
          lease.peer >= 0 &&
          peer_health(static_cast<std::size_t>(lease.peer)) == PeerHealth::kDead;
      to_expire.emplace_back(job, dead);
    }
  }
  for (const auto& [job, dead] : to_expire) expire_lease(job, dead);

  arm_liveness_tick();
  journal_commit();
}

void Cluster::grant_lease(JobId job, std::int32_t peer) {
  HoldLease lease;
  lease.job = job;
  lease.peer = peer;
  lease.granted_at = engine_.now();
  lease.expires_at = engine_.now() + cfg_.liveness.lease_duration;
  lease.token = fence_epoch();
  if (journaling()) {
    WireWriter w;
    lease.snapshot(w);
    journal_->append(JournalRecordKind::kLeaseGrant, w.bytes());
  }
  leases_[job] = lease;
  ++lease_grants_;
  arm_liveness_tick();
}

void Cluster::expire_lease(JobId job, bool mate_dead) {
  const auto it = leases_.find(job);
  if (it == leases_.end()) return;
  const Time now = engine_.now();
  // The fencing epoch advances with the expiry: any in-flight call stamped
  // under the old epoch is stale from this instant, which is exactly what
  // closes the partitioned-then-healed double-start window.
  if (journaling()) {
    WireWriter w;
    w.put_i64(job);
    w.put_i64(now);
    w.put_bool(mate_dead);
    journal_->append(JournalRecordKind::kLeaseExpire, w.bytes());
    WireWriter f;
    f.put_u64(static_cast<std::uint64_t>(fence_counter_) + 1);
    journal_->append(JournalRecordKind::kLeaseFence, f.bytes());
  }
  leases_.erase(it);
  ++lease_expiries_;
  ++fence_counter_;
  // Live only: a start or kill of the job has already dropped its lease.
  const RuntimeJob* j = sched_.find(job);
  if (j != nullptr) log_event(JobEventKind::kLeaseExpire, j->spec);
  if (j != nullptr && j->state == JobState::kHolding) {
    const bool degraded = mate_dead || fault_seen_.count(job) > 0;
    if (journaling()) {
      WireWriter w;
      w.put_i64(job);
      w.put_i64(now);
      w.put_bool(degraded);
      journal_->append(JournalRecordKind::kHoldRelease, w.bytes());
    }
    sched_.release_hold(job, now);
    ++forced_releases_;
    if (degraded) ++degraded_forced_releases_;
    if (const RuntimeJob* released = sched_.find(job))
      log_event(JobEventKind::kHoldRelease, released->spec);
    // The requeued job decides afresh next iteration: a confirmed-dead mate
    // then takes the §IV-C unknown path and starts unsynchronized.
    request_iteration();
  }
}

// -- crash-consistent persistence --------------------------------------------

void Cluster::set_journal(Journal* journal, std::uint64_t compact_every) {
  journal_ = journal;
  compact_every_ = compact_every;
  if (journal_ == nullptr) return;
  // The journal must be recoverable from its very first byte: start it with
  // a snapshot of the current state.  There is no previous generation to
  // retain on the initial attach.
  WireWriter snap;
  write_snapshot(snap);
  journal_->compact(snap.bytes(), /*retain_previous=*/false);
}

void Cluster::journal_commit() {
  if (!journaling()) return;
  // ENOSPC ladder, rung 1: an append was dropped since the last commit.
  // Compact before the barrier so the hole the dropped record left never
  // becomes the durable tip of the log.
  if (journal_->no_space()) emergency_compact();
  journal_->commit();
  if (compact_every_ > 0 &&
      journal_->records_since_compaction() >= compact_every_) {
    WireWriter snap;
    write_snapshot(snap);
    try {
      journal_->compact(snap.bytes());
    } catch (const JournalNoSpace&) {
      // The generation-retaining image no longer fits — fall through to the
      // ladder, which collapses to a single snapshot (and beyond).
      emergency_compact();
    } catch (const JournalIoError&) {
      // Transient medium error while re-reading the old image: skip this
      // round; the periodic trigger re-fires at the next threshold commit.
    }
  }
}

void Cluster::emergency_compact() {
  ++enospc_events_;
  WireWriter snap;
  write_snapshot(snap);
  try {
    // Rung 2: collapse the whole log into one snapshot frame, freeing every
    // byte the tail occupied.
    journal_->compact(snap.bytes(), /*retain_previous=*/false);
    ++emergency_compactions_;
  } catch (const Error&) {
    // Rung 3: even a single snapshot does not fit (or the old image cannot
    // be read back) — keep journaling in memory so in-process recovery and
    // the exactly-once cache stay alive, and raise the degraded alarm.
    journal_->degrade_to_memory();
    journal_->compact(snap.bytes(), /*retain_previous=*/false);
  }
}

void Cluster::write_snapshot(WireWriter& w) const {
  w.put_u64(incarnation_);
  w.put_u64(iterations_run_);
  w.put_u64(try_start_requests_);
  w.put_u64(forced_releases_);
  w.put_u64(unknown_status_decisions_);
  w.put_u64(unsync_starts_);
  w.put_u64(degraded_forced_releases_);
  w.put_u64(enospc_events_);
  w.put_u64(emergency_compactions_);

  // All containers go out in a canonical (sorted) order so two snapshots of
  // equal state are byte-identical.
  {
    std::vector<std::pair<JobId, const JobSpec*>> rows;
    rows.reserve(expected_.size());
    // cosched-lint: ordered(rows are sorted by id before encoding)
    for (const auto& [id, spec] : expected_) rows.emplace_back(id, &spec);
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.put_u64(rows.size());
    for (const auto& row : rows) encode_job_spec(w, *row.second);
  }
  {
    // cosched-lint: ordered(pairs are sorted before encoding)
    std::vector<std::pair<GroupId, JobId>> groups(group_to_job_.begin(),
                                                  group_to_job_.end());
    std::sort(groups.begin(), groups.end());
    w.put_u64(groups.size());
    for (const auto& [g, j] : groups) {
      w.put_i64(g);
      w.put_i64(j);
    }
  }
  {
    std::vector<std::tuple<JobId, JobId, Duration>> deps;
    deps.reserve(dependents_.size());
    // cosched-lint: ordered(tuples are sorted before encoding)
    for (const auto& [dep, val] : dependents_)
      deps.emplace_back(dep, val.first, val.second);
    std::sort(deps.begin(), deps.end());
    w.put_u64(deps.size());
    for (const auto& [dep, dependent, delay] : deps) {
      w.put_i64(dep);
      w.put_i64(dependent);
      w.put_i64(delay);
    }
  }
  const auto write_set = [&w](const std::unordered_set<JobId>& s) {
    // cosched-lint: ordered(ids are sorted before encoding)
    std::vector<JobId> ids(s.begin(), s.end());
    std::sort(ids.begin(), ids.end());
    w.put_u64(ids.size());
    for (JobId id : ids) w.put_i64(id);
  };
  w.put_u64(ready_logged_.ids().size());  // already ascending
  for (JobId id : ready_logged_.ids()) w.put_i64(id);
  write_set(fault_seen_);
  write_set(unsync_pending_);

  w.put_bool(iteration_pending_);
  w.put_bool(release_tick_pending_);
  w.put_i64(release_tick_at_);
  w.put_bool(periodic_armed_);
  w.put_i64(periodic_at_);
  w.put_u64(yield_retries_.size());
  for (const auto& [at, id] : yield_retries_) {
    w.put_i64(at);
    w.put_i64(id);
  }

  // -- liveness layer (leases_ and peer_state_ are already ordered) ------
  w.put_u64(heartbeats_sent_);
  w.put_u64(heartbeats_acked_);
  w.put_u64(lease_grants_);
  w.put_u64(lease_renewals_);
  w.put_u64(lease_expiries_);
  w.put_u64(stale_fence_rejections_);
  w.put_u64(stale_fence_starts_);
  w.put_u64(suspected_status_decisions_);
  w.put_u64(fence_counter_);
  w.put_bool(liveness_armed_);
  w.put_i64(liveness_at_);
  w.put_u64(leases_.size());
  for (const auto& [id, lease] : leases_) lease.snapshot(w);
  w.put_u64(peer_state_.size());
  for (const PeerState& ps : peer_state_) {
    ps.detector.snapshot(w);
    w.put_u64(ps.info.incarnation);
    w.put_u64(ps.info.fence);
    w.put_u64(ps.info.queue_depth);
    w.put_double(ps.info.hold_fraction);
    w.put_bool(ps.ever_heard);
  }

  // -- gang costart layer (all containers are ordered) -------------------
  w.put_u64(gangs_prepared_);
  w.put_u64(gangs_committed_);
  w.put_u64(gangs_aborted_);
  w.put_u64(gangs_victimized_);
  w.put_u64(gang_prepared_.size());
  for (JobId id : gang_prepared_) w.put_i64(id);
  w.put_u64(gang_started_.size());
  for (JobId id : gang_started_) w.put_i64(id);
  w.put_u64(gang_backoff_until_.size());
  for (const auto& [id, until] : gang_backoff_until_) {
    w.put_i64(id);
    w.put_i64(until);
  }
  w.put_u64(gang_attempts_.size());
  for (const auto& [id, attempt] : gang_attempts_) {
    w.put_i64(id);
    w.put_u64(attempt);
  }

  sched_.snapshot(w);
}

void Cluster::apply_snapshot(WireReader& r) {
  incarnation_ = r.get_u64();
  iterations_run_ = r.get_u64();
  try_start_requests_ = r.get_u64();
  forced_releases_ = r.get_u64();
  unknown_status_decisions_ = r.get_u64();
  unsync_starts_ = r.get_u64();
  degraded_forced_releases_ = r.get_u64();
  enospc_events_ = r.get_u64();
  emergency_compactions_ = r.get_u64();

  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    const JobSpec spec = decode_job_spec(r);
    expected_.emplace(spec.id, spec);
  }
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    const GroupId g = r.get_i64();
    const JobId j = r.get_i64();
    group_to_job_.emplace(g, j);
  }
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    const JobId dep = r.get_i64();
    const JobId dependent = r.get_i64();
    const Duration delay = r.get_i64();
    dependents_.emplace(dep, std::make_pair(dependent, delay));
  }
  const auto read_set = [&r](std::unordered_set<JobId>& s) {
    for (std::uint64_t n = r.get_u64(); n > 0; --n) s.insert(r.get_i64());
  };
  for (std::uint64_t n = r.get_u64(); n > 0; --n)
    ready_logged_.insert(r.get_i64());
  read_set(fault_seen_);
  read_set(unsync_pending_);

  iteration_pending_ = r.get_bool();
  release_tick_pending_ = r.get_bool();
  release_tick_at_ = r.get_i64();
  periodic_armed_ = r.get_bool();
  periodic_at_ = r.get_i64();
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    const Time at = r.get_i64();
    const JobId id = r.get_i64();
    yield_retries_.insert({at, id});
  }

  heartbeats_sent_ = r.get_u64();
  heartbeats_acked_ = r.get_u64();
  lease_grants_ = r.get_u64();
  lease_renewals_ = r.get_u64();
  lease_expiries_ = r.get_u64();
  stale_fence_rejections_ = r.get_u64();
  stale_fence_starts_ = r.get_u64();
  suspected_status_decisions_ = r.get_u64();
  fence_counter_ = static_cast<std::uint32_t>(r.get_u64());
  liveness_armed_ = r.get_bool();
  liveness_at_ = r.get_i64();
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    const HoldLease lease = HoldLease::restore(r);
    leases_.emplace(lease.job, lease);
  }
  const std::uint64_t n_peers = r.get_u64();
  COSCHED_CHECK_MSG(n_peers == peer_state_.size(),
                    name_ << ": snapshot has " << n_peers
                          << " peers, cluster has " << peer_state_.size());
  for (PeerState& ps : peer_state_) {
    ps.detector.restore(r);
    ps.info.incarnation = r.get_u64();
    ps.info.fence = r.get_u64();
    ps.info.queue_depth = r.get_u64();
    ps.info.hold_fraction = r.get_double();
    ps.ever_heard = r.get_bool();
  }

  gangs_prepared_ = r.get_u64();
  gangs_committed_ = r.get_u64();
  gangs_aborted_ = r.get_u64();
  gangs_victimized_ = r.get_u64();
  for (std::uint64_t n = r.get_u64(); n > 0; --n)
    gang_prepared_.insert(r.get_i64());
  for (std::uint64_t n = r.get_u64(); n > 0; --n)
    gang_started_.insert(r.get_i64());
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    const JobId id = r.get_i64();
    gang_backoff_until_[id] = r.get_i64();
  }
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    const JobId id = r.get_i64();
    gang_attempts_[id] = static_cast<std::uint32_t>(r.get_u64());
  }

  sched_.restore(r);
}

void Cluster::wipe_for_recovery() {
  // cosched-lint: ordered(every event is cancelled; order is unobservable)
  for (auto& [id, ev] : completion_events_) engine_.cancel(ev);
  completion_events_.clear();
  if (iteration_event_) engine_.cancel(*iteration_event_);
  if (tick_event_) engine_.cancel(*tick_event_);
  if (periodic_event_) engine_.cancel(*periodic_event_);
  if (liveness_event_) engine_.cancel(*liveness_event_);
  iteration_event_.reset();
  tick_event_.reset();
  periodic_event_.reset();
  liveness_event_.reset();

  group_to_job_.clear();
  expected_.clear();
  dependents_.clear();
  committing_.clear();
  ready_logged_.clear();
  fault_seen_.clear();
  unsync_pending_.clear();
  yield_retries_.clear();
  replay_last_iterate_ = kNoTime;
  iteration_pending_ = false;
  release_tick_pending_ = false;
  periodic_armed_ = false;
  release_tick_at_ = kNoTime;
  periodic_at_ = kNoTime;
  iterations_run_ = 0;
  try_start_requests_ = 0;
  forced_releases_ = 0;
  unknown_status_decisions_ = 0;
  unsync_starts_ = 0;
  degraded_forced_releases_ = 0;
  enospc_events_ = 0;
  emergency_compactions_ = 0;
  incarnation_ = 1;
  starting_from_hold_ = false;

  leases_.clear();
  for (PeerState& ps : peer_state_)
    ps = PeerState{FailureDetector(cfg_.liveness.heartbeat_period,
                                   engine_.now()),
                   HeartbeatInfo{}, false};
  fence_counter_ = 0;
  liveness_armed_ = false;
  liveness_at_ = kNoTime;
  pending_stale_fence_ = kNoJob;
  heartbeats_sent_ = 0;
  heartbeats_acked_ = 0;
  lease_grants_ = 0;
  lease_renewals_ = 0;
  lease_expiries_ = 0;
  stale_fence_rejections_ = 0;
  stale_fence_starts_ = 0;
  suspected_status_decisions_ = 0;
  blocking_peer_ = -1;

  gang_prepared_.clear();
  gang_started_.clear();
  gang_backoff_until_.clear();
  gang_attempts_.clear();
  gangs_prepared_ = 0;
  gangs_committed_ = 0;
  gangs_aborted_ = 0;
  gangs_victimized_ = 0;
}

void Cluster::restore_snapshot(WireReader& r) {
  journal_ = nullptr;  // a restore does not adopt a journal by itself
  wipe_for_recovery();
  replaying_ = true;
  apply_snapshot(r);
  replaying_ = false;
}

void Cluster::apply_record(const JournalRecord& rec) {
  WireReader r(rec.payload);
  switch (rec.kind) {
    case JournalRecordKind::kSnapshot:
      // Snapshot records are verified and applied (or skipped, for the
      // generations behind the one chosen) by recover_from_journal(); the
      // replay loop never routes them here.
      COSCHED_CHECK_MSG(false, name_ << ": snapshot record routed to replay");
      break;
    case JournalRecordKind::kIncarnation:
      incarnation_ = r.get_u64();
      break;
    case JournalRecordKind::kExpected: {
      const JobSpec spec = decode_job_spec(r);
      if (spec.is_paired()) group_to_job_.emplace(spec.group, spec.id);
      expected_.emplace(spec.id, spec);
      break;
    }
    case JournalRecordKind::kSubmit: {
      const JobSpec spec = decode_job_spec(r);
      const Time t = r.get_i64();
      if (spec.is_paired() && !group_to_job_.count(spec.group))
        group_to_job_.emplace(spec.group, spec.id);
      expected_.erase(spec.id);
      sched_.submit(spec, t);
      // Re-register the dependency link only while it can still fire; wakes
      // for already-finished dependencies are re-derived by
      // rearm_after_restore().
      if (spec.has_dependency() && !sched_.is_finished(spec.after))
        dependents_.emplace(spec.after,
                            std::make_pair(spec.id, spec.after_delay));
      break;
    }
    case JournalRecordKind::kReady: {
      const JobId id = r.get_i64();
      const Time first_ready = r.get_i64();
      ready_logged_.insert(id);
      // The Run_Job hook journals kReady for a queued job, before any
      // record that could finish it, and replay applies records in
      // sequence order: the job cannot have finished yet.
      COSCHED_CHECK_MSG(!sched_.is_finished(id),
                        name_ << ": kReady replayed for finished job " << id);
      if (RuntimeJob* j = sched_.find_mut(id))
        if (j->first_ready == kNoTime) j->first_ready = first_ready;
      break;
    }
    case JournalRecordKind::kStart: {
      const JobId id = r.get_i64();
      const Time t = r.get_i64();
      const Time first_ready = r.get_i64();
      const NodeCount allocated = r.get_i64();
      const bool from_hold = r.get_bool();
      r.get_bool();  // was_unsync: reproduced via replayed kDegraded state
      if (from_hold)
        sched_.start_holding(id, t);
      else
        sched_.replay_start(id, t, first_ready, allocated);
      leases_.erase(id);
      break;
    }
    case JournalRecordKind::kHold: {
      const JobId id = r.get_i64();
      const Time t = r.get_i64();
      const Time first_ready = r.get_i64();
      const NodeCount allocated = r.get_i64();
      sched_.replay_hold(id, t, first_ready, allocated);
      break;
    }
    case JournalRecordKind::kHoldRelease: {
      const JobId id = r.get_i64();
      const Time t = r.get_i64();
      const bool degraded = r.get_bool();
      sched_.release_hold(id, t);
      ++forced_releases_;
      if (degraded) ++degraded_forced_releases_;
      leases_.erase(id);
      break;
    }
    case JournalRecordKind::kYield: {
      const JobId id = r.get_i64();
      const Time t = r.get_i64();
      const Time first_ready = r.get_i64();
      const double boost = r.get_double();
      sched_.replay_yield(id, first_ready, boost);
      if (cfg_.yield_retry_period > 0)
        yield_retries_.insert({t + cfg_.yield_retry_period, id});
      break;
    }
    case JournalRecordKind::kFinish: {
      const JobId id = r.get_i64();
      const Time t = r.get_i64();
      sched_.finish(id, t);
      dependents_.erase(id);
      break;
    }
    case JournalRecordKind::kKill: {
      const JobId id = r.get_i64();
      const Time t = r.get_i64();
      sched_.kill(id, t);
      leases_.erase(id);
      break;
    }
    case JournalRecordKind::kIterate:
      // cosched-lint: allow(journal-coverage) replay-scoped scratch (kNoTime outside recovery), consumed by rearm_after_restore in the same pass
      replay_last_iterate_ = r.get_i64();
      iteration_pending_ = false;
      ++iterations_run_;
      sched_.replay_clear_demotions();
      break;
    case JournalRecordKind::kTickArmed:
      release_tick_pending_ = true;
      release_tick_at_ = r.get_i64();
      break;
    case JournalRecordKind::kTickFired:
      release_tick_pending_ = false;
      release_tick_at_ = kNoTime;
      break;
    case JournalRecordKind::kIterArmed:
      iteration_pending_ = true;
      break;
    case JournalRecordKind::kPeriodicArmed:
      periodic_armed_ = true;
      periodic_at_ = r.get_i64();
      break;
    case JournalRecordKind::kDegraded: {
      const JobId id = r.get_i64();
      const std::uint64_t unknown_delta = r.get_u64();
      const bool fault_now = r.get_bool();
      const bool unsync_now = r.get_bool();
      suspected_status_decisions_ += r.get_u64();
      unknown_status_decisions_ += unknown_delta;
      if (fault_now)
        fault_seen_.insert(id);
      else
        fault_seen_.erase(id);
      if (unsync_now)
        unsync_pending_.insert(id);
      else
        unsync_pending_.erase(id);
      break;
    }
    case JournalRecordKind::kLeaseGrant: {
      const HoldLease lease = HoldLease::restore(r);
      leases_[lease.job] = lease;
      ++lease_grants_;
      break;
    }
    case JournalRecordKind::kLeaseRenew: {
      const JobId id = r.get_i64();
      const Time expires = r.get_i64();
      const auto it = leases_.find(id);
      if (it != leases_.end()) {
        it->second.expires_at = expires;
        ++it->second.renewals;
      }
      ++lease_renewals_;
      break;
    }
    case JournalRecordKind::kLeaseExpire: {
      const JobId id = r.get_i64();
      leases_.erase(id);
      ++lease_expiries_;
      break;
    }
    case JournalRecordKind::kLeaseFence:
      fence_counter_ = static_cast<std::uint32_t>(r.get_u64());
      break;
    case JournalRecordKind::kHeartbeat: {
      const Time t = r.get_i64();
      const std::uint64_t n = r.get_u64();
      heartbeats_sent_ += n;
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i < peer_state_.size()) peer_state_[i].detector.mark_probe(t);
        if (!r.get_bool()) continue;
        HeartbeatInfo info;
        info.incarnation = r.get_u64();
        info.fence = r.get_u64();
        info.queue_depth = r.get_u64();
        info.hold_fraction = r.get_double();
        ++heartbeats_acked_;
        if (i < peer_state_.size()) {
          peer_state_[i].detector.record_heartbeat(t);
          peer_state_[i].info = info;
          peer_state_[i].ever_heard = true;
        }
      }
      break;
    }
    case JournalRecordKind::kLivenessArmed:
      liveness_armed_ = true;
      liveness_at_ = r.get_i64();
      break;
    case JournalRecordKind::kDedup:
      break;  // owned by the RPC layer, not scheduler state
    case JournalRecordKind::kGangPrepare: {
      const JobId id = r.get_i64();
      gang_prepared_.insert(id);
      ++gangs_prepared_;
      break;
    }
    case JournalRecordKind::kGangCommit: {
      const JobId id = r.get_i64();
      r.get_i64();  // group
      r.get_i64();  // time
      const bool coordinator = r.get_bool();
      gang_prepared_.erase(id);
      gang_started_.insert(id);
      if (coordinator) ++gangs_committed_;
      // The start itself replays from the kStart record that follows.
      break;
    }
    case JournalRecordKind::kGangAbort: {
      const JobId id = r.get_i64();
      r.get_i64();  // group
      const Time t = r.get_i64();
      const bool coordinator = r.get_bool();
      const auto attempt = static_cast<std::uint32_t>(r.get_u64());
      const Time until = r.get_i64();
      if (coordinator) {
        gang_attempts_[id] = attempt;
        gang_backoff_until_[id] = until;
        ++gangs_aborted_;
      } else {
        gang_prepared_.erase(id);
        leases_.erase(id);
        const RuntimeJob* j = sched_.find(id);
        if (j != nullptr && j->state == JobState::kHolding)
          sched_.release_hold(id, t);
      }
      break;
    }
    case JournalRecordKind::kGangVictim: {
      const JobId id = r.get_i64();
      r.get_i64();  // group
      const Time t = r.get_i64();
      const auto attempt = static_cast<std::uint32_t>(r.get_u64());
      const Time until = r.get_i64();
      gang_attempts_[id] = attempt;
      gang_backoff_until_[id] = until;
      gang_prepared_.erase(id);
      ++gangs_victimized_;
      leases_.erase(id);
      const RuntimeJob* j = sched_.find(id);
      if (j != nullptr && j->state == JobState::kHolding)
        sched_.release_hold(id, t);
      break;
    }
  }
}

std::size_t Cluster::apply_verified_snapshot(
    const std::vector<JournalRecord>& records, RecoveryStats& stats) {
  // Candidate snapshots, newest first.
  std::vector<std::size_t> snaps;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].kind == JournalRecordKind::kSnapshot) snaps.push_back(i);
  COSCHED_CHECK_MSG(!snaps.empty(),
                    name_ << ": no snapshot record salvaged from the journal");

  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    const JournalRecord& rec = records[*it];
    const SnapshotView view = parse_snapshot_payload(rec);
    if (!view.checksum_ok) {
      // The envelope says the state bytes rotted — do not even try to parse
      // them; fall back a generation.
      stats.snapshot_fallback = true;
      continue;
    }
    wipe_for_recovery();
    try {
      WireReader sr(view.state);
      apply_snapshot(sr);
    } catch (const ParseError&) {
      // A v1 snapshot carries no checksum, so rot surfaces here instead; a
      // clean wipe makes the next (older) candidate start from scratch.
      wipe_for_recovery();
      stats.snapshot_fallback = true;
      continue;
    }
    stats.snapshot_generation = view.generation;
    return *it;
  }
  COSCHED_CHECK_MSG(false,
                    name_ << ": every salvaged snapshot generation is corrupt");
  return records.size();
}

void Cluster::replay_salvaged_tail(const std::vector<JournalRecord>& records,
                                   std::size_t snap_idx, RecoveryStats& stats) {
  // Records to replay: everything sequenced after the chosen snapshot.  A
  // salvage scan returns stream order, which reordered pre-fsync writes can
  // permute — sort by sequence number (stable within a seq so a duplicate's
  // first copy wins) before judging holes.
  std::vector<const JournalRecord*> tail;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].seq > records[snap_idx].seq) tail.push_back(&records[i]);
  std::stable_sort(tail.begin(), tail.end(),
                   [](const JournalRecord* a, const JournalRecord* b) {
                     return a->seq < b->seq;
                   });

  std::uint64_t prev_seq = records[snap_idx].seq;
  bool holed = false;
  for (const JournalRecord* rec : tail) {
    if (rec->seq == prev_seq) {
      // Same record persisted twice (reorder + retry artifacts): the first
      // copy already applied; re-applying would double-count.
      ++stats.duplicates_skipped;
      continue;
    }
    if (holed || rec->seq != prev_seq + 1) {
      // First hole ends the sound replay: records beyond it would apply over
      // missing intermediate state.  Count both the hole and the survivors
      // we refuse to use — this is the data_loss_reported() contract.
      if (!holed) {
        holed = true;
        ++stats.seq_holes;
        stats.records_missing += rec->seq - prev_seq - 1;
      }
      ++stats.records_dropped;
      prev_seq = rec->seq;
      continue;
    }
    prev_seq = rec->seq;
    if (rec->kind == JournalRecordKind::kSnapshot) {
      // A newer-but-rejected (or mid-tail retained) snapshot: its state is
      // already covered by the records around it; it only advances the seq.
      continue;
    }
    apply_record(*rec);
    ++stats.records_replayed;
  }
}

Cluster::RecoveryStats Cluster::recover_from_journal(Journal& journal) {
  const auto t0 = std::chrono::steady_clock::now();
  // A JournalIoError here (transient read failure) propagates: the caller
  // owns the retry loop, and each retry re-draws the fault stream.
  const std::vector<std::uint8_t> bytes = journal.sink().contents();
  const SalvageReport rep = salvage_scan(bytes);

  RecoveryStats stats;
  stats.bytes_scanned = rep.bytes_scanned;
  stats.bytes_skipped = rep.bytes_skipped;
  stats.corrupt_regions = rep.corrupt_regions.size();
  stats.tail_torn = rep.tail_torn;

  journal_ = nullptr;  // never journal while wiping or replaying
  replaying_ = true;
  const std::size_t snap_idx = apply_verified_snapshot(rep.records, stats);
  stats.records_replayed = 1;  // the snapshot itself
  replay_salvaged_tail(rep.records, snap_idx, stats);
  replaying_ = false;
  rearm_after_restore();

  // New life: bump the incarnation and make it durable so peers (and the
  // RPC dedup cache) can tell pre-crash requests from post-crash ones.
  ++incarnation_;
  journal_ = &journal;
  WireWriter inc;
  inc.put_u64(incarnation_);
  journal_->append(JournalRecordKind::kIncarnation, inc.bytes());
  journal_->commit();

  stats.incarnation = incarnation_;
  stats.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

void Cluster::rearm_after_restore() {
  const Time now = engine_.now();

  // Completions for every running job, armed at the job's absolute end time
  // in (end, start, id) order so same-instant completions pop in the same
  // sequence an uncrashed run would produce.
  struct Completion {
    Time end;
    Time start;
    JobId id;
  };
  std::vector<Completion> completions;
  for (const auto& [id, job] : sched_.jobs()) {
    if (job.state != JobState::kRunning) continue;
    completions.push_back({job.start + job.spec.runtime, job.start, id});
  }
  std::sort(completions.begin(), completions.end(),
            [](const Completion& a, const Completion& b) {
              return std::tie(a.end, a.start, a.id) <
                     std::tie(b.end, b.start, b.id);
            });
  for (const Completion& c : completions) {
    const JobId id = c.id;
    completion_events_[id] =
        engine_.schedule_at(std::max(now, c.end), EventPriority::kJobEnd,
                            [this, id] { on_job_finished(id); });
  }

  if (release_tick_pending_) {
    if (release_tick_at_ >= now) {
      tick_event_ = engine_.schedule_at(release_tick_at_,
                                        EventPriority::kHoldRelease,
                                        [this] { hold_release_tick(); });
    } else {
      // The tick fired before the crash but its kTickFired never committed
      // together with a state change we kept — treat it as spent.
      release_tick_pending_ = false;
      release_tick_at_ = kNoTime;
    }
  }

  if (periodic_armed_) {
    if (periodic_at_ >= now) {
      periodic_event_ = engine_.schedule_at(periodic_at_, EventPriority::kStats,
                                            [this] { periodic_body(); });
    } else {
      // A quiescent periodic fire journals nothing; an armed-in-the-past
      // timer therefore means it already fired and found no work.
      periodic_armed_ = false;
      periodic_at_ = kNoTime;
    }
  }

  if (liveness_armed_) {
    if (liveness_at_ >= now) {
      liveness_event_ = engine_.schedule_at(liveness_at_, EventPriority::kStats,
                                            [this] { liveness_body(); });
    } else {
      // Same quiescence rule as the periodic timer: a liveness fire with
      // work (or leases) always journals a kHeartbeat, so armed-in-the-past
      // means it fired and found nothing to do.
      liveness_armed_ = false;
      liveness_at_ = kNoTime;
    }
  }
  // Defensive: leases must never sit without a renewal/expiry driver.  In
  // any consistent journal state leases imply an armed tick, so this only
  // fires if that invariant was already broken — and it re-derives the same
  // way on a second recovery, so it needs no record of its own.
  if (!liveness_armed_ && liveness_on() && !leases_.empty())
    arm_liveness_tick();

  // Re-teach peers the fencing tokens learned before the crash: the stubs'
  // stamps are process state, not journal state.
  for (std::size_t i = 0; i < peers_.size() && i < peer_state_.size(); ++i)
    if (peer_state_[i].ever_heard)
      peers_[i]->set_fence_token(peer_state_[i].info.fence);

  for (auto it = yield_retries_.begin(); it != yield_retries_.end();) {
    const Time at = it->first;
    const JobId id = it->second;
    if (at < now || (at == now && replay_last_iterate_ == now)) {
      // Fired before the crash.  The at == now case is provable because a
      // retry at a timestamp is always armed earlier (at - period), so it
      // sorts before — and runs before — the iteration armed at that
      // timestamp; a committed kIterate at `now` therefore means every retry
      // due at `now` was already consumed.  kYield replay re-derives the set
      // entry unconditionally, so without this prune the re-armed twin would
      // fire again after recovery and schedule an extra iteration.
      it = yield_retries_.erase(it);
      continue;
    }
    arm_yield_retry_event(at, id);
    ++it;
  }

  // Dependency wakes whose dependency finished before the crash: a job
  // still queued behind a satisfied-later constraint re-checks at its ready
  // time (this re-derives both the delayed finish-side wakes and the
  // track_dependency() direct wakes).
  for (const auto& [id, job] : sched_.jobs()) {
    if (job.state != JobState::kQueued || !job.spec.has_dependency()) continue;
    const std::optional<RuntimeJob> dep = sched_.lookup(job.spec.after);
    if (!dep || dep->state != JobState::kFinished) continue;
    const Time ready_at = dep->end + job.spec.after_delay;
    if (ready_at > now)
      engine_.schedule_at(ready_at, EventPriority::kSchedule,
                          [this] { request_iteration(); });
  }

  // The pending iteration is re-armed LAST.  In live operation the
  // iteration event is always the newest same-priority event at its
  // timestamp (it is armed by whichever trigger fired first), so it runs
  // after every same-instant retry/wake and their requests coalesce into
  // it.  Re-arming it before the yield retries above would invert that
  // order at the crash instant: a retry firing after the iteration would
  // schedule a second iteration at the same time, yielding paired jobs once
  // more than the uncrashed run.
  if (iteration_pending_)
    iteration_event_ = engine_.schedule_at(now, EventPriority::kSchedule,
                                           [this] { run_iteration_body(); });
}

}  // namespace cosched
