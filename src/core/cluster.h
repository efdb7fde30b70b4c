// One scheduling domain of a coupled HEC system.
//
// A Cluster binds together a Scheduler (queue + policy + backfilling), the
// discrete-event engine, and the coscheduling agent implementing the paper's
// Algorithm 1.  It is both a protocol *client* (through PeerClient stubs to
// its peers) and a protocol *server* (it implements CoschedService for its
// peers' remote.* calls).
//
// The implementation generalizes Algorithm 1 to N scheduling domains (the
// paper's future-work extension): a ready paired job asks every peer for the
// group member it owns; when a mate is not ready, a single tryStartMate is
// issued and the commit marker (`starting` status) lets the remote side's own
// Run_Job recursively complete the chain across all remaining domains.  With
// two domains this reduces exactly to the published algorithm.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/event_log.h"
#include "core/journal.h"
#include "core/liveness.h"
#include "proto/peer.h"
#include "proto/service.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "workload/trace.h"

namespace cosched {

class Cluster final : public CoschedService {
 public:
  Cluster(Engine& engine, std::string name, NodeCount capacity,
          std::unique_ptr<PriorityPolicy> policy, CoschedConfig cosched = {},
          SchedulerConfig sched_config = {},
          std::shared_ptr<const AllocationModel> alloc = nullptr);

  // Non-copyable, non-movable: peers hold references to the service.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Registers a remote scheduling domain.  Not owned.  Order is the order
  /// mates are queried in.
  void add_peer(PeerClient& peer);

  /// Loads a trace: pre-registers paired-job associations (the paper's
  /// equivalent of users declaring associated jobs at submission) and
  /// schedules one submit event per job.
  void load_trace(const Trace& trace);

  /// Submits one job at the current engine time (examples/tests).
  void submit_now(const JobSpec& spec);

  /// Kills a job wherever it is (fault injection): queued jobs vanish from
  /// the queue, holding jobs free their nodes, running jobs stop early.
  /// Safe against the job's pending completion event.  No-op for unknown or
  /// finished jobs.
  void kill_job(JobId id);

  /// Pre-registers a paired job expected to arrive later, so peers querying
  /// before its submission see status `unsubmitted`.
  void register_expected(const JobSpec& spec);

  // -- CoschedService (the four remote calls + liveness plane) -----------
  std::optional<JobId> get_mate_job(GroupId group, JobId asking) override;
  MateStatus get_mate_status(JobId job) override;
  bool try_start_mate(JobId job) override;
  bool start_job(JobId job) override;
  std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& from) override;
  bool admit_fence(JobId job, std::uint64_t fence) override;

  // -- CoschedService (k-of-N gang costart, two-phase fenced) ------------
  bool gang_prepare(JobId job, GroupId group) override;
  bool gang_commit(JobId job, GroupId group) override;
  bool gang_abort(JobId job, GroupId group) override;
  bool gang_victim(JobId job, GroupId group) override;

  // -- accessors ---------------------------------------------------------
  Scheduler& scheduler() { return sched_; }
  const Scheduler& scheduler() const { return sched_; }
  Engine& engine() { return engine_; }
  const std::string& name() const { return name_; }
  /// This domain's registration index on its engine; exists only for
  /// perfbench/traced_month.cpp.
  SourceId source() const { return source_; }
  const CoschedConfig& config() const { return cfg_; }
  void set_config(const CoschedConfig& cfg) { cfg_ = cfg; }

  std::uint64_t iterations_run() const { return iterations_run_; }
  std::uint64_t try_start_requests() const { return try_start_requests_; }
  std::uint64_t forced_releases() const { return forced_releases_; }

  // -- degraded-mode counters (§IV-C fault rule firing) ------------------
  /// Peer calls that failed in a decision path (mate treated as unknown).
  std::uint64_t unknown_status_decisions() const {
    return unknown_status_decisions_;
  }
  /// Paired jobs started without mate confirmation.
  std::uint64_t unsync_starts() const { return unsync_starts_; }
  /// Forced releases of jobs whose decision saw a transport fault.
  std::uint64_t degraded_forced_releases() const {
    return degraded_forced_releases_;
  }

  // -- storage alarm counters (journal ENOSPC ladder) --------------------
  /// Commits that found the journal out of space (each triggers the
  /// emergency-compaction → degrade-to-memory ladder).
  std::uint64_t storage_enospc_events() const { return enospc_events_; }
  /// Emergency compactions that freed enough space to stay durable.
  std::uint64_t storage_emergency_compactions() const {
    return emergency_compactions_;
  }
  /// The attached journal fell back to an in-memory sink (durability lost
  /// until an operator intervenes).
  bool journal_degraded() const {
    return journal_ != nullptr && journal_->degraded();
  }

  // -- liveness layer (heartbeats, failure detector, leased holds) -------

  /// This domain's current liveness payload (also what heartbeats carry).
  HeartbeatInfo liveness_info() const;

  /// Current fencing epoch: side-effecting calls stamped with an older
  /// nonzero token are rejected by admit_fence().
  std::uint64_t fence_epoch() const {
    return make_fence_token(incarnation_, fence_counter_);
  }

  /// Detector health of peer `i` at the current engine time (kAlive when
  /// liveness is disabled).
  PeerHealth peer_health(std::size_t i) const;

  /// Last payload heard from peer `i` (all-zero before the first ack).
  const HeartbeatInfo& peer_info(std::size_t i) const {
    return peer_state_[i].info;
  }

  /// Active hold leases by job id (empty when liveness is disabled).
  const std::map<JobId, HoldLease>& leases() const { return leases_; }

  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  std::uint64_t heartbeats_acked() const { return heartbeats_acked_; }
  std::uint64_t lease_grants() const { return lease_grants_; }
  std::uint64_t lease_renewals() const { return lease_renewals_; }
  std::uint64_t lease_expiries() const { return lease_expiries_; }
  /// Side-effecting calls rejected for carrying a stale fencing token.
  std::uint64_t stale_fence_rejections() const {
    return stale_fence_rejections_;
  }
  /// Starts that executed despite a stale fence — the runtime tripwire
  /// behind the no-start-with-stale-fence invariant; always 0 unless the
  /// dispatcher gate is bypassed.
  std::uint64_t stale_fence_starts() const { return stale_fence_starts_; }
  /// Decision paths that classified a mate as `suspected` (detector phase
  /// between alive and confirmed-dead): the job held/yielded instead of
  /// starting unsynchronized.
  std::uint64_t suspected_status_decisions() const {
    return suspected_status_decisions_;
  }
  /// Leases whose expiry is more than two heartbeat periods overdue while
  /// their job still holds nodes — the lease-expiry-respected invariant.
  std::uint64_t lease_expiry_violations(Time now) const;

  // -- gang costart layer (two-phase k-of-N starts) ----------------------
  /// Members this domain placed into a fenced prepared hold.
  std::uint64_t gangs_prepared() const { return gangs_prepared_; }
  /// Coordinator-side: gang rounds that committed (one per gang start).
  std::uint64_t gangs_committed() const { return gangs_committed_; }
  /// Coordinator-side: prepare rounds aborted (holds released, backoff).
  std::uint64_t gangs_aborted() const { return gangs_aborted_; }
  /// Victim-side: holds force-yielded by a deadlock-resolution order.
  std::uint64_t gangs_victimized() const { return gangs_victimized_; }
  /// Jobs on this domain that started through a gang commit — the basis of
  /// the gang-atomicity invariant (a committed gang must fully start).
  const std::set<JobId>& gang_started_jobs() const { return gang_started_; }
  /// Jobs currently sitting in a prepared (fenced, leased) hold.
  const std::set<JobId>& gang_prepared_jobs() const { return gang_prepared_; }

  /// Attaches a lifecycle event log (not owned; may be shared across
  /// domains).  Pass nullptr to detach.  The cluster records under its
  /// registration index on the engine, which orders same-time entries of
  /// the shared log (EventLog::events()).
  void set_event_log(EventLog* log) { event_log_ = log; }

  /// Schedules a scheduling iteration at the current time (coalesced).
  void request_iteration();

  // -- crash-consistent persistence (core/journal.h) ---------------------

  /// Outcome of one journal recovery.  The salvage fields are the
  /// zero-silent-loss contract: whatever the replay could not restore is
  /// counted here, never quietly dropped.
  struct RecoveryStats {
    std::size_t records_replayed = 0;  ///< snapshot + tail records applied
    std::size_t bytes_scanned = 0;     ///< journal bytes examined
    bool tail_torn = false;            ///< the torn-tail rule fired
    std::uint64_t incarnation = 0;     ///< incarnation after the bump
    double replay_seconds = 0.0;       ///< wall-clock spent wiping+replaying

    // -- salvage accounting (storage fault plane) ------------------------
    std::size_t corrupt_regions = 0;   ///< unreadable byte ranges skipped
    std::size_t bytes_skipped = 0;     ///< bytes inside those regions
    std::uint64_t seq_holes = 0;       ///< gaps in the record sequence
    std::uint64_t records_missing = 0; ///< sequence numbers lost in holes
    /// Intact records beyond the first hole: replaying them over missing
    /// intermediate state would be unsound, so they are dropped — and
    /// counted.
    std::uint64_t records_dropped = 0;
    std::uint64_t duplicates_skipped = 0;  ///< repeated seqs not re-applied
    /// The newest snapshot failed verification; an older generation was
    /// applied with a longer tail replay.
    bool snapshot_fallback = false;
    std::uint64_t snapshot_generation = 0; ///< generation actually applied
    int read_retries = 0;              ///< transient read errors retried

    /// True when the journal image could not be fully restored — every
    /// such loss is itemized above.
    bool data_loss_reported() const {
      return corrupt_regions > 0 || seq_holes > 0 || records_missing > 0 ||
             records_dropped > 0 || duplicates_skipped > 0 ||
             snapshot_fallback;
    }
  };

  /// Attaches a write-ahead journal (not owned; nullptr detaches).  Writes
  /// an initial snapshot (which carries the incarnation) so the journal is
  /// always recoverable on its own.  When `compact_every` > 0, the journal
  /// is compacted back to a single snapshot record every time that many
  /// records accumulate.
  void set_journal(Journal* journal, std::uint64_t compact_every = 0);
  Journal* journal() { return journal_; }

  /// Daemon incarnation: starts at 1, bumped by every recovery.
  std::uint64_t incarnation() const { return incarnation_; }

  /// Full crash recovery on this object: cancels tracked timers, wipes all
  /// mutable state, applies the journal's snapshot, replays the tail
  /// (stopping at a torn frame), re-arms timers, bumps the incarnation and
  /// journals it.  The journal stays attached for the new life.
  RecoveryStats recover_from_journal(Journal& journal);

  /// Serializes the complete mutable state (including the scheduler's) in a
  /// canonical order.  Construction facts (capacity, policy, config, peers)
  /// are not included.
  void write_snapshot(WireWriter& w) const;

  /// Wipes state and applies a snapshot written by write_snapshot().  The
  /// caller must advance the engine to the snapshot time and then call
  /// rearm_after_restore() (CoupledSim::restore does both).
  void restore_snapshot(WireReader& r);

  /// Re-arms completion/iteration/tick/periodic/retry timers from restored
  /// state at their absolute journaled times.  Idempotent per recovery.
  void rearm_after_restore();

 private:
  /// Journaling wrapper around Algorithm 1: logs/journals the first-ready
  /// transition and any degraded-mode set/counter deltas around the
  /// decision.
  RunDecision run_job_hook(RuntimeJob& job, bool try_context);

  /// The paper's Run_Job coscheduling logic (Algorithm 1).  `try_context`
  /// is true when invoked underneath a remote tryStartMate: the job must
  /// either start or decline without side effects (no hold/yield).
  RunDecision run_job_decision(RuntimeJob& job, bool try_context);

  /// Applies the local scheme + enhancement thresholds (§IV-E2).  `force`
  /// overrides the configured scheme (gang paths yield while backing off
  /// regardless of the hold/yield setting); enhancement thresholds only
  /// apply to the configured scheme.
  RunDecision scheme_decision(RuntimeJob& job, bool try_context,
                              std::optional<Scheme> force = std::nullopt);

  // -- gang costart internals --------------------------------------------
  bool gang_on() const { return cfg_.enabled && cfg_.gang.two_phase; }
  /// One remote member of a gang, as seen by the coordinator.
  struct GangMate {
    PeerClient* peer = nullptr;
    std::int32_t peer_index = -1;
    JobId id = kNoJob;
  };
  /// Coordinator side of the two-phase costart: prepare every member, then
  /// commit all (kStart) or abort every prepared hold and back off (kYield).
  RunDecision gang_costart(RuntimeJob& job,
                           const std::vector<GangMate>& members,
                           bool& transport_fault);
  /// Run_Job hook that places the member into a fenced leased hold
  /// (journals kHold, arms the breaker, grants a self-expiring lease).
  RunDecision gang_hold_hook(RuntimeJob& job);
  /// Deterministic jittered exponential backoff for re-prepare attempts.
  Duration gang_backoff(JobId job, std::uint32_t attempt) const;

  void track_dependency(const JobSpec& spec);
  void do_submit(const JobSpec& spec);
  void arm_periodic_iteration();
  void on_job_started(const RuntimeJob& job);
  void on_job_finished(JobId id);
  void schedule_hold_release(JobId id);
  void schedule_yield_retry(JobId id);
  void log_event(JobEventKind kind, const JobSpec& spec);

  // Timer event bodies, named so recovery can re-arm them at absolute
  // journaled times.
  void run_iteration_body();
  void hold_release_tick();
  void periodic_body();
  void arm_yield_retry_event(Time at, JobId id);

  // -- liveness internals ------------------------------------------------
  bool liveness_on() const {
    return cfg_.liveness.enabled && !peers_.empty();
  }
  void arm_liveness_tick();
  /// Heartbeat round: probe every peer, feed the detectors, renew leases
  /// backed by live mates, expire the rest.
  void liveness_body();
  /// Grants (or re-grants) the hold lease for `job` against blocking peer
  /// `peer` (journal-before-mutate).
  void grant_lease(JobId job, std::int32_t peer);
  /// Expires one lease: advances the fencing epoch, force-releases the hold
  /// and requeues the job (a confirmed-dead mate then starts it
  /// unsynchronized at the next iteration).
  void expire_lease(JobId job, bool mate_dead);

  // -- journaling internals ----------------------------------------------
  bool journaling() const { return journal_ != nullptr && !replaying_; }
  /// Group-commit point at the end of every journaling entry body; also
  /// triggers compaction once compact_every_ records accumulate.
  void journal_commit();
  /// ENOSPC ladder step: fold the whole tail into one snapshot (freeing
  /// quota); if even that does not fit, degrade the journal to memory.
  void emergency_compact();
  void wipe_for_recovery();
  void apply_snapshot(WireReader& r);
  void apply_record(const JournalRecord& rec);
  /// Picks the newest snapshot record that verifies (checksum + parse) and
  /// applies it, walking back a generation per failure.  Returns the index
  /// into `records` or records.size() when none verifies.
  std::size_t apply_verified_snapshot(const std::vector<JournalRecord>& records,
                                      RecoveryStats& stats);
  /// Replays the salvaged tail after the applied snapshot: sorts by
  /// sequence number (healing reordered writes), skips duplicates and
  /// rejected snapshots, and stops at the first hole — everything beyond it
  /// is counted into `stats`, never silently applied.
  void replay_salvaged_tail(const std::vector<JournalRecord>& records,
                            std::size_t snap_idx, RecoveryStats& stats);

  Engine& engine_;
  std::string name_;
  SourceId source_;
  CoschedConfig cfg_;
  SchedulerConfig sched_cfg_;
  Scheduler sched_;

  std::vector<PeerClient*> peers_;
  std::unordered_map<GroupId, JobId> group_to_job_;
  std::unordered_map<JobId, JobSpec> expected_;   ///< registered, unsubmitted
  /// dependency -> (dependent job, think-time delay); drained at finish.
  std::unordered_multimap<JobId, std::pair<JobId, Duration>> dependents_;
  std::unordered_set<JobId> committing_;          ///< report kStarting
  bool iteration_pending_ = false;
  bool release_tick_pending_ = false;
  bool periodic_armed_ = false;
  EventLog* event_log_ = nullptr;
  /// A grow-only id set kept as an ascending vector, so write_snapshot()
  /// emits it as it stands instead of hash-walking and sorting it.
  class AscendingIds {
   public:
    /// Adds `id`; true when it was not present yet.
    bool insert(JobId id);
    void clear() { ids_.clear(); }
    const std::vector<JobId>& ids() const { return ids_; }

   private:
    std::vector<JobId> ids_;
  };
  /// Jobs whose first kReady was logged.
  AscendingIds ready_logged_;
  /// Jobs whose latest decision path hit a transport fault; membership makes
  /// a subsequent forced release fault-attributable.
  std::unordered_set<JobId> fault_seen_;
  /// Jobs whose start decision was taken under a transport fault; confirmed
  /// as unsynchronized starts when the start actually lands.
  std::unordered_set<JobId> unsync_pending_;

  std::uint64_t iterations_run_ = 0;
  std::uint64_t try_start_requests_ = 0;
  std::uint64_t forced_releases_ = 0;
  std::uint64_t unknown_status_decisions_ = 0;
  std::uint64_t unsync_starts_ = 0;
  std::uint64_t degraded_forced_releases_ = 0;

  // -- liveness layer ------------------------------------------------------
  /// Per-peer detector + last-heard payload, parallel to peers_.
  struct PeerState {
    FailureDetector detector;
    HeartbeatInfo info;
    bool ever_heard = false;
  };
  std::vector<PeerState> peer_state_;
  /// Active hold leases by job.  Ordered so snapshots and expiry scans are
  /// deterministic.
  std::map<JobId, HoldLease> leases_;
  /// Low 32 bits of the fencing epoch; bumped on every lease expiry.  The
  /// incarnation forms the high bits (see make_fence_token).
  std::uint32_t fence_counter_ = 0;
  bool liveness_armed_ = false;
  Time liveness_at_ = kNoTime;
  std::optional<EventId> liveness_event_;
  /// Job whose latest admit_fence() verdict was "stale" — consumed by
  /// try_start_mate/start_job to detect a bypassed gate.
  JobId pending_stale_fence_ = kNoJob;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t heartbeats_acked_ = 0;
  std::uint64_t lease_grants_ = 0;
  std::uint64_t lease_renewals_ = 0;
  std::uint64_t lease_expiries_ = 0;
  std::uint64_t stale_fence_rejections_ = 0;
  std::uint64_t stale_fence_starts_ = 0;
  std::uint64_t suspected_status_decisions_ = 0;
  /// Peer index that blocked the most recent scheme_decision (-1 = none);
  /// the lease grant records it as the renewal source.
  std::int32_t blocking_peer_ = -1;

  // -- gang costart layer ---------------------------------------------------
  /// Members currently in a prepared hold (ordered: snapshots are canonical).
  std::set<JobId> gang_prepared_;
  /// Jobs started via a gang commit (never shrinks; atomicity witness).
  std::set<JobId> gang_started_;
  /// Re-prepare backoff deadline per local gang job (coordinator/victim).
  std::map<JobId, Time> gang_backoff_until_;
  /// Abort/victim attempt count per job, feeding the backoff exponent.
  std::map<JobId, std::uint32_t> gang_attempts_;
  std::uint64_t gangs_prepared_ = 0;
  std::uint64_t gangs_committed_ = 0;
  std::uint64_t gangs_aborted_ = 0;
  std::uint64_t gangs_victimized_ = 0;

  // -- crash-consistent persistence ---------------------------------------
  Journal* journal_ = nullptr;   ///< not owned
  std::uint64_t compact_every_ = 0;
  bool replaying_ = false;
  std::uint64_t incarnation_ = 1;
  /// Times the journal hit ENOSPC and entered the degradation ladder.
  std::uint64_t enospc_events_ = 0;
  /// Emergency compactions that successfully recovered journal space.
  std::uint64_t emergency_compactions_ = 0;
  /// True while start_job() promotes a holder, so the kStart record can
  /// distinguish holding-origin from queued-origin starts.
  bool starting_from_hold_ = false;
  /// Tracked timers a crash cancels and recovery re-arms.  Untracked events
  /// (trace submits, yield retries, dependency wakes) survive a crash and
  /// carry state guards instead.
  std::unordered_map<JobId, EventId> completion_events_;
  std::optional<EventId> iteration_event_;
  std::optional<EventId> tick_event_;
  std::optional<EventId> periodic_event_;
  Time release_tick_at_ = kNoTime;  ///< absolute time of the armed tick
  Time periodic_at_ = kNoTime;      ///< absolute time of the armed periodic
  /// Pending yield-retry checks as (absolute time, job); snapshotted so a
  /// fresh-process restore can re-arm them.
  std::set<std::pair<Time, JobId>> yield_retries_;
  /// Timestamp of the newest kIterate record seen during replay; kNoTime
  /// outside recovery.  Lets rearm_after_restore() drop yield retries at the
  /// crash instant that provably fired before the crash (retries at a
  /// timestamp always run before the iteration armed there).
  Time replay_last_iterate_ = kNoTime;
};

}  // namespace cosched
