// Regression tests for the incremental scheduler indices: the maintained
// running/holding/archived structures and the cached priority order must
// stay byte-equivalent to brute-force recomputation from job state, and
// finished jobs must never leak back into the hot-path scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/policy.h"
#include "sched/scheduler.h"

namespace cosched {
namespace {

JobSpec make_spec(JobId id, NodeCount nodes, Duration walltime,
                  Time submit = 0) {
  JobSpec s;
  s.id = id;
  s.nodes = nodes;
  s.walltime = walltime;
  s.runtime = walltime;
  s.submit = submit;
  return s;
}

// Brute-force reimplementation of the priority order from public state:
// score every eligible queued job, sort by (demoted last, score desc,
// submit asc, id asc).
std::vector<JobId> brute_force_order(const Scheduler& s, Time now) {
  struct Key {
    JobId id;
    bool demoted;
    double score;
    Time submit;
  };
  std::vector<Key> keys;
  for (JobId id : s.queued_ids()) {
    const RuntimeJob* job = s.find(id);
    if (!s.eligible(*job, now)) continue;
    keys.push_back(Key{id, job->demoted, s.policy().score(*job, now),
                       job->spec.submit});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.demoted != b.demoted) return !a.demoted;
    if (a.score != b.score) return a.score > b.score;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  });
  std::vector<JobId> out;
  out.reserve(keys.size());
  for (const Key& k : keys) out.push_back(k.id);
  return out;
}

// Holding set recomputed from live job state.
std::vector<JobId> brute_force_holding(const Scheduler& s) {
  std::vector<JobId> ids;
  for (const auto& [id, job] : s.jobs())
    if (job.state == JobState::kHolding) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SchedulerIndex, FinishedJobsAreArchivedAndExcludedFromLiveScans) {
  Scheduler s(100, make_policy("wfp"));
  s.submit(make_spec(1, 60, 100), 0);
  s.submit(make_spec(2, 60, 100), 0);
  s.iterate(0);

  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 1u);

  s.finish(1, 100);
  EXPECT_EQ(s.running_count(), 0u);
  EXPECT_EQ(s.finished_count(), 1u);
  // The live map no longer holds job 1...
  EXPECT_EQ(s.jobs().count(1), 0u);
  EXPECT_EQ(s.find(1), nullptr);
  EXPECT_TRUE(s.is_finished(1));
  // ...but lookups and whole-history iteration still see it.
  ASSERT_TRUE(s.lookup(1).has_value());
  EXPECT_EQ(s.lookup(1)->state, JobState::kFinished);
  EXPECT_EQ(s.lookup(1)->end, 100);
  std::size_t seen = 0;
  s.for_each_job([&](JobId, const RuntimeJob&) { ++seen; });
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(s.total_jobs(), 2u);

  // With job 1 archived nothing blocks job 2: the shadow/profile scans must
  // not count the finished job's nodes as still held.
  s.iterate(100);
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, HoldingIdsMatchesBruteForceAfterChurn) {
  Scheduler s(200, make_policy("fcfs"));
  // Hook that holds every paired job on start.
  const RunJobHook hold_paired = [](RuntimeJob& job) {
    return job.spec.is_paired() ? RunDecision::kHold : RunDecision::kStart;
  };

  for (int i = 0; i < 12; ++i) {
    JobSpec spec = make_spec(100 + i, 10, 50, 0);
    if (i % 3 == 0) spec.group = 9000 + i;  // every third job pairs → holds
    s.submit(spec, 0);
  }
  s.iterate(0, hold_paired);

  EXPECT_EQ(s.holding_ids(), brute_force_holding(s));
  EXPECT_EQ(s.holding_count(), brute_force_holding(s).size());
  ASSERT_GE(s.holding_count(), 2u);

  // Churn: start one held job, force-release another back to the queue.
  const std::vector<JobId> held = s.holding_ids();
  s.start_holding(held[0], 10);
  s.release_hold(held[1], 10);
  EXPECT_EQ(s.holding_ids(), brute_force_holding(s));

  s.kill(held[0], 20);
  s.iterate(20, hold_paired);
  EXPECT_EQ(s.holding_ids(), brute_force_holding(s));
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, PriorityOrderMatchesBruteForceAndCacheInvalidates) {
  Scheduler s(64, make_policy("wfp"));
  // Mixed sizes/walltimes/submits so WFP scores differ and vary with time.
  for (int i = 0; i < 20; ++i)
    s.submit(make_spec(i + 1, 8 + (i % 4) * 8, 100 + (i % 5) * 300, i % 3),
             i % 3);
  const Time now = 500;
  EXPECT_EQ(s.priority_order(now), brute_force_order(s, now));

  // Cached call must be byte-identical to the first.
  const std::vector<JobId> first = s.priority_order(now);
  EXPECT_EQ(s.priority_order(now), first);

  // A submit invalidates the cache; the order must track the new queue.
  s.submit(make_spec(999, 64, 10, 0), now);
  EXPECT_EQ(s.priority_order(now), brute_force_order(s, now));
  EXPECT_NE(s.priority_order(now), first);

  // Starting jobs (queue removal) invalidates too.
  s.iterate(now);
  EXPECT_EQ(s.priority_order(now), brute_force_order(s, now));
  // A different query time recomputes (WFP scores are time-dependent).
  EXPECT_EQ(s.priority_order(now + 1000), brute_force_order(s, now + 1000));
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, ValidateIndicesAfterLifecycleChurn) {
  Scheduler s(256, make_policy("wfp"));
  int flip = 0;
  const RunJobHook every_fourth_holds = [&flip](RuntimeJob&) {
    return (++flip % 4 == 0) ? RunDecision::kHold : RunDecision::kStart;
  };

  Time now = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 6; ++i)
      s.submit(make_spec(1000 * round + i + 1, 16 + 16 * (i % 3),
                         200 + 100 * (i % 4), now),
               now);
    s.iterate(now, every_fourth_holds);
    ASSERT_NO_THROW(s.validate_indices()) << "round " << round;

    // Finish every running job whose walltime has elapsed.
    std::vector<JobId> done;
    for (const auto& [id, job] : s.jobs())
      if (job.state == JobState::kRunning &&
          job.start + job.spec.walltime <= now)
        done.push_back(id);
    for (JobId id : done) s.finish(id, now);

    if (s.holding_count() > 0) {
      if (round % 2 == 0)
        s.release_hold(s.holding_ids().front(), now);
      else
        s.start_holding(s.holding_ids().front(), now);
    }
    ASSERT_NO_THROW(s.validate_indices()) << "round " << round << " churned";
    now += 150;
  }

  // Drain: run everything out and confirm the terminal state is consistent.
  for (int i = 0;
       i < 500 && (s.running_count() || s.queue_length() || s.holding_count());
       ++i) {
    while (s.holding_count() > 0) s.start_holding(s.holding_ids().front(), now);
    s.iterate(now);
    std::vector<JobId> done;
    for (const auto& [id, job] : s.jobs())
      if (job.state == JobState::kRunning &&
          job.start + job.spec.walltime <= now)
        done.push_back(id);
    for (JobId id : done) s.finish(id, now);
    now += 100;
  }
  EXPECT_EQ(s.running_count(), 0u);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.holding_count(), 0u);
  EXPECT_EQ(s.finished_count(), s.total_jobs());
  EXPECT_NO_THROW(s.validate_indices());
}

TEST(SchedulerIndex, DependentEligibilityReadsArchive) {
  Scheduler s(100, make_policy("wfp"));
  JobSpec dep = make_spec(2, 10, 50);
  dep.after = 1;
  dep.after_delay = 25;
  s.submit(make_spec(1, 10, 100), 0);
  s.submit(dep, 0);
  s.iterate(0);
  // Job 1 runs; job 2 waits on its completion + delay.
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 1u);

  s.finish(1, 100);
  s.iterate(100);  // delay not yet elapsed
  EXPECT_EQ(s.running_count(), 0u);
  s.iterate(125);  // 100 + 25: eligibility resolved via the archived record
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_NO_THROW(s.validate_indices());
}

}  // namespace
}  // namespace cosched
