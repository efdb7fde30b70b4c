#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/error.h"

namespace cosched {
namespace {

JobSpec spec(JobId id, Time submit, Duration runtime, NodeCount nodes,
             Duration walltime = 0) {
  JobSpec s;
  s.id = id;
  s.submit = submit;
  s.runtime = runtime;
  s.walltime = walltime > 0 ? walltime : runtime;
  s.nodes = nodes;
  return s;
}

Scheduler make_sched(NodeCount capacity, const std::string& policy = "fcfs",
                     SchedulerConfig cfg = {}) {
  return Scheduler(capacity, make_policy(policy), cfg);
}

TEST(Scheduler, StartsFittingJobImmediately) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 50), 0);
  const auto started = s.iterate(0);
  ASSERT_EQ(started, (std::vector<JobId>{1}));
  EXPECT_EQ(s.lookup(1)->state, JobState::kRunning);
  EXPECT_EQ(s.lookup(1)->start, 0);
  EXPECT_EQ(s.pool().busy(), 50);
}

TEST(Scheduler, MultipleJobsStartInOneIteration) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 40), 0);
  s.submit(spec(2, 1, 600, 40), 0);
  s.submit(spec(3, 2, 600, 40), 0);  // does not fit
  const auto started = s.iterate(10);
  EXPECT_EQ(started.size(), 2u);
  EXPECT_EQ(s.queue_length(), 1u);
}

TEST(Scheduler, FcfsOrder) {
  Scheduler s = make_sched(100);
  s.submit(spec(2, 10, 600, 100), 10);
  s.submit(spec(1, 5, 600, 100), 10);
  const auto started = s.iterate(10);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], 1);  // earlier submit runs first
}

TEST(Scheduler, FinishFreesNodes) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 100), 0);
  s.iterate(0);
  s.finish(1, 600);
  EXPECT_EQ(s.pool().busy(), 0);
  EXPECT_EQ(s.lookup(1)->state, JobState::kFinished);
  EXPECT_EQ(s.lookup(1)->end, 600);
  EXPECT_EQ(s.finished_count(), 1u);
}

TEST(Scheduler, OnStartCallbackFires) {
  Scheduler s = make_sched(100);
  std::vector<JobId> seen;
  s.set_on_start([&](const RuntimeJob& j) { seen.push_back(j.spec.id); });
  s.submit(spec(1, 0, 600, 10), 0);
  s.iterate(0);
  EXPECT_EQ(seen, (std::vector<JobId>{1}));
}

TEST(Scheduler, HookHoldOccupiesNodes) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  const auto started = s.iterate(0, [](RuntimeJob&) {
    return RunDecision::kHold;
  });
  EXPECT_TRUE(started.empty());
  const RuntimeJob* j = s.find(1);
  EXPECT_EQ(j->state, JobState::kHolding);
  EXPECT_EQ(j->allocated, 60);
  EXPECT_EQ(j->hold_since, 0);
  EXPECT_EQ(s.pool().held(), 60);
  EXPECT_EQ(s.queue_length(), 0u);
}

TEST(Scheduler, HookYieldSkipsAndCounts) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.submit(spec(2, 1, 600, 60), 0);
  int calls = 0;
  const auto started = s.iterate(5, [&](RuntimeJob& j) {
    ++calls;
    return j.spec.id == 1 ? RunDecision::kYield : RunDecision::kStart;
  });
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(started, (std::vector<JobId>{2}));
  EXPECT_EQ(s.lookup(1)->yield_count, 1);
  EXPECT_EQ(s.lookup(1)->state, JobState::kQueued);
  EXPECT_EQ(s.pool().held(), 0);
}

TEST(Scheduler, SkipDoesNotCountAsYield) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.iterate(0, [](RuntimeJob&) { return RunDecision::kSkip; });
  EXPECT_EQ(s.lookup(1)->yield_count, 0);
  EXPECT_EQ(s.lookup(1)->state, JobState::kQueued);
}

TEST(Scheduler, FirstReadyRecordedOnce) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.iterate(10, [](RuntimeJob&) { return RunDecision::kYield; });
  s.iterate(50, [](RuntimeJob&) { return RunDecision::kYield; });
  EXPECT_EQ(s.lookup(1)->first_ready, 10);
  s.iterate(100);
  EXPECT_EQ(s.lookup(1)->start, 100);
  EXPECT_EQ(s.lookup(1)->sync_time(), 90);
}

TEST(Scheduler, StartHoldingPromotes) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.iterate(0, [](RuntimeJob&) { return RunDecision::kHold; });
  s.start_holding(1, 300);
  const RuntimeJob* j = s.find(1);
  EXPECT_EQ(j->state, JobState::kRunning);
  EXPECT_EQ(j->start, 300);
  EXPECT_EQ(j->sync_time(), 300);
  EXPECT_EQ(s.pool().busy(), 60);
  EXPECT_EQ(s.pool().held(), 0);
}

TEST(Scheduler, ReleaseHoldRequeuesDemoted) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.iterate(0, [](RuntimeJob&) { return RunDecision::kHold; });
  s.release_hold(1, 1200);
  const RuntimeJob* j = s.find(1);
  EXPECT_EQ(j->state, JobState::kQueued);
  EXPECT_TRUE(j->demoted);
  EXPECT_EQ(j->forced_releases, 1);
  EXPECT_EQ(s.pool().held(), 0);
  EXPECT_EQ(s.queue_length(), 1u);
}

TEST(Scheduler, DemotedJobSortsLastThenRecovers) {
  Scheduler s = make_sched(100, "fcfs");
  s.submit(spec(1, 0, 600, 100), 0);
  s.submit(spec(2, 50, 600, 100), 50);
  s.iterate(50, [](RuntimeJob& j) {
    return j.spec.id == 1 ? RunDecision::kHold : RunDecision::kSkip;
  });
  s.release_hold(1, 1200);
  // Job 1 (earlier submit) would normally outrank job 2, but demotion puts
  // it last for this iteration.
  const auto started = s.iterate(1200);
  ASSERT_EQ(started, (std::vector<JobId>{2}));
  // Demotion cleared afterwards: job 1 outranks a later job again.
  s.finish(2, 1800);
  s.submit(spec(3, 1700, 600, 100), 1800);
  const auto started2 = s.iterate(1800);
  ASSERT_EQ(started2, (std::vector<JobId>{1}));
}

TEST(Scheduler, TryStartSpecificStartsFittingJob) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  EXPECT_TRUE(s.try_start_specific(1, 5));
  EXPECT_EQ(s.lookup(1)->state, JobState::kRunning);
  EXPECT_EQ(s.lookup(1)->start, 5);
}

TEST(Scheduler, TryStartSpecificFailsWhenFull) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 80), 0);
  s.iterate(0);
  s.submit(spec(2, 10, 600, 40), 10);
  EXPECT_FALSE(s.try_start_specific(2, 10));
  EXPECT_EQ(s.lookup(2)->state, JobState::kQueued);
}

TEST(Scheduler, TryStartSpecificUnknownOrRunning) {
  Scheduler s = make_sched(100);
  EXPECT_FALSE(s.try_start_specific(99, 0));
  s.submit(spec(1, 0, 600, 10), 0);
  s.iterate(0);
  EXPECT_FALSE(s.try_start_specific(1, 0));  // already running
}

TEST(Scheduler, TryStartSpecificHookDeclines) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  EXPECT_FALSE(s.try_start_specific(
      1, 0, [](RuntimeJob&) { return RunDecision::kSkip; }));
  EXPECT_EQ(s.lookup(1)->state, JobState::kQueued);
  EXPECT_EQ(s.pool().free(), 100);
}

TEST(Scheduler, KillQueuedJob) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.kill(1, 5);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.lookup(1)->state, JobState::kFinished);
}

TEST(Scheduler, KillRunningJobFreesNodes) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.iterate(0);
  s.kill(1, 100);
  EXPECT_EQ(s.pool().busy(), 0);
  EXPECT_EQ(s.lookup(1)->end, 100);
}

TEST(Scheduler, KillHoldingJobFreesHeldNodes) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  s.iterate(0, [](RuntimeJob&) { return RunDecision::kHold; });
  s.kill(1, 100);
  EXPECT_EQ(s.pool().held(), 0);
}

TEST(Scheduler, DuplicateSubmitThrows) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 10), 0);
  EXPECT_THROW(s.submit(spec(1, 5, 600, 10), 5), InvariantError);
}

TEST(Scheduler, OversizeJobRejectedAtSubmit) {
  Scheduler s = make_sched(100);
  EXPECT_THROW(s.submit(spec(1, 0, 600, 200), 0), InvariantError);
}

TEST(Scheduler, WfpPrioritizesLongWaiters) {
  Scheduler s = make_sched(100, "wfp");
  // Job 2 has waited much longer relative to its walltime.
  s.submit(spec(1, 900, 600, 100, 6000), 900);
  s.submit(spec(2, 0, 600, 100, 600), 900);
  const auto started = s.iterate(1000);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], 2);
}

TEST(Scheduler, YieldedJobRetriesAndEventuallyStarts) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  int attempts = 0;
  // Yield three times, then start: yield must never lose the job.
  for (int i = 0; i < 3; ++i)
    s.iterate(i * 100, [&](RuntimeJob&) {
      ++attempts;
      return RunDecision::kYield;
    });
  const auto started = s.iterate(300);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(started, (std::vector<JobId>{1}));
  EXPECT_EQ(s.lookup(1)->yield_count, 3);
  EXPECT_EQ(s.lookup(1)->first_ready, 0);
  EXPECT_EQ(s.lookup(1)->sync_time(), 300);
}

TEST(Scheduler, HoldReleaseHoldCycleKeepsAccountingBalanced) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 60), 0);
  for (Time t = 0; t < 5000; t += 1000) {
    s.iterate(t, [](RuntimeJob&) { return RunDecision::kHold; });
    EXPECT_EQ(s.pool().held(), 60);
    s.release_hold(1, t + 500);
    EXPECT_EQ(s.pool().held(), 0);
    EXPECT_EQ(s.pool().free(), 100);
  }
  EXPECT_EQ(s.lookup(1)->forced_releases, 5);
  // 5 episodes x 60 nodes x 500 s of held time.
  EXPECT_DOUBLE_EQ(s.pool().held_node_seconds(), 5.0 * 60 * 500);
}

TEST(Scheduler, ZeroCapacityRejected) {
  EXPECT_THROW(Scheduler(0, make_policy("fcfs")), InvariantError);
}

TEST(Scheduler, HoldingIdsListed) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 600, 30), 0);
  s.submit(spec(2, 0, 600, 30), 0);
  s.iterate(0, [](RuntimeJob&) { return RunDecision::kHold; });
  EXPECT_EQ(s.holding_ids(), (std::vector<JobId>{1, 2}));
}

}  // namespace
}  // namespace cosched
