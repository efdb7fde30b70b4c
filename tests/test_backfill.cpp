// EASY-backfilling behaviour of the Scheduler (paper: "WFP plus backfilling",
// citing Tsafrir et al. [31]).
#include <gtest/gtest.h>

#include "sched/scheduler.h"

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

Scheduler make_sched(NodeCount capacity, SchedulerConfig cfg = {}) {
  return Scheduler(capacity, make_policy("fcfs"), cfg);
}

TEST(Backfill, ShortJobJumpsBlockedHead) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 10000, 80, 10000), 0);   // running til 10000
  s.iterate(0);
  s.submit(spec(2, 1, 5000, 60, 5000), 1);     // head: blocked (needs 60)
  s.submit(spec(3, 2, 1000, 20, 1000), 2);     // short: fits in window
  const auto started = s.iterate(10);
  ASSERT_EQ(started, (std::vector<JobId>{3}));
  EXPECT_EQ(s.lookup(2)->state, JobState::kQueued);
}

TEST(Backfill, LongJobMustNotDelayHead) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 10000, 50, 10000), 0);   // running til 10000
  s.iterate(0);
  // Head needs 80 nodes; shadow = 10000, extra = (50 free + 50 freed) - 80
  // = 20 nodes usable past the shadow.
  s.submit(spec(2, 1, 5000, 80, 5000), 1);
  // Two 10-node shadow-crossing jobs exhaust the extra budget; the third is
  // refused even though 30 nodes are still physically free.
  s.submit(spec(3, 2, 20000, 10, 20000), 2);
  s.submit(spec(4, 3, 20000, 10, 20000), 3);
  s.submit(spec(5, 4, 20000, 10, 20000), 4);
  const auto started = s.iterate(10);
  EXPECT_EQ(started, (std::vector<JobId>{3, 4}));
  EXPECT_EQ(s.lookup(5)->state, JobState::kQueued);
  EXPECT_EQ(s.pool().free(), 30);
}

TEST(Backfill, DisabledStopsAtBlockedHead) {
  SchedulerConfig cfg;
  cfg.backfill = false;
  Scheduler s = make_sched(100, cfg);
  s.submit(spec(1, 0, 10000, 80, 10000), 0);
  s.iterate(0);
  s.submit(spec(2, 1, 5000, 60, 5000), 1);
  s.submit(spec(3, 2, 1000, 10, 1000), 2);
  const auto started = s.iterate(10);
  EXPECT_TRUE(started.empty());  // strict FCFS: nothing may pass the head
}

TEST(Backfill, HeadStartsWhenNodesFree) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 1000, 80, 1000), 0);
  s.iterate(0);
  s.submit(spec(2, 1, 500, 60, 500), 1);
  s.iterate(1);
  s.finish(1, 1000);
  const auto started = s.iterate(1000);
  EXPECT_EQ(started, (std::vector<JobId>{2}));
}

TEST(Backfill, BackfilledJobsRunInPriorityOrder) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 10000, 90, 10000), 0);
  s.iterate(0);
  s.submit(spec(2, 1, 5000, 50, 5000), 1);   // blocked head
  s.submit(spec(3, 2, 100, 5, 100), 2);
  s.submit(spec(4, 3, 100, 5, 100), 3);
  const auto started = s.iterate(10);
  EXPECT_EQ(started, (std::vector<JobId>{3, 4}));
}

TEST(Backfill, ShadowAccountsMultipleRunningJobs) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 1000, 50, 1000), 0);   // frees at 1000
  s.submit(spec(2, 0, 4000, 40, 4000), 0);   // frees at 4000
  s.iterate(0);
  // Head needs 60: free 10 + 50 (at 1000) = 60 -> shadow = 1000.
  s.submit(spec(3, 1, 5000, 60, 5000), 1);
  // A 10-node job ending by t=1000 backfills; extra is 0, so a job crossing
  // the shadow cannot.
  s.submit(spec(4, 2, 900, 10, 900), 2);
  s.submit(spec(5, 3, 5000, 10, 5000), 3);
  const auto started = s.iterate(10);
  EXPECT_EQ(started, (std::vector<JobId>{4}));
  EXPECT_EQ(s.lookup(5)->state, JobState::kQueued);
}

TEST(Backfill, HeldNodesExcludedFromShadowSupply) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 1000, 70, 1000), 0);
  s.iterate(0, [](RuntimeJob&) { return RunDecision::kHold; });  // 70 held
  s.submit(spec(2, 1, 5000, 60, 5000), 1);  // can never fit from running ends
  s.submit(spec(3, 2, 9000, 30, 9000), 2);  // fits now
  // Shadow unknown (held nodes don't free by walltime): backfill is
  // unconstrained for fitting jobs.
  const auto started = s.iterate(10);
  EXPECT_EQ(started, (std::vector<JobId>{3}));
}

TEST(Backfill, TryStartSpecificRespectsReservation) {
  Scheduler s = make_sched(100);
  s.submit(spec(1, 0, 1000, 50, 1000), 0);
  s.submit(spec(2, 0, 4000, 40, 4000), 0);
  s.iterate(0);
  s.submit(spec(3, 1, 5000, 60, 5000), 1);  // blocked head, shadow=1000
  // A job crossing the shadow with nodes > extra(0) must be refused.
  s.submit(spec(4, 2, 5000, 10, 5000), 2);
  EXPECT_FALSE(s.try_start_specific(4, 10));
  // A job finishing before the shadow is accepted.
  s.submit(spec(5, 3, 500, 10, 500), 3);
  EXPECT_TRUE(s.try_start_specific(5, 10));
}

TEST(Backfill, TryStartSpecificIgnoresReservationWhenConfigured) {
  SchedulerConfig cfg;
  cfg.respect_reservation_on_try = false;
  Scheduler s = make_sched(100, cfg);
  s.submit(spec(1, 0, 1000, 50, 1000), 0);
  s.submit(spec(2, 0, 4000, 40, 4000), 0);
  s.iterate(0);
  s.submit(spec(3, 1, 5000, 60, 5000), 1);
  s.submit(spec(4, 2, 5000, 10, 5000), 2);
  EXPECT_TRUE(s.try_start_specific(4, 10));
}

}  // namespace
}  // namespace cosched
