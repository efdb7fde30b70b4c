// Inter-job temporal constraints: same-domain ordering dependencies
// ("preceding job" + think time) and their interaction with coscheduling —
// the paper's §VI future-work item on richer temporal constraints.
#include <gtest/gtest.h>

#include <sstream>

#include "core_test_util.h"
#include "workload/swf.h"

namespace cosched {
namespace {

using testutil::find_job;
using testutil::job;
using testutil::two_domains;

JobSpec dep_job(JobId id, Time submit, Duration runtime, NodeCount nodes,
                JobId after, Duration delay = 0, GroupId group = kNoGroup) {
  JobSpec j = job(id, submit, runtime, nodes, group);
  j.after = after;
  j.after_delay = delay;
  return j;
}

TEST(SchedulerDependency, IneligibleUntilDependencyFinishes) {
  Scheduler s(100, make_policy("fcfs"));
  s.submit(job(1, 0, 600, 30), 0);
  s.submit(dep_job(2, 0, 600, 30, /*after=*/1), 0);
  auto started = s.iterate(0);
  EXPECT_EQ(started, (std::vector<JobId>{1}));  // dep 2 invisible
  EXPECT_FALSE(s.eligible(*s.find(2), 0));
  s.finish(1, 600);
  EXPECT_TRUE(s.eligible(*s.find(2), 600));
  started = s.iterate(600);
  EXPECT_EQ(started, (std::vector<JobId>{2}));
}

TEST(SchedulerDependency, ThinkTimeDelaysEligibility) {
  Scheduler s(100, make_policy("fcfs"));
  s.submit(job(1, 0, 600, 30), 0);
  s.submit(dep_job(2, 0, 600, 30, 1, /*delay=*/300), 0);
  s.iterate(0);
  s.finish(1, 600);
  EXPECT_FALSE(s.eligible(*s.find(2), 600));
  EXPECT_FALSE(s.eligible(*s.find(2), 899));
  EXPECT_TRUE(s.eligible(*s.find(2), 900));
}

TEST(SchedulerDependency, UnknownDependencyNeverEligible) {
  Scheduler s(100, make_policy("fcfs"));
  s.submit(dep_job(2, 0, 600, 30, /*after=*/999), 0);
  EXPECT_FALSE(s.eligible(*s.find(2), 1000000));
  EXPECT_TRUE(s.iterate(0).empty());
}

TEST(SchedulerDependency, TryStartSpecificRespectsDependency) {
  Scheduler s(100, make_policy("fcfs"));
  s.submit(job(1, 0, 600, 30), 0);
  s.submit(dep_job(2, 0, 600, 30, 1), 0);
  EXPECT_FALSE(s.try_start_specific(2, 0));
  s.iterate(0);
  s.finish(1, 600);
  EXPECT_TRUE(s.try_start_specific(2, 600));
}

TEST(SchedulerDependency, IneligibleHeadDoesNotBlockQueue) {
  Scheduler s(100, make_policy("fcfs"));
  s.submit(job(1, 0, 600, 60), 0);
  s.iterate(0);
  // Job 2 (earlier submit, would be head) waits on job 1; job 3 is free.
  s.submit(dep_job(2, 1, 600, 60, 1), 1);
  s.submit(job(3, 2, 600, 40), 2);
  const auto started = s.iterate(2);
  EXPECT_EQ(started, (std::vector<JobId>{3}));
}

TEST(ClusterDependency, ChainRunsInOrder) {
  Engine engine;
  Cluster c(engine, "solo", 100, make_policy("fcfs"));
  Trace t;
  t.add(job(1, 0, 600, 100));
  t.add(dep_job(2, 0, 600, 100, 1));
  t.add(dep_job(3, 0, 600, 100, 2));
  c.load_trace(t);
  engine.run();
  EXPECT_EQ(c.scheduler().lookup(1)->start, 0);
  EXPECT_EQ(c.scheduler().lookup(2)->start, 600);
  EXPECT_EQ(c.scheduler().lookup(3)->start, 1200);
}

TEST(ClusterDependency, ThinkTimeWakesSchedulerOnQuietMachine) {
  // After job 1 ends there are no natural events until the think time
  // elapses; the cluster must wake itself.
  Engine engine;
  Cluster c(engine, "solo", 100, make_policy("fcfs"));
  Trace t;
  t.add(job(1, 0, 600, 100));
  t.add(dep_job(2, 0, 600, 100, 1, /*delay=*/1800));
  c.load_trace(t);
  engine.run();
  EXPECT_EQ(c.scheduler().lookup(2)->start, 2400);
}

TEST(ClusterDependency, DependencyFinishedBeforeDependentSubmitted) {
  Engine engine;
  Cluster c(engine, "solo", 100, make_policy("fcfs"));
  c.submit_now(job(1, 0, 100, 10));
  engine.run();  // job 1 finishes at t=100
  // Dependent with think time arrives later; must still start at
  // end(1) + delay = 100 + 500 = 600 >= its submit time.
  c.submit_now(dep_job(2, 0, 100, 10, 1, /*delay=*/500));
  engine.run();
  EXPECT_EQ(c.scheduler().lookup(2)->start, 600);
}

TEST(ClusterDependency, DependencyComposesWithCoscheduling) {
  // Post-processing job depends on the compute half of a coupled pair; the
  // pair co-starts, then the dependent runs after the compute job ends.
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 600, 50, /*group=*/7));
  a.add(dep_job(2, 0, 300, 50, 1));
  b.add(job(10, 400, 600, 30, 7));
  CoupledSim sim(specs, {a, b});
  const SimResult r = sim.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(find_job(sim, 0, 1).start, 400);   // co-start with mate
  EXPECT_EQ(find_job(sim, 0, 2).start, 1000);  // after compute finishes
  EXPECT_EQ(r.groups.groups_started_together, 1u);
}

TEST(SwfDependency, RoundTripsPrecedingJobAndThinkTime) {
  Trace t;
  t.add(job(1, 0, 600, 4));
  t.add(dep_job(2, 10, 600, 4, 1, 120));
  std::ostringstream out;
  write_swf(out, t);
  std::istringstream in(out.str());
  const Trace back = read_swf(in, "x");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.jobs()[1].after, 1);
  EXPECT_EQ(back.jobs()[1].after_delay, 120);
  EXPECT_FALSE(back.jobs()[0].has_dependency());
}

}  // namespace
}  // namespace cosched
