// Finished-job rows: Scheduler::snapshot() copies the archived rows instead
// of sorting and encoding every job, and must still write the bytes of the
// sort-and-encode writer it replaced.  Also pins restore(): it rebuilds the
// row store byte for byte and rejects rows that cannot be finished jobs, and
// journal replay refuses a kReady record for a job that already finished.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "core/coupled_sim.h"
#include "core/journal.h"
#include "core_test_util.h"
#include "proto/message.h"
#include "sched/policy.h"
#include "sched/scheduler.h"

namespace cosched {
namespace {

using Table = std::unordered_map<JobId, RuntimeJob>;

/// Scheduler::snapshot() as it was while finished jobs sat in a hash map:
/// each table is walked into (id, row) pairs, sorted by id, and every field
/// of every row is encoded.  `running_ends` is the running-end index order.
std::vector<std::uint8_t> reference_snapshot(
    const NodePool::Accounting& a, const Table& live, const Table& finished,
    const std::vector<JobId>& running_ends) {
  WireWriter w;
  w.put_i64(a.busy);
  w.put_i64(a.held);
  w.put_i64(a.last_update);
  w.put_double(a.busy_ns);
  w.put_double(a.held_ns);
  const auto write_jobs = [&w](const Table& table) {
    std::vector<std::pair<JobId, const RuntimeJob*>> rows;
    for (const auto& [id, job] : table) rows.emplace_back(id, &job);
    std::sort(rows.begin(), rows.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    w.put_u64(rows.size());
    for (const auto& row : rows) {
      const RuntimeJob& j = *row.second;
      encode_job_spec(w, j.spec);
      w.put_u8(static_cast<std::uint8_t>(j.state));
      w.put_i64(j.start);
      w.put_i64(j.end);
      w.put_i64(j.first_ready);
      w.put_i64(j.hold_since);
      w.put_i64(j.allocated);
      w.put_i64(j.yield_count);
      w.put_i64(j.forced_releases);
      w.put_bool(j.demoted);
      w.put_double(j.priority_boost);
    }
  };
  write_jobs(live);
  write_jobs(finished);
  w.put_u64(running_ends.size());
  for (JobId id : running_ends) w.put_i64(id);
  return w.take();
}

/// Every walltime is a distinct multiple of 100,000 s plus one and every
/// event happens before t = 100,000, so no two running jobs share a
/// walltime end and the running-end order is simply by end.
constexpr Time kHorizon = 100000;

JobSpec churn_spec(JobId id) {
  JobSpec s;
  s.id = id;
  s.nodes = 1 + id % 40;
  s.walltime = id * kHorizon + 1;
  s.runtime = s.walltime;
  s.submit = 0;
  return s;
}

/// A scheduler driven through holds, starts, finishes and kills in a
/// shuffled order, next to an independent model of its finished table (each
/// job copied just before it leaves the live table, as the hash-map archive
/// stored it).
struct Churn {
  Scheduler s{1000, make_policy("fcfs")};
  Table finished;
  std::mt19937_64 rng{20260418};
  Time now = 0;

  RunJobHook hook() const {
    return [](RuntimeJob& j) {
      return j.spec.id % 7 == 0 ? RunDecision::kHold : RunDecision::kStart;
    };
  }

  void archive_copy(JobId id) {
    RuntimeJob j = *s.find(id);
    j.state = JobState::kFinished;
    j.end = now;
    finished.emplace(id, j);
  }

  /// Finishes or kills `steps` random live jobs, iterating in between.
  void run(int steps) {
    for (int i = 0; i < steps && !s.jobs().empty(); ++i) {
      now += 1 + static_cast<Time>(rng() % 50);
      ASSERT_LT(now, kHorizon);
      const std::vector<const RuntimeJob*> live = s.live_by_id();
      const JobId id = live[rng() % live.size()]->spec.id;
      const JobState state = s.find(id)->state;
      archive_copy(id);
      if (state == JobState::kRunning && rng() % 4 != 0)
        s.finish(id, now);
      else
        s.kill(id, now);
      s.iterate(now, hook());
    }
  }

  std::vector<JobId> running_ends() const {
    std::vector<std::pair<Time, JobId>> ends;
    for (const auto& [id, j] : s.jobs())
      if (j.state == JobState::kRunning)
        ends.emplace_back(j.start + j.spec.walltime, id);
    std::sort(ends.begin(), ends.end());
    std::vector<JobId> ids;
    for (const auto& e : ends) ids.push_back(e.second);
    return ids;
  }

  std::vector<std::uint8_t> reference() const {
    return reference_snapshot(s.pool().accounting(), s.jobs(), finished,
                              running_ends());
  }
};

std::vector<std::uint8_t> snapshot_of(const Scheduler& s) {
  WireWriter w;
  s.snapshot(w);
  return w.take();
}

void start_churn(Churn& c, int jobs) {
  // Submitted in shuffled id order so the live table's hash order is far
  // from id order.
  std::vector<JobId> ids;
  for (JobId id = 1; id <= jobs; ++id) ids.push_back(id);
  std::shuffle(ids.begin(), ids.end(), c.rng);
  for (JobId id : ids) c.s.submit(churn_spec(id), 0);
  c.s.iterate(0, c.hook());
}

TEST(SnapshotRowEquivalence, ShuffledFinishesMatchTheSortAndEncodeWriter) {
  Churn c;
  start_churn(c, 240);
  EXPECT_EQ(snapshot_of(c.s), c.reference());
  for (int round = 0; round < 6; ++round) {
    c.run(30);
    ASSERT_EQ(c.s.finished_count(), c.finished.size());
    EXPECT_EQ(snapshot_of(c.s), c.reference()) << "round " << round;
  }
  // Live jobs of every kind remain next to the finished rows.
  EXPECT_GT(c.s.queue_length(), 0u);
  EXPECT_GT(c.s.running_count(), 0u);
  EXPECT_GT(c.s.holding_count(), 0u);
  // The model and the archive agree job by job, too.
  for (const auto& [id, want] : c.finished) {
    const auto got = c.s.lookup(id);
    ASSERT_TRUE(got.has_value()) << id;
    EXPECT_EQ(got->end, want.end);
    EXPECT_EQ(got->start, want.start);
    EXPECT_EQ(got->allocated, want.allocated);
  }
}

TEST(SnapshotRowEquivalence, RestoreThenSnapshotIsByteIdentical) {
  Churn c;
  start_churn(c, 160);
  c.run(90);
  const std::vector<std::uint8_t> bytes = snapshot_of(c.s);

  Scheduler restored(1000, make_policy("fcfs"));
  WireReader r(bytes);
  restored.restore(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_NO_THROW(restored.validate_indices());
  EXPECT_EQ(snapshot_of(restored), bytes);
  EXPECT_EQ(restored.finished_count(), c.s.finished_count());

  // The restored store keeps working: the same finishes land in both.
  for (JobId id : c.running_ends()) {
    c.s.finish(id, kHorizon - 1);
    restored.finish(id, kHorizon - 1);
  }
  EXPECT_EQ(snapshot_of(restored), snapshot_of(c.s));
}

TEST(SnapshotRowEquivalence, RestoreRejectsAnUnfinishedRowInTheFinishedTable) {
  Churn c;
  start_churn(c, 40);
  c.run(10);
  ASSERT_FALSE(c.finished.empty());
  Table bad = c.finished;
  bad.begin()->second.state = JobState::kRunning;
  const auto bytes = reference_snapshot(c.s.pool().accounting(), c.s.jobs(),
                                        bad, c.running_ends());
  Scheduler restored(1000, make_policy("fcfs"));
  WireReader r(bytes);
  EXPECT_THROW(restored.restore(r), InvariantError);
}

TEST(SnapshotRowEquivalence, RestoreRejectsAJobBothLiveAndFinished) {
  Churn c;
  start_churn(c, 40);
  c.run(10);
  ASSERT_FALSE(c.s.jobs().empty());
  Table finished = c.finished;
  RuntimeJob twin = c.s.jobs().begin()->second;
  twin.state = JobState::kFinished;
  finished.emplace(twin.spec.id, twin);
  const auto bytes = reference_snapshot(c.s.pool().accounting(), c.s.jobs(),
                                        finished, c.running_ends());
  Scheduler restored(1000, make_policy("fcfs"));
  WireReader r(bytes);
  EXPECT_THROW(restored.restore(r), InvariantError);
}

TEST(FinishedJobs, OutOfOrderInsertsKeepRowsInIdOrder) {
  FinishedJobs store;
  std::vector<JobId> ids;
  for (JobId id = 1; id <= 50; ++id) ids.push_back(id * 3);
  std::mt19937_64 rng(9);
  std::shuffle(ids.begin(), ids.end(), rng);
  Table model;
  for (JobId id : ids) {
    RuntimeJob j;
    j.spec = churn_spec(id);
    j.state = JobState::kFinished;
    j.start = id;
    j.end = id * 2;
    store.insert(j);
    model.emplace(id, j);
  }
  EXPECT_EQ(store.size(), 50u);
  EXPECT_THROW(store.insert(model.at(ids[7])), InvariantError);
  RuntimeJob live;
  live.spec = churn_spec(1000);
  EXPECT_THROW(store.insert(live), InvariantError);  // not finished

  JobId prev = 0;
  std::size_t seen = 0;
  store.for_each([&](const RuntimeJob& j) {
    EXPECT_GT(j.spec.id, prev);
    prev = j.spec.id;
    EXPECT_EQ(j.end, model.at(j.spec.id).end);
    ++seen;
  });
  EXPECT_EQ(seen, 50u);
  EXPECT_FALSE(store.contains(4));
  EXPECT_FALSE(store.find(4).has_value());
  ASSERT_TRUE(store.find(9).has_value());
  EXPECT_EQ(store.find(9)->end, 18);
}

// -- kReady replay ----------------------------------------------------------

TEST(ReadyReplay, ReadyRecordForAFinishedJobIsRefused) {
  // The Run_Job hook journals kReady only for a queued job, before any
  // record that could finish it.  A log that says otherwise is refused
  // rather than rewriting the finished job's first_ready.
  Trace a, b;
  a.add(testutil::job(1, 0, 10 * kMinute, 10));
  b.add(testutil::job(10, 0, 10 * kMinute, 10));
  CoupledSim sim(testutil::two_domains(kHH), {a, b});
  sim.enable_journaling();
  ASSERT_TRUE(sim.run(kDay).completed);
  ASSERT_TRUE(sim.cluster(0).scheduler().is_finished(1));

  WireWriter ready;
  ready.put_i64(1);
  ready.put_i64(0);
  sim.journal(0).append(JournalRecordKind::kReady, ready.bytes());
  sim.journal(0).commit();
  EXPECT_THROW(sim.cluster(0).recover_from_journal(sim.journal(0)),
               InvariantError);
}

TEST(ReadyReplay, ReadyRecordForAQueuedJobReplays) {
  // Control for the test above: the same journal without the stray record
  // recovers, and replay reproduces first_ready.
  Trace a, b;
  a.add(testutil::job(1, 0, 10 * kMinute, 10));
  b.add(testutil::job(10, 0, 10 * kMinute, 10));
  CoupledSim sim(testutil::two_domains(kHH), {a, b});
  sim.enable_journaling();
  ASSERT_TRUE(sim.run(kDay).completed);
  const Time first_ready = sim.cluster(0).scheduler().lookup(1)->first_ready;
  EXPECT_NO_THROW(sim.cluster(0).recover_from_journal(sim.journal(0)));
  EXPECT_EQ(sim.cluster(0).scheduler().lookup(1)->first_ready, first_ready);
}

}  // namespace
}  // namespace cosched
