#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

namespace cosched {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, 0, [&] { order.push_back(3); });
  e.schedule_at(10, 0, [&] { order.push_back(1); });
  e.schedule_at(20, 0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeOrderedByPriorityThenSeq) {
  Engine e;
  std::vector<std::string> order;
  e.schedule_at(5, EventPriority::kSchedule, [&] { order.push_back("sched"); });
  e.schedule_at(5, EventPriority::kJobEnd, [&] { order.push_back("end"); });
  e.schedule_at(5, EventPriority::kJobSubmit, [&] { order.push_back("sub1"); });
  e.schedule_at(5, EventPriority::kJobSubmit, [&] { order.push_back("sub2"); });
  e.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"end", "sub1", "sub2", "sched"}));
}

TEST(Engine, HandlersCanScheduleMoreEvents) {
  Engine e;
  std::vector<Time> fired;
  e.schedule_at(1, 0, [&] {
    fired.push_back(e.now());
    e.schedule_in(9, 0, [&] { fired.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(fired, (std::vector<Time>{1, 10}));
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.schedule_at(10, 0, [] {});
  e.run();
  EXPECT_EQ(e.now(), 10);
  EXPECT_THROW(e.schedule_at(5, 0, [] {}), InvariantError);
}

TEST(Engine, SameTimeAsNowIsAllowed) {
  Engine e;
  int count = 0;
  e.schedule_at(10, 0, [&] {
    e.schedule_at(10, 50, [&] { ++count; });
  });
  e.run();
  EXPECT_EQ(count, 1);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(10, 0, [&] { ++fired; });
  e.schedule_at(5, 0, [&] { EXPECT_TRUE(e.cancel(id)); });
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(e.cancel(id));  // already cancelled
}

TEST(Engine, CancelAfterRunReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1, 0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, StaleHandleNeverCancelsTheSlotsNextEvent) {
  Engine e;
  const EventId first = e.schedule_at(1, 0, [] {});
  e.run();
  // The executed event's slot is recycled for the next schedule.
  int fired = 0;
  const EventId second = e.schedule_at(2, 0, [&] { ++fired; });
  EXPECT_NE(second, first);
  EXPECT_FALSE(e.cancel(first));
  EXPECT_FALSE(e.cancel(0));  // never issued
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(0, 0, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine e;
  std::vector<Time> fired;
  for (Time t : {5, 10, 15}) e.schedule_at(t, 0, [&, t] { fired.push_back(t); });
  e.run_until(10);
  EXPECT_EQ(fired, (std::vector<Time>{5, 10}));
  EXPECT_EQ(e.now(), 10);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired.back(), 15);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, PendingAndExecutedCounts) {
  Engine e;
  e.schedule_at(1, 0, [] {});
  const EventId id = e.schedule_at(2, 0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(id);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, TombstoneHeavyHeapIsCompactedInOneRebuild) {
  Engine e;
  std::vector<EventId> ids;
  std::vector<Time> ran;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(e.schedule_at(1000 + i, 0, [&] { ran.push_back(e.now()); }));
  // Cancel 90%: once tombstones outnumber live entries the heap is
  // rebuilt in one O(n) pass instead of draining lazily one-by-one.
  for (int i = 0; i < 1000; ++i)
    if (i % 10 != 0) e.cancel(ids[i]);
  EXPECT_GE(e.heap_compactions(), 1u);
  EXPECT_EQ(e.pending(), 100u);
  EXPECT_EQ(e.cancelled_total(), 900u);
  // Ordering and execution of the survivors are unaffected.
  e.run();
  std::vector<Time> expect;
  for (int i = 0; i < 1000; i += 10) expect.push_back(1000 + i);
  EXPECT_EQ(ran, expect);
  EXPECT_EQ(e.executed(), 100u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  Time last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const Time t = (i * 7919) % 1000;  // scattered times
    e.schedule_at(t, 0, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  e.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.executed(), 10000u);
}

}  // namespace
}  // namespace cosched
