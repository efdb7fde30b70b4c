// Discrete-event simulation engine.
//
// This is the substrate the paper's evaluation runs on: the authors extended
// Qsim (the event-driven simulator shipped with the Cobalt resource manager)
// to drive multiple scheduling domains from one event clock.  We reproduce
// that design: a single engine owns the clock, and every scheduling domain
// (cluster) registers events on it, so cross-domain coscheduling interactions
// are totally ordered and deterministic.  Inside a coupled pair, peer calls
// are synchronous function calls, so one run cannot be split into
// independently clocked parts; independent runs go side by side instead
// (bench::parallel_for).
//
// Determinism rules:
//  * Time is integer seconds.
//  * Events run in (time, priority, insertion sequence) order: equal-time
//    events by priority, then in the order they were scheduled.
//  * Handlers may schedule further events at >= now.
//
// Storage: one binary heap of (time, priority, seq, slot, generation)
// entries over one table of handler slots.  Slots are generation-tagged and
// recycled through a free list, so steady-state scheduling allocates nothing
// beyond the heap entry.  cancel() detaches the slot in O(1); its heap entry
// becomes a tombstone that the next pop drops, and a heap that is more than
// half tombstones is compacted in one O(n) rebuild instead.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace cosched {

/// Ordering classes for events that share a timestamp.  Lower runs first.
/// Completions precede arrivals so nodes freed at time T are available to a
/// job arriving at T; scheduling iterations run after all state changes at T.
struct EventPriority {
  static constexpr int kJobEnd = 0;
  static constexpr int kHoldRelease = 10;
  static constexpr int kJobSubmit = 20;
  static constexpr int kMessage = 30;
  static constexpr int kSchedule = 40;
  static constexpr int kStats = 50;
};

/// Handle identifying a scheduled event; used for cancellation.  Encodes
/// (slot generation, slot index) so handles from executed or cancelled
/// events — even ones whose slot was since recycled — never alias a live
/// event.  0 is never issued.
using EventId = std::uint64_t;

/// Registration index of a scheduling domain on its engine (0, 1, ...).
using SourceId = std::uint32_t;

class Engine {
 public:
  using Handler = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.  Starts at 0.
  Time now() const { return now_; }

  /// Schedules a handler at absolute time `t` (>= now).  Returns a handle
  /// for cancel().
  EventId schedule_at(Time t, int priority, Handler fn);

  /// Schedules a handler `d` seconds from now.
  EventId schedule_in(Duration d, int priority, Handler fn) {
    COSCHED_CHECK(d >= 0);
    return schedule_at(now_ + d, priority, std::move(fn));
  }

  /// Cancels a pending event.  Returns false if it already ran or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Runs the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue is empty.
  void run();

  /// Runs all events with time <= `t`, then sets the clock to `t`.
  void run_until(Time t);

  /// Numbers a scheduling domain in registration order; the number orders
  /// same-time entries of a shared EventLog.
  SourceId register_source() { return sources_++; }

  /// No-op; exists only for perfbench/traced_month.cpp.
  void add_dependency(SourceId, SourceId) {}
  /// No-op; exists only for perfbench/traced_month.cpp.
  void build_clusters() {}
  /// schedule_at(); exists only for perfbench/traced_month.cpp.
  EventId schedule_from(SourceId, Time t, int priority, Handler fn) {
    return schedule_at(t, priority, std::move(fn));
  }

  /// Number of scheduled (uncancelled) events.
  std::size_t pending() const { return armed_; }

  /// Total number of events executed (for micro-benchmarks and tests).
  std::uint64_t executed() const { return executed_; }

  // -- engine counters ---------------------------------------------------

  /// Total events ever scheduled.
  std::uint64_t scheduled_total() const { return scheduled_; }

  /// Total events cancelled before running.
  std::uint64_t cancelled_total() const { return cancelled_; }

  /// High-water mark of pending events (queue sizing / memory telemetry).
  std::size_t peak_pending() const { return peak_pending_; }

  /// Cancelled heap entries dropped while popping or compacting.
  std::uint64_t tombstones_skipped() const { return tombstones_; }

  /// Whole-heap tombstone compactions (lazy drain replaced by one rebuild).
  std::uint64_t heap_compactions() const { return compactions_; }

 private:
  struct Slot {
    std::uint32_t gen = 1;  ///< bumped on cancel/execute; 0 is never issued
    Handler fn;
  };
  struct Entry {
    Time time;
    int priority;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  /// Minimum heap size before tombstone compaction is considered.
  static constexpr std::size_t kCompactMinHeap = 64;

  /// Drops cancelled entries off the heap top; returns the next live entry
  /// or nullptr when the queue is empty.
  const Entry* peek_live();
  /// Compacts the heap when more than half its entries are tombstones.
  void maybe_compact();
  /// Pops and executes the (live) heap top.
  void exec_top();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t tombstones_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t armed_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t dead_ = 0;  ///< tombstones currently in `heap_`
  SourceId sources_ = 0;
  std::vector<Entry> heap_;  ///< binary heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace cosched
