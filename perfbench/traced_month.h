// The traced run: the same coupled month as run_month(), assembled by hand
// from the simulator's public parts with the timing decorators between the
// layers.  The wiring repeats CoupledSim's constructor, configuration and
// serial run loop step for step, so the traced month must reproduce the
// untraced one exactly; compare() checks that it does.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/cluster.h"
#include "core/fault.h"
#include "core/journal.h"
#include "decorators.h"
#include "months.h"
#include "sim/engine.h"
#include "tracer.h"

namespace perfbench {

class TracedMonth {
 public:
  /// Builds and configures the month inside a "month.setup" span.
  TracedMonth(Tracer& tracer, const MonthSpec& month, std::uint64_t seed);
  TracedMonth(const TracedMonth&) = delete;
  TracedMonth& operator=(const TracedMonth&) = delete;

  /// Runs to completion (or the guard time) inside a "month.sim" span and
  /// returns the span's duration in seconds.
  double run();

  bool completed() const;
  std::vector<JobOutcome> outcomes() const;
  Counts counts() const;
  /// Journal sink of domain `d` (nullptr unless the month journals).
  const TimingJournalSink* sink(std::size_t d) const { return sinks_.at(d); }

 private:
  void crash_and_recover(std::size_t domain);

  Tracer& tracer_;
  cosched::Engine engine_;
  std::vector<std::unique_ptr<cosched::Cluster>> clusters_;
  std::vector<std::unique_ptr<TimingService>> services_;
  /// Outer decorators, one per ordered domain pair, in CoupledSim's order.
  std::vector<std::unique_ptr<TimingPeer>> links_;
  /// Observation pointers into links_ (the decorators own these).
  std::vector<cosched::FaultInjectingPeer*> faults_;
  std::vector<const cosched::LoopbackPeer*> loopbacks_;
  std::vector<std::unique_ptr<cosched::Journal>> journals_;
  std::vector<TimingJournalSink*> sinks_;
  std::vector<std::optional<cosched::Cluster::RecoveryStats>> recoveries_;
};

/// Differences between an untraced month and its traced twin: every job's
/// (id, start, end, yields, forced releases) and every count that is not a
/// host time.  Empty when they agree.
std::vector<std::string> compare(const MonthResult& untraced,
                                 const TracedMonth& traced);

}  // namespace perfbench
