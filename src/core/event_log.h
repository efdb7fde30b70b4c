// Structured per-job event logging.
//
// The paper validates its mechanism from simulator output logs: "the output
// logs show that all the paired jobs start at the same time with their own
// mate jobs no matter which one gets ready first" (§V-B).  This module is
// that log: every lifecycle transition of every job is recorded with its
// timestamp, and analysis helpers answer the §V-B question directly from
// the record rather than from in-memory scheduler state.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"
#include "workload/job.h"

namespace cosched {

enum class JobEventKind : std::uint8_t {
  kSubmit = 0,
  kReady = 1,        ///< scheduler selected the job and assigned nodes
  kStart = 2,
  kHold = 3,
  kHoldRelease = 4,  ///< forced release (deadlock breaker)
  kYield = 5,
  kFinish = 6,
  /// Paired job started while a peer was unreachable (status `unknown`) —
  /// the paper's fault-tolerance rule firing: start normally, don't wait.
  kUnsyncStart = 7,
  /// A hold lease reached its expiry without renewal (liveness layer).
  kLeaseExpire = 8,
  /// A side-effecting peer call carried a stale fencing token and was
  /// rejected — the double-start guard firing after a healed partition.
  kFenceReject = 9,
};

const char* to_string(JobEventKind k);

struct JobEvent {
  Time time = 0;
  std::string system;
  JobEventKind kind = JobEventKind::kSubmit;
  JobId job = kNoJob;
  GroupId group = kNoGroup;
  NodeCount nodes = 0;

  bool operator==(const JobEvent&) const = default;
};

/// Append-only event record shared by the domains of one simulation.
///
/// Each domain appends to its own list, indexed by its registration number
/// on the engine (Engine::register_source).  events() merges the lists by
/// time, then domain number, then record order, and that merged order is
/// what write_text prints: at one instant, domain 0's entries come before
/// domain 1's whichever domain ran first.  record(event) appends to domain
/// 0's list, for single-writer users.
class EventLog {
 public:
  void record(JobEvent event) { record(0, std::move(event)); }

  /// Appends to the list of `domain`.
  void record(std::size_t domain, JobEvent event) {
    if (domain >= domains_.size()) domains_.resize(domain + 1);
    domains_[domain].push_back(std::move(event));
  }

  /// Merged view: by time, then domain, then record order.
  std::vector<JobEvent> events() const;
  std::size_t size() const;
  bool empty() const { return size() == 0; }
  void clear() {
    for (auto& d : domains_) d.clear();
  }

  /// Events of one kind, in merged order.
  std::vector<JobEvent> of_kind(JobEventKind kind) const;

  /// Writes one line per event, in merged order:
  ///   <time> <system> <kind> job=<id> group=<g> nodes=<n>
  void write_text(std::ostream& os) const;

  /// Parses the write_text format.  Throws ParseError on malformed lines.
  static EventLog read_text(std::istream& is);

 private:
  std::vector<std::vector<JobEvent>> domains_;
};

/// §V-B check, computed purely from the log: every group's members started,
/// and all start timestamps within a group are identical.
struct CoStartReport {
  std::size_t groups_total = 0;
  std::size_t groups_co_started = 0;
  std::size_t groups_incomplete = 0;  ///< some member never started
  Duration max_skew = 0;
  bool all_co_started() const {
    return groups_incomplete == 0 && groups_co_started == groups_total;
  }
};

/// Analyzes start events.  `expected_members` maps each group to how many
/// members it should have (pass {} to infer: groups seen in submit events).
CoStartReport verify_co_starts(const EventLog& log);

}  // namespace cosched
