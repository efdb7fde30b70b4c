// In-memory span recorder for the benchmark's traced run.
//
// Every decorator the benchmark puts between two layers opens a span around
// the call it forwards.  Spans nest by call order (the simulator is single
// threaded), so a span's self time is its duration minus the durations of
// the spans opened directly inside it.  Self and inclusive time are summed
// per span name as each span closes; the first `max_recorded` spans are also
// kept whole for the Chrome trace file.
//
// Opening and closing a span costs time of its own, which lands partly in
// the span and partly in its parent's self time.  The tracer does not
// subtract an estimate of it: on a shared host the cost of an empty span
// varies as much as the thin layers it would correct.  trace.overhead and
// trace.spans report the total instead.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// The layer a span's self time is charged to.
enum class Layer : std::uint8_t {
  kSetup,         ///< month construction and configuration
  kGenerate,      ///< synthetic trace generator
  kPair,          ///< job pairing
  kCoreSchedSim,  ///< engine dispatch, scheduler, Cluster internals
  kFault,         ///< FaultInjectingPeer (outer peer span minus inner)
  kCodec,         ///< LoopbackPeer encode/dispatch/decode
  kHook,          ///< remote Cluster's CoschedService handlers
  kJournalSink,   ///< JournalSink append/commit/reset/contents
  kCapture,       ///< the benchmark copying the journal stream for replay
  kCount
};

/// Every span the decorators open.  The name fixes the layer.
enum class SpanName : std::uint8_t {
  kMonthSetup,
  kMonthSim,
  kGenerate,
  kPair,
  kPeerGetMateJob,
  kPeerGetMateStatus,
  kPeerTryStartMate,
  kPeerStartJob,
  kPeerHeartbeat,
  kPeerGang,
  kLoopGetMateJob,
  kLoopGetMateStatus,
  kLoopTryStartMate,
  kLoopStartJob,
  kLoopHeartbeat,
  kLoopGang,
  kServiceGetMateJob,
  kServiceGetMateStatus,
  kServiceTryStartMate,
  kServiceStartJob,
  kServiceHeartbeat,
  kServiceGang,
  kServiceAdmitFence,
  kJournalAppend,
  kJournalCommit,
  kJournalReset,
  kJournalContents,
  kCapture,
  kCount
};

/// Monotonic nanoseconds; replaceable so tests can drive time by hand.
using ClockFn = std::int64_t (*)();
std::int64_t steady_ns();

struct Span {
  SpanName name;
  std::uint32_t track;
  std::int32_t parent;  ///< index into recorded(); -1 = root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-name sums, comparable between two points of a run.
struct SpanTotals {
  struct Entry {
    std::uint64_t count = 0;
    std::int64_t self_ns = 0;
    std::int64_t inclusive_ns = 0;
  };
  std::array<Entry, static_cast<std::size_t>(SpanName::kCount)> by_name{};

  const Entry& operator[](SpanName n) const {
    return by_name[static_cast<std::size_t>(n)];
  }
  double self_seconds(Layer layer) const;
  /// Self time over every layer: the root spans' time.
  double total_seconds() const;
  /// Spans closed.
  std::uint64_t spans() const;
  double inclusive_seconds(SpanName n) const {
    return static_cast<double>((*this)[n].inclusive_ns) * 1e-9;
  }
  SpanTotals operator-(const SpanTotals& o) const;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultMaxRecorded = 100000;

  explicit Tracer(std::size_t max_recorded = kDefaultMaxRecorded,
                  ClockFn clock = steady_ns);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span when destroyed.
  class Scope {
   public:
    ~Scope() { tracer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    explicit Scope(Tracer& tracer) : tracer_(tracer) {}
    Tracer& tracer_;
  };

  [[nodiscard]] Scope open(SpanName name, std::uint32_t track);

  /// Labels the most recently opened span in the trace file (for example
  /// the month a root span covers).  No-op once the recording cap is hit.
  void label_current(std::string label);

  const SpanTotals& totals() const { return totals_; }
  const std::vector<Span>& recorded() const { return recorded_; }
  /// Spans aggregated but not kept because the recording cap was reached.
  std::uint64_t unrecorded() const { return unrecorded_; }
  std::size_t open_depth() const { return stack_.size(); }

  /// Names the Chrome trace track `track` (one per domain, plus the months).
  void set_track_name(std::uint32_t track, std::string name);

  /// Writes the recorded spans as Chrome trace-event JSON (opens in
  /// chrome://tracing and ui.perfetto.dev).
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Open {
    SpanName name;
    std::int32_t index;  ///< into recorded_, -1 when not recorded
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  void close();

  std::size_t max_recorded_;
  ClockFn clock_;
  std::int64_t epoch_ns_;
  std::vector<Open> stack_;
  std::vector<Span> recorded_;
  std::vector<std::pair<std::int32_t, std::string>> labels_;
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
  std::uint64_t unrecorded_ = 0;
  SpanTotals totals_;
};

/// The tracer the workload-generation wrappers report to (nullptr outside
/// the traced run).
Tracer* active_tracer();
void set_active_tracer(Tracer* tracer);

/// Track of the month-level root spans; domain `i` uses track `i`.
inline constexpr std::uint32_t kMonthTrack = 100;

}  // namespace perfbench
