#include "tracer.h"

#include <chrono>
#include <iomanip>

namespace perfbench {

namespace {

struct NameInfo {
  const char* name;
  Layer layer;
};

constexpr std::array<NameInfo, static_cast<std::size_t>(SpanName::kCount)>
    kNames{{
        {"month.setup", Layer::kSetup},
        {"month.sim", Layer::kCoreSchedSim},
        {"workload.generate", Layer::kGenerate},
        {"workload.pair", Layer::kPair},
        {"peer.get_mate_job", Layer::kFault},
        {"peer.get_mate_status", Layer::kFault},
        {"peer.try_start_mate", Layer::kFault},
        {"peer.start_job", Layer::kFault},
        {"peer.heartbeat", Layer::kFault},
        {"peer.gang", Layer::kFault},
        {"loopback.get_mate_job", Layer::kCodec},
        {"loopback.get_mate_status", Layer::kCodec},
        {"loopback.try_start_mate", Layer::kCodec},
        {"loopback.start_job", Layer::kCodec},
        {"loopback.heartbeat", Layer::kCodec},
        {"loopback.gang", Layer::kCodec},
        {"service.get_mate_job", Layer::kHook},
        {"service.get_mate_status", Layer::kHook},
        {"service.try_start_mate", Layer::kHook},
        {"service.start_job", Layer::kHook},
        {"service.heartbeat", Layer::kHook},
        {"service.gang", Layer::kHook},
        {"service.admit_fence", Layer::kHook},
        {"journal.append", Layer::kJournalSink},
        {"journal.commit", Layer::kJournalSink},
        {"journal.reset", Layer::kJournalSink},
        {"journal.contents", Layer::kJournalSink},
        {"trace.capture", Layer::kCapture},
    }};

const NameInfo& info(SpanName n) { return kNames[static_cast<std::size_t>(n)]; }
const char* span_name(SpanName name) { return info(name).name; }
Layer span_layer(SpanName name) { return info(name).layer; }

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSetup: return "setup";
    case Layer::kGenerate: return "workload.generate";
    case Layer::kPair: return "workload.pair";
    case Layer::kCoreSchedSim: return "core_sched_sim";
    case Layer::kFault: return "fault";
    case Layer::kCodec: return "proto.codec";
    case Layer::kHook: return "core.hook";
    case Layer::kJournalSink: return "journal.sink";
    case Layer::kCapture: return "trace.capture";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer* g_active = nullptr;

}  // namespace

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SpanTotals::self_seconds(Layer layer) const {
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < by_name.size(); ++i)
    if (span_layer(static_cast<SpanName>(i)) == layer) ns += by_name[i].self_ns;
  return static_cast<double>(ns) * 1e-9;
}

double SpanTotals::total_seconds() const {
  std::int64_t ns = 0;
  for (const Entry& e : by_name) ns += e.self_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t SpanTotals::spans() const {
  std::uint64_t n = 0;
  for (const Entry& e : by_name) n += e.count;
  return n;
}

SpanTotals SpanTotals::operator-(const SpanTotals& o) const {
  SpanTotals d;
  for (std::size_t i = 0; i < by_name.size(); ++i) {
    d.by_name[i].count = by_name[i].count - o.by_name[i].count;
    d.by_name[i].self_ns = by_name[i].self_ns - o.by_name[i].self_ns;
    d.by_name[i].inclusive_ns =
        by_name[i].inclusive_ns - o.by_name[i].inclusive_ns;
  }
  return d;
}

Tracer::Tracer(std::size_t max_recorded, ClockFn clock)
    : max_recorded_(max_recorded), clock_(clock), epoch_ns_(clock()) {
  stack_.reserve(64);
}

Tracer::Scope Tracer::open(SpanName name, std::uint32_t track) {
  std::int32_t index = -1;
  if (recorded_.size() < max_recorded_) {
    index = static_cast<std::int32_t>(recorded_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
    recorded_.push_back(Span{name, track, parent, 0, 0});
  } else {
    ++unrecorded_;
  }
  const std::int64_t start = clock_() - epoch_ns_;
  if (index >= 0) recorded_[static_cast<std::size_t>(index)].start_ns = start;
  stack_.push_back(Open{name, index, start, 0});
  return Scope(*this);
}

void Tracer::close() {
  const std::int64_t end = clock_() - epoch_ns_;
  const Open top = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - top.start_ns;
  auto& e = totals_.by_name[static_cast<std::size_t>(top.name)];
  ++e.count;
  e.self_ns += duration - top.child_ns;
  e.inclusive_ns += duration;
  if (top.index >= 0) recorded_[static_cast<std::size_t>(top.index)].end_ns = end;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

void Tracer::label_current(std::string label) {
  if (stack_.empty() || stack_.back().index < 0) return;
  labels_.emplace_back(stack_.back().index, std::move(label));
}

void Tracer::set_track_name(std::uint32_t track, std::string name) {
  for (auto& [t, n] : track_names_)
    if (t == track) {
      n = std::move(name);
      return;
    }
  track_names_.emplace_back(track, std::move(name));
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  // Chrome's trace-event format: complete ("X") events in microseconds on
  // one process, one thread id per track.  Nesting on a track follows time
  // containment, which matches call nesting in a single-threaded run.
  std::vector<const std::string*> label_of(recorded_.size(), nullptr);
  for (const auto& [index, label] : labels_)
    label_of[static_cast<std::size_t>(index)] = &label;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [track, name] : track_names_) {
    out << (first ? "" : ",\n")
        << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << track
        << R"(,"args":{"name":")" << name << "\"}}";
    first = false;
  }
  out << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < recorded_.size(); ++i) {
    const Span& s = recorded_[i];
    out << (first ? "" : ",\n") << R"({"name":")" << span_name(s.name)
        << R"(","cat":")" << layer_name(span_layer(s.name))
        << R"(","ph":"X","pid":1,"tid":)" << s.track
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << R"(,"args":{"id":)" << i << ",\"parent\":" << s.parent;
    if (label_of[i] != nullptr) out << R"(,"month":")" << *label_of[i] << '"';
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
}

Tracer* active_tracer() { return g_active; }
void set_active_tracer(Tracer* tracer) { g_active = tracer; }

}  // namespace perfbench
