// Coupled-month benchmark: runs one workload's months for a fixed host
// time and prints its metrics (see README.md).
//
//   coupled_month --workload <base_month|paper_grid|durable_chaos>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--pins <file>] [--trace-out <file>] [--detail-out <file>]
//                 [--write-pins]
//
// --trace 0 measures the end-to-end metrics on the public CoupledSim API.
// --trace 1 runs every month twice, untraced and through the benchmark's
// own traced wiring, checks that the two agree, and reports the per-layer
// metrics.  The last line of standard output is the JSON result.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <malloc.h>

#include "months.h"
#include "pins.h"
#include "report.h"
#include "traced_month.h"
#include "tracer.h"
#include "util/error.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kScale = 1.0;  ///< COSCHED_BENCH_SCALE of every month

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  Workload workload = Workload::kBaseMonth;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;
  std::string trace_out;
  std::string detail_out;
  bool write_pins = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "coupled_month: " << why
            << "\nusage: coupled_month --workload <base_month|paper_grid|"
               "durable_chaos> --seed <n> --seconds <s> --trace <0|1>\n"
               "         [--pins <file>] [--trace-out <file>] "
               "[--detail-out <file>] [--write-pins]\n";
  std::exit(2);
}

double parse_seconds(const std::string& v) {
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || !std::isfinite(out) || out <= 0.0)
    usage("--seconds needs a positive number, got '" + v + "'");
  return out;
}

std::uint64_t parse_seed(const std::string& v) {
  std::size_t used = 0;
  std::uint64_t out = 0;
  try {
    out = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || v[0] == '-' || used != v.size())
    usage("--seed needs a non-negative integer, got '" + v + "'");
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-pins") {
      o.write_pins = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage("unknown workload '" + v + "'");
      o.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_seed(v);
    } else if (flag == "--seconds") {
      o.seconds = parse_seconds(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--pins") {
      o.pins_path = v;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--detail-out") {
      o.detail_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// The untraced passes, month by month.  On a shared host, interference
/// from other programs only ever slows a month down, and it comes in phases
/// of seconds; the fastest of a month's repetitions, taken in different
/// passes, is the steadiest estimate of the code's own cost.  Every month
/// gets the same number of repetitions (see untraced_passes), so that the
/// estimate's bias does not change with the seed or the host's speed.  A
/// month that failed is counted by the judge, run in no later pass and left
/// out of the times: a month that never drains runs until the guard time,
/// so its host time measures the guard, not the code.
struct UntracedBests {
  explicit UntracedBests(std::size_t months)
      : sim_s(months, HUGE_VAL), wall_s(months, HUGE_VAL), jobs(months) {}

  std::vector<double> sim_s;   ///< per month: fastest CoupledSim::run
  std::vector<double> wall_s;  ///< per month: fastest set-up to teardown
  std::vector<double> jobs;
  std::vector<double> pass_setup_s;  ///< per set-up pass, see setup_pass

  std::vector<Metric> metrics() const {
    double jobs_done = 0.0, sim = 0.0, wall = 0.0;
    for (std::size_t i = 0; i < sim_s.size(); ++i) {
      if (sim_s[i] == HUGE_VAL) continue;  // failed in every pass
      jobs_done += jobs[i];
      sim += sim_s[i];
      wall += wall_s[i];
    }
    return {{"jobs_per_s", sim > 0.0 ? jobs_done / sim : 0.0, "jobs/s"},
            {"wall_s", wall, "s"},
            {"setup_s", median(pass_setup_s), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"}};
  }
};

/// A pass's host time on the reference host (4-cpu x86-64, gcc 12,
/// Release build, COSCHED_BENCH_SCALE=1).
double reference_pass_seconds(Workload w) {
  switch (w) {
    case Workload::kBaseMonth: return 0.25;
    case Workload::kPaperGrid: return 10.0;
    case Workload::kDurableChaos: return 13.0;
  }
  return 1.0;
}

/// Untraced passes per run: as many as take --seconds on the reference
/// host, at least one.  A fixed count, not a deadline, so that a slow phase
/// of the host or a month that runs to the guard time does not change how
/// often each month is timed.
std::uint64_t untraced_passes(const Options& opt) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(opt.seconds /
                                    reference_pass_seconds(opt.workload)));
}

/// Months that failed in an earlier pass, which later passes skip.
using FailedMonths = std::vector<char>;

void untraced_pass(const Options& opt, const std::vector<MonthSpec>& months,
                   MonthJudge& judge, FailedMonths& failed,
                   UntracedBests& best) {
  for (std::size_t i = 0; i < months.size(); ++i) {
    if (failed[i]) continue;
    // Hands the heap's free pages back first, so that every month's peak
    // starts from the same resident set: without this, what the set-up
    // passes and earlier months left fragmented raised peak_rss_mb by up to
    // 2.5 MB, differently from run to run.
    malloc_trim(0);
    const auto t0 = Clock::now();
    const MonthResult r = run_month(months[i], opt.seed, false);
    const double wall_s = seconds_since(t0);
    if (!judge(r)) {
      failed[i] = 1;
      continue;
    }
    best.wall_s[i] = std::min(best.wall_s[i], wall_s);
    best.sim_s[i] = std::min(best.sim_s[i], r.sim_s);
    best.jobs[i] = static_cast<double>(r.jobs);
  }
}

/// Timed set-up passes per untraced run; setup_s is their median.
constexpr int kSetupPasses = 31;

/// Sets every month of the workload up as run_month() does, runs none of
/// them, and returns the summed set-up time.  Untraced runs make their
/// set-up passes before any month runs, so that setup_s does not depend on
/// the heap the previous months left behind, which differs by workload.
double setup_pass(const Options& opt, const std::vector<MonthSpec>& months) {
  double setup_s = 0.0;
  for (const MonthSpec& m : months) setup_s += time_setup(m, opt.seed);
  return setup_s;
}

struct TracedPass {
  /// Summed over months: the untraced months' counts plus the traced
  /// journal sinks' counts and replay times.
  Counts counts;
  SpanTotals spans;
  double jobs = 0.0;
  double untraced_sim_s = 0.0;
  double traced_sim_s = 0.0;
};

TracedPass traced_pass(const Options& opt, const std::vector<MonthSpec>& months,
                       std::uint64_t pass, Tracer& tracer, MonthJudge& judge,
                       FailedMonths& failed,
                       std::vector<std::string>& trace_problems) {
  TracedPass p;
  const SpanTotals pass_start = tracer.totals();
  for (std::size_t i = 0; i < months.size(); ++i) {
    if (failed[i]) continue;
    const MonthSpec& m = months[i];
    // The second of the two runs of a month finds warm caches and a grown
    // heap; alternating which goes first keeps that out of trace.overhead.
    const bool traced_first = (pass + i) % 2 == 1;
    std::optional<MonthResult> untraced;
    if (!traced_first) untraced = run_month(m, opt.seed, true);

    set_active_tracer(&tracer);
    TracedMonth traced(tracer, m, opt.seed);
    set_active_tracer(nullptr);
    const SpanTotals sim_start = tracer.totals();
    const double sim_s = traced.run();
    p.traced_sim_s += sim_s;

    if (traced_first) untraced = run_month(m, opt.seed, true);
    const MonthResult& r = *untraced;
    if (!judge(r)) failed[i] = 1;
    for (const auto& [name, value] : r.counts) p.counts[name] += value;
    p.jobs += static_cast<double>(r.jobs);
    p.untraced_sim_s += r.sim_s;

    // Tracer sanity check: the layers' self times plus the simulator's own
    // must add up to the traced simulation time (the bound leaves room for
    // the two clock reads around the root span).  Equivalence of the two
    // runs is the job tuples and counts compared below.
    const double attributed = (tracer.totals() - sim_start).total_seconds();
    if (std::abs(attributed - sim_s) > 1e-3 * sim_s + 1e-5)
      trace_problems.push_back(m.label + ": span self times sum to " +
                               std::to_string(attributed) + " s, sim took " +
                               std::to_string(sim_s) + " s");
    std::vector<std::string> diffs = compare(r, traced);
    if (traced.completed() != r.completed)
      diffs.push_back("the two runs disagree on completion");
    for (const std::string& d : diffs)
      trace_problems.push_back(m.label + ": traced run differs: " + d);

    for (std::size_t d = 0; d < 2; ++d) {
      const TimingJournalSink* sink = traced.sink(d);
      if (sink == nullptr) continue;
      Counts& c = p.counts;
      c["journal.records"] += static_cast<double>(sink->records());
      c["journal.commits"] += static_cast<double>(sink->commits());
      c["journal.bytes_appended"] += static_cast<double>(sink->bytes_appended());
      c["journal.compactions"] += static_cast<double>(sink->compactions());
      c["journal.compacted_bytes"] +=
          static_cast<double>(sink->compacted_bytes());
      cosched::Journal replayed(std::make_unique<cosched::MemoryJournalSink>());
      const JournalReplayTimes t = replay_journal(sink->capture(), replayed);
      c["journal.append_s"] += t.append_s;
      c["journal.compact_s"] += t.compact_s;
    }
  }
  p.spans = tracer.totals() - pass_start;
  return p;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics of one traced pass (see README.md for the map).
std::vector<Metric> layer_metrics(const TracedPass& p) {
  const Counts& c = p.counts;
  auto count = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const double events = count("sim.events");
  const double calls = count("proto.calls");
  const double replay_s = count("journal.replay_s");
  const SpanTotals& s = p.spans;
  return {
      {"workload.generate_s", s.self_seconds(Layer::kGenerate), "s"},
      {"workload.pair_s", s.self_seconds(Layer::kPair), "s"},
      {"workload.jobs", p.jobs, "count"},
      {"sim.events", events, "count"},
      {"sim.events_per_job", ratio(events, p.jobs), "events/job"},
      {"sim.scheduled", count("sim.scheduled"), "count"},
      {"sim.cancelled", count("sim.cancelled"), "count"},
      {"sim.peak_pending", count("sim.peak_pending"), "count"},
      {"sim.ns_per_event", ratio(p.untraced_sim_s * 1e9, events), "ns/event"},
      {"sched.iterations", count("sched.iterations"), "count"},
      {"sched.iterations_per_event", ratio(count("sched.iterations"), events),
       "1/event"},
      {"sched.try_start_requests", count("sched.try_start_requests"), "count"},
      {"sched.forced_releases", count("sched.forced_releases"), "count"},
      {"proto.calls", calls, "count"},
      {"proto.calls_per_job", ratio(calls, p.jobs), "calls/job"},
      {"proto.request_bytes", count("proto.request_bytes"), "bytes"},
      {"proto.response_bytes", count("proto.response_bytes"), "bytes"},
      {"proto.codec_self_s", s.self_seconds(Layer::kCodec), "s"},
      {"core.hook_self_s", s.self_seconds(Layer::kHook), "s"},
      {"core.unknown_status_decisions", count("core.unknown_status_decisions"),
       "count"},
      {"core.unsync_starts", count("core.unsync_starts"), "count"},
      {"fault.calls", count("fault.calls"), "count"},
      {"fault.failed", count("fault.failed"), "count"},
      {"fault.self_s", s.self_seconds(Layer::kFault), "s"},
      {"liveness.heartbeats", count("liveness.heartbeats"), "count"},
      {"liveness.heartbeat_s", s.inclusive_seconds(SpanName::kPeerHeartbeat),
       "s"},
      {"liveness.lease_grants", count("liveness.lease_grants"), "count"},
      {"liveness.lease_expiries", count("liveness.lease_expiries"), "count"},
      {"journal.records", count("journal.records"), "count"},
      {"journal.commits", count("journal.commits"), "count"},
      {"journal.bytes_appended", count("journal.bytes_appended"), "bytes"},
      {"journal.compactions", count("journal.compactions"), "count"},
      {"journal.compacted_bytes", count("journal.compacted_bytes"), "bytes"},
      {"journal.sink_s", s.self_seconds(Layer::kJournalSink), "s"},
      {"journal.append_s", count("journal.append_s"), "s"},
      {"journal.compact_s", count("journal.compact_s"), "s"},
      {"journal.replay_s", replay_s, "s"},
      {"journal.replay_records_per_s",
       ratio(count("journal.replay_records"), replay_s), "records/s"},
      {"core_sched_sim.self_s", s.self_seconds(Layer::kCoreSchedSim), "s"},
      {"trace.capture_s", s.self_seconds(Layer::kCapture), "s"},
      {"trace.spans", static_cast<double>(s.spans()), "count"},
      {"trace.sim_s", p.traced_sim_s, "s"},
      {"trace.coverage",
       ratio(s.self_seconds(Layer::kFault) + s.self_seconds(Layer::kCodec) +
                 s.self_seconds(Layer::kHook) +
                 s.self_seconds(Layer::kJournalSink),
             p.traced_sim_s),
       "ratio"},
      {"trace.overhead", ratio(p.traced_sim_s, p.untraced_sim_s) - 1.0,
       "ratio"},
  };
}

/// Per metric, the median over passes.
std::vector<Metric> median_over_passes(
    const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out = passes.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(pass[i].value);
    out[i].value = median(values);
  }
  return out;
}

/// Prints the pins of the months that pass; a month that fails has no
/// outcome worth pinning and is listed as a comment line instead.
int write_pins(const Options& opt, const std::vector<MonthSpec>& months) {
  PinTable table;
  std::vector<std::string> unpinned;
  for (const MonthSpec& m : months) {
    const MonthResult r = run_month(m, opt.seed, false);
    if (const auto why = month_failure(r, std::nullopt))
      unpinned.push_back(m.label + " seed " + std::to_string(opt.seed) +
                         ": " + *why);
    else
      table.set(m.label, opt.seed, kScale, Pin{r.fingerprint, r.end_time});
  }
  table.write(std::cout);
  for (const std::string& u : unpinned) std::cout << "# unpinned " << u << '\n';
  return 0;
}

int run(const Options& opt) {
  // The paper generators read their scale from the environment; the
  // benchmark always runs the paper's full-size months.
  setenv("COSCHED_BENCH_SCALE", "1", 1);

  const std::vector<MonthSpec> months = workload_months(opt.workload);
  if (opt.write_pins) return write_pins(opt, months);

  PinTable pins;
  if (!opt.pins_path.empty()) {
    std::ifstream in(opt.pins_path);
    if (!in) throw cosched::Error("cannot read pins file " + opt.pins_path);
    pins.read(in);
  }
  if (!optimized_build())
    std::cerr << "coupled_month: WARNING: unoptimized build; timings are not "
                 "comparable\n";

  MonthJudge judge(pins, kScale);
  std::vector<std::string> trace_problems;
  std::vector<std::vector<Metric>> pass_metrics;  // traced passes
  UntracedBests best(months.size());
  Tracer tracer;
  tracer.set_track_name(kMonthTrack, "months");

  // Untraced: a fixed number of passes over the workload's months.
  // Traced: whole passes until the next one would end past --seconds,
  // always at least one; their metrics are medians and carry no bound.
  FailedMonths failed(months.size(), 0);
  const std::uint64_t fixed_passes = untraced_passes(opt);
  if (!opt.trace) {
    setup_pass(opt, months);  // warm-up: first-touch page faults, caches
    for (int i = 0; i < kSetupPasses; ++i)
      best.pass_setup_s.push_back(setup_pass(opt, months));
  }
  const auto start = Clock::now();
  std::uint64_t passes = 0;
  for (;;) {
    const auto pass_start = Clock::now();
    if (opt.trace) {
      const TracedPass p = traced_pass(opt, months, passes, tracer, judge,
                                       failed, trace_problems);
      pass_metrics.push_back(layer_metrics(p));
    } else {
      untraced_pass(opt, months, judge, failed, best);
    }
    ++passes;
    const bool done =
        opt.trace
            ? seconds_since(start) + seconds_since(pass_start) > opt.seconds
            : passes == fixed_passes;
    if (done) break;
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = {{"months", static_cast<double>(judge.attempted()), "count"},
               {"failed_months", static_cast<double>(judge.failed()), "count"}};
    for (const Metric& m : median_over_passes(pass_metrics))
      metrics.push_back(m);
  } else {
    metrics = best.metrics();
  }

  const std::string machine =
      machine_json(kScale, opt.seed, judge.all_pinned());
  std::cout << workload_name(opt.workload) << " seed " << opt.seed << ": "
            << passes << " pass(es), " << judge.attempted() << " months, "
            << judge.failed() << " failed\nmachine " << machine << '\n';
  for (const std::string& p : judge.problems())
    std::cout << "FAILED " << p << '\n';
  for (const std::string& p : trace_problems)
    std::cout << "TRACE REJECTED " << p << '\n';
  print_table(std::cout, metrics);

  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    tracer.write_chrome_trace(out);
    if (!out) throw cosched::Error("cannot write " + opt.trace_out);
  }
  const bool correct = judge.failed() == 0 && trace_problems.empty();
  if (!opt.detail_out.empty()) {
    std::ofstream out(opt.detail_out);
    out << "{\"workload\":" << json_string(workload_name(opt.workload))
        << ",\"machine\":" << machine << ",\"passes\":" << passes
        << ",\"months\":" << judge.attempted() << ",\"failed_months\":"
        << judge.failed() << ",\"trace_rejected\":" << trace_problems.size()
        << ",\"spans_unrecorded\":" << tracer.unrecorded() << "}\n";
    if (!out) throw cosched::Error("cannot write " + opt.detail_out);
  }
  print_result(std::cout, correct, judge.attempted(), judge.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "coupled_month: " << e.what() << '\n';
    return 1;
  }
}
