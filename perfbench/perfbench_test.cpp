// Tests of the benchmark's own logic, at a small scale.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/fault.h"
#include "decorators.h"
#include "months.h"
#include "pins.h"
#include "traced_month.h"
#include "tracer.h"

namespace perfbench {
namespace {

using cosched::GroupId;
using cosched::JobId;
using cosched::MateStatus;

// A clock the test advances by hand: spans measure only what the fakes
// below charge, so every self time is known exactly.
std::int64_t g_now = 0;
std::int64_t manual_clock() { return g_now; }

/// A domain whose handlers charge fixed times; try_start_mate calls back
/// into the asking domain's start_job through `peer`, as Algorithm 1's
/// remote Run_Job does when it starts the mate.
class FakeDomain final : public cosched::CoschedService {
 public:
  std::optional<JobId> get_mate_job(GroupId, JobId) override {
    g_now += 2;
    return JobId{1};
  }
  MateStatus get_mate_status(JobId) override { return MateStatus::kQueuing; }
  bool try_start_mate(JobId) override {
    g_now += 5;
    const auto started = peer->start_job(JobId{7});
    g_now += 3;
    return started.value_or(false);
  }
  bool start_job(JobId) override {
    g_now += 7;
    return true;
  }
  cosched::PeerClient* peer = nullptr;
};

/// outer TimingPeer -> FaultInjectingPeer -> inner TimingPeer ->
/// LoopbackPeer -> TimingService -> `remote`, as the traced run wires it.
std::unique_ptr<TimingPeer> wire(Tracer& tracer, FakeDomain& remote,
                                 std::unique_ptr<TimingService>& service,
                                 std::uint32_t caller_track,
                                 std::uint32_t remote_track) {
  service = std::make_unique<TimingService>(remote, tracer, remote_track);
  auto fault = std::make_unique<cosched::FaultInjectingPeer>(
      std::make_unique<TimingPeer>(
          std::make_unique<cosched::LoopbackPeer>(*service), tracer,
          caller_track, TimingPeer::Role::kInner));
  return std::make_unique<TimingPeer>(std::move(fault), tracer, caller_track,
                                      TimingPeer::Role::kOuter);
}

TEST(Tracer, NestedCallBackSplitsSelfTimeByLayer) {
  g_now = 0;
  Tracer tracer(Tracer::kDefaultMaxRecorded, manual_clock);
  FakeDomain a, b;
  std::unique_ptr<TimingService> service_a, service_b;
  auto a_to_b = wire(tracer, b, service_b, 0, 1);
  auto b_to_a = wire(tracer, a, service_a, 1, 0);
  b.peer = b_to_a.get();

  {
    auto sim = tracer.open(SpanName::kMonthSim, kMonthTrack);
    g_now += 11;  // the simulator's own work around the call
    EXPECT_EQ(a_to_b->try_start_mate(JobId{3}), std::optional<bool>(true));
    g_now += 13;
  }

  const SpanTotals& t = tracer.totals();
  EXPECT_EQ(t[SpanName::kServiceTryStartMate].self_ns, 8);
  EXPECT_EQ(t[SpanName::kServiceTryStartMate].inclusive_ns, 15);
  EXPECT_EQ(t[SpanName::kServiceStartJob].self_ns, 7);
  EXPECT_EQ(t[SpanName::kPeerTryStartMate].inclusive_ns, 15);
  EXPECT_EQ(t[SpanName::kPeerTryStartMate].self_ns, 0);
  EXPECT_EQ(t[SpanName::kLoopStartJob].self_ns, 0);
  EXPECT_EQ(t[SpanName::kMonthSim].self_ns, 24);
  EXPECT_DOUBLE_EQ(t.self_seconds(Layer::kHook), 15e-9);
  EXPECT_DOUBLE_EQ(t.self_seconds(Layer::kCoreSchedSim), 24e-9);
  EXPECT_DOUBLE_EQ(t.total_seconds(), t.inclusive_seconds(SpanName::kMonthSim));
  EXPECT_EQ(t.spans(), 9u);  // the root, two calls of three, two fence checks

  // month.sim > peer > loopback > service.try_start_mate > peer > loopback
  // > service.start_job, with the dispatcher's fence check beside each
  // service call: each recorded span names its caller and its track.
  const std::vector<Span>& spans = tracer.recorded();
  std::vector<std::pair<SpanName, std::uint32_t>> chain;
  std::int32_t at = -1;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == SpanName::kServiceStartJob)
      at = static_cast<std::int32_t>(i);
  for (; at >= 0; at = spans[static_cast<std::size_t>(at)].parent)
    chain.emplace_back(spans[static_cast<std::size_t>(at)].name,
                       spans[static_cast<std::size_t>(at)].track);
  const std::vector<std::pair<SpanName, std::uint32_t>> expected = {
      {SpanName::kServiceStartJob, 0},     {SpanName::kLoopStartJob, 1},
      {SpanName::kPeerStartJob, 1},        {SpanName::kServiceTryStartMate, 1},
      {SpanName::kLoopTryStartMate, 0},    {SpanName::kPeerTryStartMate, 0},
      {SpanName::kMonthSim, kMonthTrack}};
  EXPECT_EQ(chain, expected);
  EXPECT_EQ(t[SpanName::kServiceAdmitFence].count, 2u);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(Tracer, CapKeepsTotalsAndChromeTraceParses) {
  g_now = 0;
  Tracer tracer(2, manual_clock);
  tracer.set_track_name(0, "intrepid");
  for (int i = 0; i < 3; ++i) {
    auto s = tracer.open(SpanName::kJournalAppend, 0);
    g_now += 4;
  }
  EXPECT_EQ(tracer.recorded().size(), 2u);
  EXPECT_EQ(tracer.unrecorded(), 1u);
  EXPECT_EQ(tracer.totals()[SpanName::kJournalAppend].count, 3u);
  EXPECT_EQ(tracer.totals()[SpanName::kJournalAppend].self_ns, 12);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_NE(out.str().find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(out.str().find(R"("name":"journal.append","cat":"journal.sink")"),
            std::string::npos);
}

TEST(TimingJournalSink, CountsMatchTheJournal) {
  Tracer tracer;
  auto owned = std::make_unique<TimingJournalSink>(
      std::make_unique<cosched::MemoryJournalSink>(), tracer, 0);
  TimingJournalSink& sink = *owned;
  cosched::Journal journal(std::move(owned));

  const std::vector<std::uint8_t> state = {1, 2, 3, 4};
  journal.compact(state, /*retain_previous=*/false);
  std::uint64_t appended = 0, bytes = 0, commits = 0;
  for (std::uint8_t i = 0; i < 40; ++i) {
    const std::vector<std::uint8_t> payload(i % 7, i);
    const std::uint64_t seq =
        journal.append(cosched::JournalRecordKind::kSubmit, payload);
    bytes += cosched::encode_frame(seq, cosched::JournalRecordKind::kSubmit,
                                   payload)
                 .size();
    ++appended;
    if (i % 5 == 4) {
      journal.commit();
      ++commits;
    }
    if (i == 19) journal.compact(state);
  }
  journal.commit();  // nothing appended since the last commit: a no-op
  const std::size_t image = journal.sink().contents().size();

  EXPECT_EQ(sink.records(), appended);
  EXPECT_EQ(sink.bytes_appended(), bytes);
  EXPECT_EQ(sink.commits(), commits);
  EXPECT_EQ(sink.compactions(), 2u);
  EXPECT_EQ(journal.next_seq() - 1, appended + sink.compactions());
  EXPECT_EQ(journal.last_committed_seq(), journal.next_seq() - 1);
  EXPECT_EQ(tracer.totals()[SpanName::kJournalAppend].count, appended);
  EXPECT_EQ(tracer.totals()[SpanName::kJournalCommit].count, commits);

  // The captured stream replays into a byte-identical journal.
  cosched::Journal replayed(std::make_unique<cosched::MemoryJournalSink>());
  replay_journal(sink.capture(), replayed);
  EXPECT_EQ(replayed.sink().contents(), journal.sink().contents());
  EXPECT_EQ(replayed.sink().contents().size(), image);
}

class SmallScale : public ::testing::Test {
 protected:
  void SetUp() override { setenv("COSCHED_BENCH_SCALE", "0.02", 1); }
  void TearDown() override { unsetenv("COSCHED_BENCH_SCALE"); }
};

TEST_F(SmallScale, ChangedPinCountsAsFailedMonth) {
  const MonthSpec month = workload_months(Workload::kPaperGrid).at(7);
  ASSERT_EQ(month.label, "load=0.50/HY");
  const MonthResult r = run_month(month, 5, false);
  const Pin pin{r.fingerprint, r.end_time};
  EXPECT_EQ(month_failure(r, pin), std::nullopt);
  EXPECT_EQ(month_failure(r, std::nullopt), std::nullopt);
  EXPECT_NE(month_failure(r, Pin{pin.fingerprint ^ 1, pin.end_time}),
            std::nullopt);
  EXPECT_NE(month_failure(r, Pin{pin.fingerprint, pin.end_time + 1}),
            std::nullopt);

  // A run judged against a changed pin counts the month as failed.
  PinTable changed;
  changed.set(month.label, 5, 0.02, Pin{pin.fingerprint + 1, pin.end_time});
  MonthJudge judge(changed, 0.02);
  judge(r);
  EXPECT_EQ(judge.attempted(), 1u);
  EXPECT_EQ(judge.failed(), 1u);
  EXPECT_TRUE(judge.all_pinned());

  // Without a pin, a later pass must repeat the first pass's outcome.
  PinTable none;
  MonthJudge unpinned(none, 0.02);
  unpinned(r);
  MonthResult drifted = r;
  drifted.end_time += 1;
  unpinned(drifted);
  EXPECT_EQ(unpinned.failed(), 1u);
  EXPECT_FALSE(unpinned.all_pinned());

  // The table round-trips through its file format.
  PinTable table;
  table.set(month.label, 5, 0.02, pin);
  std::stringstream file;
  table.write(file);
  PinTable back;
  back.read(file);
  EXPECT_EQ(back.find(month.label, 5, 0.02), pin);
  EXPECT_EQ(back.find(month.label, 6, 0.02), std::nullopt);
  EXPECT_EQ(back.find(month.label, 5, 1.0), std::nullopt);
}

TEST_F(SmallScale, TracedRunReproducesEveryWorkloadMonth) {
  Tracer tracer;
  for (Workload w : {Workload::kBaseMonth, Workload::kDurableChaos}) {
    for (const MonthSpec& m : workload_months(w)) {
      const MonthResult r = run_month(m, 3, true);
      ASSERT_EQ(month_failure(r, std::nullopt), std::nullopt) << m.label;
      TracedMonth traced(tracer, m, 3);
      traced.run();
      EXPECT_TRUE(traced.completed()) << m.label;
      EXPECT_EQ(compare(r, traced), std::vector<std::string>{}) << m.label;
      EXPECT_EQ(r.counts.at("proto.calls") > 0, m.cosched_on) << m.label;
      EXPECT_EQ(r.counts.at("liveness.heartbeats") > 0, m.chaos) << m.label;
      EXPECT_EQ(r.counts.at("fault.calls") > 0, m.chaos) << m.label;
      EXPECT_EQ(traced.sink(0) != nullptr, m.chaos) << m.label;
    }
  }
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(Workloads, GridCoversTheFigures) {
  EXPECT_EQ(workload_months(Workload::kBaseMonth).size(), 3u);
  EXPECT_EQ(workload_months(Workload::kPaperGrid).size(), 40u);
  EXPECT_EQ(workload_months(Workload::kDurableChaos).size(), 4u);
  for (Workload w :
       {Workload::kBaseMonth, Workload::kPaperGrid, Workload::kDurableChaos})
    EXPECT_EQ(parse_workload(workload_name(w)), w);
  EXPECT_EQ(parse_workload("nope"), std::nullopt);
}

}  // namespace
}  // namespace perfbench
