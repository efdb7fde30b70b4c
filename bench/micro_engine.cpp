// Microbenchmarks (google-benchmark) for the simulation substrate:
// event-queue throughput, scheduler iteration cost, protocol round-trips,
// the journal's CRC-32 and compaction, a full coupled-month simulation, and
// one month-end domain snapshot.
#include <benchmark/benchmark.h>

#include "core/coupled_sim.h"
#include "core/journal.h"
#include "proto/peer.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "workload/pairing.h"
#include "workload/synth.h"

namespace cosched {
namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Engine e;
    Rng rng(1);
    for (std::size_t i = 0; i < n; ++i)
      e.schedule_at(rng.uniform_int(0, 1000000), 0, [] {});
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EngineCancel(benchmark::State& state) {
  for (auto _ : state) {
    Engine e;
    std::vector<EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i)
      ids.push_back(e.schedule_at(i, 0, [] {}));
    for (EventId id : ids) e.cancel(id);
    e.run();
    benchmark::DoNotOptimize(e.pending());
  }
}
BENCHMARK(BM_EngineCancel);

// Tombstone-heavy drain: 90% of a large queue is cancelled before any of it
// runs (the hold/yield retry-timer churn pattern at scale).  Once tombstones
// outnumber live entries the engine compacts the heap in one O(n) rebuild,
// so the drain costs O(live · log live) instead of sifting every dead entry
// through the comparator.
void BM_EngineCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Engine e;
    std::vector<EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      ids.push_back(e.schedule_at(static_cast<Time>(i), 0, [] {}));
    for (std::size_t i = 0; i < n; ++i)
      if (i % 10 != 0) e.cancel(ids[i]);
    e.run();
    benchmark::DoNotOptimize(e.heap_compactions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EngineCancelHeavy)->Arg(10000)->Arg(100000);

// Builds a scheduler mid-trace: `churn` short jobs already ran to
// completion (the job table carries that history, as it does a month into a
// trace), a filler job occupies all but `free_nodes` of the machine, a
// machine-sized head job blocks the queue, and `queue_len` jobs wait behind
// it.
Scheduler make_busy_scheduler(int queue_len, int churn, bool conservative,
                              NodeCount free_nodes) {
  SchedulerConfig cfg;
  cfg.conservative = conservative;
  Scheduler s(40960, make_policy("wfp"), cfg);
  for (int i = 0; i < churn; ++i) {
    JobSpec j;
    j.id = 1000000 + i;
    j.submit = 0;
    j.runtime = 10;
    j.walltime = 10;
    j.nodes = 1;
    s.submit(j, 0);
  }
  s.iterate(0);
  for (int i = 0; i < churn; ++i) s.finish(1000000 + i, 10);
  JobSpec filler;
  filler.id = 1;
  filler.submit = 10;
  filler.runtime = 1000000;
  filler.walltime = 1000000;
  filler.nodes = 40960 - free_nodes;
  s.submit(filler, 10);
  s.iterate(10);
  JobSpec head;
  head.id = 2;
  head.submit = 11;
  head.runtime = 100000;
  head.walltime = 100000;
  head.nodes = 40960;
  s.submit(head, 11);
  for (int i = 0; i < queue_len; ++i) {
    JobSpec j;
    j.id = 100 + i;
    j.submit = 11;
    j.runtime = 3600;
    j.walltime = 7200;
    j.nodes = 1024;
    s.submit(j, 11);
  }
  return s;
}

void BM_SchedulerIteration(benchmark::State& state) {
  const auto queue_len = static_cast<int>(state.range(0));
  const auto churn = static_cast<int>(state.range(1));
  Scheduler s = make_busy_scheduler(queue_len, churn, /*conservative=*/false,
                                    /*free_nodes=*/0);
  Time now = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.iterate(now));
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queue_len) *
                          state.iterations());
}
BENCHMARK(BM_SchedulerIteration)
    ->Args({10, 0})
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({100, 5000})
    ->Args({1000, 5000});

void BM_IterateConservative(benchmark::State& state) {
  const auto queue_len = static_cast<int>(state.range(0));
  const auto churn = static_cast<int>(state.range(1));
  Scheduler s = make_busy_scheduler(queue_len, churn, /*conservative=*/true,
                                    /*free_nodes=*/0);
  Time now = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.iterate(now));
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queue_len) *
                          state.iterations());
}
BENCHMARK(BM_IterateConservative)
    ->Args({100, 0})
    ->Args({100, 4000})
    ->Args({1000, 4000});

void BM_TryStartSpecific(benchmark::State& state) {
  const auto queue_len = static_cast<int>(state.range(0));
  const auto churn = static_cast<int>(state.range(1));
  // Leave a little capacity free so the targeted start exercises the full
  // reservation-legality scan (blocked head -> shadow) instead of bailing on
  // a full machine.
  Scheduler s = make_busy_scheduler(queue_len, churn, /*conservative=*/false,
                                    /*free_nodes=*/512);
  JobSpec target;
  target.id = 9999999;  // sorts after every queued tie -> full order scan
  target.submit = 11;
  target.runtime = 3600;
  target.walltime = 3600;
  target.nodes = 256;
  s.submit(target, 11);
  // The remote tryStartMate path declines without side effects (kSkip), so
  // the scheduler state is identical across benchmark iterations.
  const auto skip = [](RuntimeJob&) { return RunDecision::kSkip; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.try_start_specific(target.id, 1000, skip));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TryStartSpecific)->Args({100, 4000})->Args({1000, 4000});

void BM_ProtocolRoundTrip(benchmark::State& state) {
  Engine e;
  Cluster target(e, "t", 100, make_policy("fcfs"));
  target.register_expected([] {
    JobSpec j;
    j.id = 5;
    j.submit = 1000;
    j.runtime = 600;
    j.walltime = 600;
    j.nodes = 10;
    j.group = 42;
    return j;
  }());
  LoopbackPeer peer(target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(peer.get_mate_status(5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolRoundTrip);

void BM_MessageEncodeDecode(benchmark::State& state) {
  const Message m = make_get_mate_job_req(123456, 98765, 4242);
  for (auto _ : state) {
    const auto bytes = m.encode();
    benchmark::DoNotOptimize(Message::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageEncodeDecode);

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out)
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

void BM_Crc32(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) benchmark::DoNotOptimize(crc32(data));
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(524288);

// One periodic compaction as a journaled chaos month runs it: the image
// holds the previous ~400 KB snapshot and 2,000 records of ~28 payload
// bytes, and compact() retains them behind a new ~400 KB snapshot.
void BM_JournalCompact(benchmark::State& state) {
  const auto snapshot = random_bytes(400 * 1024, 11);
  const auto record = random_bytes(28, 13);
  Journal j(std::make_unique<MemoryJournalSink>());
  for (auto _ : state) {
    state.PauseTiming();
    // Restart from a one-snapshot image so every iteration compacts the
    // same amount of retained history.
    j.compact(snapshot, /*retain_previous=*/false);
    for (int i = 0; i < 2000; ++i)
      j.append(JournalRecordKind::kSubmit, record);
    j.commit();
    state.ResumeTiming();
    j.compact(snapshot);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JournalCompact)->Unit(benchmark::kMicrosecond);

/// A ~1/8-scale coupled Intrepid month next to a full Eureka month, with
/// 10% pairing and hold-yield.  `eureka_jobs` > 0 fixes the Eureka job
/// count instead of deriving it from the load.
struct CoupledMonth {
  std::vector<DomainSpec> specs;
  std::vector<Trace> traces;
};

CoupledMonth coupled_month(std::size_t eureka_jobs = 0) {
  SynthParams pa;
  pa.job_count = 1150;
  pa.span = 30 * kDay;
  pa.offered_load = 0.68;
  pa.seed = 1;
  Trace a = generate_trace(intrepid_model(), pa);
  SynthParams pb;
  pb.span = 30 * kDay;
  pb.offered_load = 0.5;
  pb.job_count = eureka_jobs;
  pb.seed = 2;
  Trace b = generate_trace(eureka_model(), pb);
  for (auto& j : b.jobs()) j.id += 1000000;
  pair_by_proportion(a, b, 0.10, 3);
  auto specs = make_coupled_specs("intrepid", 40960, "eureka", 100, kHY);
  for (auto& s : specs) s.policy = "wfp";
  return {specs, {a, b}};
}

void BM_CoupledMonth(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    const CoupledMonth month = coupled_month();
    state.ResumeTiming();

    CoupledSim sim(month.specs, month.traces);
    const SimResult r = sim.run(24 * 30 * kDay);
    benchmark::DoNotOptimize(r.completed);
  }
}
BENCHMARK(BM_CoupledMonth)->Unit(benchmark::kMillisecond);

// One compaction's snapshot of the Eureka domain at the end of a month of
// 9,000 Eureka jobs: every finished job, the ready-id set and the
// expected-spec table, as Cluster::journal_commit() writes it before each
// compaction.
void BM_ClusterSnapshot(benchmark::State& state) {
  const CoupledMonth month = coupled_month(/*eureka_jobs=*/9000);
  CoupledSim sim(month.specs, month.traces);
  sim.run(24 * 30 * kDay);
  const Cluster& eureka = sim.cluster(1);
  std::size_t bytes = 0;
  for (auto _ : state) {
    WireWriter w;
    eureka.write_snapshot(w);
    bytes = w.bytes().size();
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.counters["finished_jobs"] =
      static_cast<double>(eureka.scheduler().finished_count());
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_ClusterSnapshot)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
