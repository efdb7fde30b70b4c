// Shared machinery for the figure-reproduction benches.
//
// Experiment design follows the paper's §V-A/§V-D/§V-E:
//  * Intrepid: 40,960 nodes, one month, 9,219 jobs, WFP + backfilling.
//  * Eureka: 100 nodes, WFP + backfilling.
//  * Load experiments (Figs. 3-6): Intrepid trace fixed, Eureka offered load
//    in {0.25, 0.50, 0.75}; jobs paired by 2-minute submit proximity, then
//    thinned to the paper's 5-10% paired share (we target 7.5%).
//  * Proportion experiments (Figs. 7-10): Eureka trace with the same job
//    count and span as Intrepid, offered load 0.5; paired proportion in
//    {2.5, 5, 10, 20, 33}%.
//  * Hold-release period 20 minutes; each case averaged over
//    COSCHED_BENCH_RUNS seeds (default 3; the paper used 10).
//
// Execution model: each bench declares every series it needs up front
// (prewarm_series), the harness fans the (series x seed) cases out over
// COSCHED_BENCH_THREADS workers, and aggregation happens afterwards in
// deterministic seed order — results are identical to a serial run.  Each
// bench binary also emits a machine-readable BENCH_<name>.json (per-case
// mean/stddev, wall seconds, simulated events/sec) for CI and regression
// tracking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/coupled_sim.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/trace.h"

namespace cosched::bench {

inline constexpr double kEurekaLoads[] = {0.25, 0.50, 0.75};
inline constexpr double kPairedProportions[] = {0.025, 0.05, 0.10, 0.20,
                                                0.33};

/// Number of repetitions per case: COSCHED_BENCH_RUNS (default 3).
int runs();

/// Workload size multiplier: COSCHED_BENCH_SCALE scales the job counts /
/// span down for quick smoke runs (default 1.0 = paper scale).
double scale();

/// Host CPUs (hardware concurrency, at least 1) — recorded in bench JSON so
/// speedup numbers can be judged against the machine they ran on.
int hardware_cpus();

/// Worker threads for the batched (case x seed) sweep of parallel_for:
/// COSCHED_BENCH_THREADS (default: hardware concurrency, at least 1).  Each
/// simulation itself runs on one thread.
int threads();

/// Runs fn(i) for i in [0, n) on up to threads() workers (serially when
/// threads() == 1).  Blocks until all tasks finish; rethrows the first
/// task exception afterwards.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

struct CoupledWorkload {
  Trace intrepid;
  Trace eureka;
  double paired_fraction = 0.0;
};

/// Figs. 3-6 workload (Eureka load on the x-axis).
CoupledWorkload make_load_workload(double eureka_load, std::uint64_t seed);

/// Figs. 7-10 workload (paired proportion on the x-axis).
CoupledWorkload make_proportion_workload(double proportion,
                                         std::uint64_t seed);

struct CaseMetrics {
  SystemMetrics intrepid;
  SystemMetrics eureka;
  GroupStartStats groups;
  bool completed = false;
  /// Host wall time of the simulation (excludes workload generation).
  double wall_seconds = 0.0;
  /// Engine events executed by the simulation.
  std::uint64_t events = 0;
};

/// Runs one coupled simulation.  `enabled` false gives the paper's "base"
/// series.  Throws if the simulation stalls past its guard time.
CaseMetrics run_case(const CoupledWorkload& w, SchemeCombo combo,
                     bool enabled, const CoschedConfig& tweak = {});

/// Mean of a metric over `runs()` seeds of the same case.
struct Series {
  RunningStats intrepid_wait, eureka_wait;
  RunningStats intrepid_slow, eureka_slow;
  RunningStats intrepid_sync, eureka_sync;
  RunningStats intrepid_loss_nh, eureka_loss_nh;
  RunningStats intrepid_loss_frac, eureka_loss_frac;
  RunningStats paired_fraction;
  std::size_t pairs_total = 0;
  std::size_t pairs_synced = 0;
  /// Summed simulation wall time / engine events across the seeds.
  double sim_wall_seconds = 0.0;
  std::uint64_t events = 0;

  void add(const CaseMetrics& m, double paired_frac);
};

/// One declared series: a (workload family, x value, scheme combo, enabled,
/// tweak) case to be averaged over runs() seeds.
struct SeriesSpec {
  bool by_load = true;
  double x = 0.0;
  SchemeCombo combo = kHH;
  bool enabled = true;
  CoschedConfig tweak = {};
};

/// Canonical case label, e.g. "load=0.50/HY" or "prop=5.0%/HH/base".
std::string series_label(const SeriesSpec& spec);

/// Computes every (series, seed) case of `specs` in parallel over threads()
/// workers and caches the seed-order-aggregated Series.  Duplicate specs are
/// computed once.  Subsequent run_series() calls with a matching spec return
/// the cached result, so declaring the full set up front parallelizes a
/// bench without restructuring its reporting loops.
void prewarm_series(const std::vector<SeriesSpec>& specs);

/// Runs a full case across seeds and aggregates (cache-aware: served from
/// the prewarm_series cache when present, computed serially otherwise).
Series run_series(bool by_load, double x, SchemeCombo combo, bool enabled,
                  const CoschedConfig& tweak = {});

/// Machine-readable per-bench output: BENCH_<name>.json written into
/// COSCHED_BENCH_JSON_DIR (default: current directory).  Schema:
///   { "bench": ..., "runs": N, "scale": S, "threads": T,
///     "machine": { "cpus": hardware concurrency, "threads_used": T },
///     "cases": [ { "case": label, "runs": N, "wall_seconds": W,
///                  "events": E, "events_per_sec": R,
///                  "metrics": { name: {"mean": M, "stddev": D}, ... } } ] }
class BenchJsonFile {
 public:
  struct Metric {
    std::string name;
    double mean = 0.0;
    double stddev = 0.0;
  };

  explicit BenchJsonFile(std::string bench_name);

  void add_case(const std::string& case_name, double wall_seconds,
                std::uint64_t events, std::vector<Metric> metrics);

  /// Writes the file (idempotent; also invoked by the destructor).
  void write();
  ~BenchJsonFile();

 private:
  struct Case {
    std::string name;
    double wall_seconds;
    std::uint64_t events;
    std::vector<Metric> metrics;
  };
  std::string name_;
  std::vector<Case> cases_;
  bool written_ = false;
};

/// Writes BENCH_<name>.json covering every series cached so far (i.e. the
/// bench's prewarmed + computed series, in declaration order).
void export_bench_json(const std::string& name);

/// Standard preamble: experiment title + configuration echo.
void print_header(const std::string& figure, const std::string& what);

/// When COSCHED_BENCH_CSV_DIR is set, opens <dir>/<name>.csv for the
/// figure's series; returns nullptr otherwise.
std::unique_ptr<CsvWriter> bench_csv(const std::string& name);

/// Writes the table as <name>.csv if COSCHED_BENCH_CSV_DIR is set.
void maybe_export_csv(const std::string& name, const Table& table);

}  // namespace cosched::bench
