// Timed wrappers around the trace generator and the pairing functions.
//
// The paper workloads are built by make_load_workload and
// make_proportion_workload (bench/common.cpp), which call the generator and
// the pairing functions directly.  The benchmark links with --wrap=<symbol>
// for each of them (CMakeLists.txt defines the mangled names as
// PERFBENCH_SYM_*), so those calls land here, open a span when a traced run
// is active, and forward to the original.  The asm labels bind each
// declaration to the linker's __real_/__wrap_ name for the mangled symbol.
#include "tracer.h"
#include "workload/pairing.h"
#include "workload/synth.h"

using cosched::Duration;
using cosched::GroupId;
using cosched::PairingResult;
using cosched::SynthParams;
using cosched::SystemModel;
using cosched::Trace;

#define PERFBENCH_REAL(sym) __asm__("__real_" sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

Trace real_generate_trace(const SystemModel& model, const SynthParams& params)
    PERFBENCH_REAL(PERFBENCH_SYM_GENERATE);
PairingResult real_pair_by_submit_proximity(Trace& a, Trace& b,
                                            Duration window,
                                            GroupId first_group)
    PERFBENCH_REAL(PERFBENCH_SYM_PROXIMITY);
double real_thin_pairs(Trace& a, Trace& b, double target_fraction,
                       std::uint64_t seed) PERFBENCH_REAL(PERFBENCH_SYM_THIN);
PairingResult real_pair_by_proportion(Trace& a, Trace& b, double proportion,
                                      std::uint64_t seed, Duration jitter,
                                      GroupId first_group)
    PERFBENCH_REAL(PERFBENCH_SYM_PROPORTION);

Trace wrap_generate_trace(const SystemModel& model, const SynthParams& params)
    PERFBENCH_WRAP(PERFBENCH_SYM_GENERATE);
PairingResult wrap_pair_by_submit_proximity(Trace& a, Trace& b,
                                            Duration window,
                                            GroupId first_group)
    PERFBENCH_WRAP(PERFBENCH_SYM_PROXIMITY);
double wrap_thin_pairs(Trace& a, Trace& b, double target_fraction,
                       std::uint64_t seed) PERFBENCH_WRAP(PERFBENCH_SYM_THIN);
PairingResult wrap_pair_by_proportion(Trace& a, Trace& b, double proportion,
                                      std::uint64_t seed, Duration jitter,
                                      GroupId first_group)
    PERFBENCH_WRAP(PERFBENCH_SYM_PROPORTION);

namespace {

template <typename F>
auto timed(perfbench::SpanName name, F&& call) {
  perfbench::Tracer* tracer = perfbench::active_tracer();
  if (tracer == nullptr) return call();
  auto span = tracer->open(name, perfbench::kMonthTrack);
  return call();
}

}  // namespace

Trace wrap_generate_trace(const SystemModel& model, const SynthParams& params) {
  return timed(perfbench::SpanName::kGenerate,
               [&] { return real_generate_trace(model, params); });
}

PairingResult wrap_pair_by_submit_proximity(Trace& a, Trace& b,
                                            Duration window,
                                            GroupId first_group) {
  return timed(perfbench::SpanName::kPair, [&] {
    return real_pair_by_submit_proximity(a, b, window, first_group);
  });
}

double wrap_thin_pairs(Trace& a, Trace& b, double target_fraction,
                       std::uint64_t seed) {
  return timed(perfbench::SpanName::kPair, [&] {
    return real_thin_pairs(a, b, target_fraction, seed);
  });
}

PairingResult wrap_pair_by_proportion(Trace& a, Trace& b, double proportion,
                                      std::uint64_t seed, Duration jitter,
                                      GroupId first_group) {
  return timed(perfbench::SpanName::kPair, [&] {
    return real_pair_by_proportion(a, b, proportion, seed, jitter,
                                   first_group);
  });
}
