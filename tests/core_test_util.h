// Shared builders for core coscheduling tests.
#pragma once

#include <cstdint>

#include "core/coupled_sim.h"
#include "workload/trace.h"

namespace cosched::testutil {

inline JobSpec job(JobId id, Time submit, Duration runtime, NodeCount nodes,
                   GroupId group = kNoGroup, Duration walltime = 0) {
  JobSpec j;
  j.id = id;
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = walltime > 0 ? walltime : runtime;
  j.nodes = nodes;
  j.group = group;
  return j;
}

/// Two 100-node domains "alpha"/"beta" with the given scheme combo.
inline std::vector<DomainSpec> two_domains(
    SchemeCombo combo, Duration release = 20 * kMinute,
    const std::string& policy = "fcfs") {
  auto specs = make_coupled_specs("alpha", 100, "beta", 100, combo,
                                  /*cosched_enabled=*/true, release);
  specs[0].policy = policy;
  specs[1].policy = policy;
  return specs;
}

/// A copy of a job's runtime record, live or finished (asserts it exists).
inline RuntimeJob find_job(CoupledSim& sim, std::size_t domain, JobId id) {
  const auto j = sim.cluster(domain).scheduler().lookup(id);
  if (!j) throw Error("test: job not found");
  return *j;
}

/// FNV-1a over a byte string: the pins of journal, snapshot and event-log
/// bytes.  `Bytes` is any range of char or std::uint8_t.
template <typename Bytes>
std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace cosched::testutil
