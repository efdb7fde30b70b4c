// Coupled simulation + visualization pipeline (the paper's §II-B motivation:
// FLASH with VL3, PHASTA with ParaView).
//
// A month of compute jobs runs on an Intrepid-like machine; a fraction of
// them are coupled to analysis jobs on a Eureka-like cluster.  We compare:
//   1. post-hoc analysis    — the analysis job is submitted only after the
//                             compute job finishes (today's common practice);
//   2. coscheduled co-execution — both start together, so output is analyzed
//                             at run time and I/O can stream over the network.
//
// The figure of merit is the end-to-end "insight latency" of a coupled
// campaign: compute submission -> analysis completion.
#include <iostream>
#include <map>

#include "core/coupled_sim.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/pairing.h"
#include "workload/synth.h"

using namespace cosched;

namespace {

struct Campaign {
  Trace compute;
  Trace analysis;  // used in the coscheduled variant
};

Campaign make_campaign(double paired_share, std::uint64_t seed) {
  SynthParams p;
  p.job_count = 2000;
  p.span = 10 * kDay;
  p.offered_load = 0.65;
  p.seed = seed;
  Campaign c;
  c.compute = generate_trace(intrepid_model(), p);

  SynthParams q;
  q.span = 10 * kDay;
  q.offered_load = 0.4;
  q.seed = seed + 1;
  c.analysis = generate_trace(eureka_model(), q);
  for (auto& j : c.analysis.jobs()) j.id += 1000000;
  pair_by_proportion(c.compute, c.analysis, paired_share, seed + 2);
  return c;
}

// End-to-end latency of coupled work under post-hoc execution: the analysis
// job is resubmitted at its compute mate's completion time.
double post_hoc_latency_minutes(const Campaign& c) {
  // First, run compute alone.
  std::vector<DomainSpec> specs = make_coupled_specs(
      "intrepid", 40960, "eureka", 100, kYY, /*cosched_enabled=*/false);
  specs[0].policy = specs[1].policy = "wfp";

  Trace compute = c.compute;
  for (auto& j : compute.jobs()) j.group = kNoGroup;
  CoupledSim phase1(specs, {compute, Trace{}});
  phase1.run();

  // Then resubmit each coupled analysis job at its mate's end time (group
  // ids were cleared in the submitted copy; recover from the original
  // trace).
  std::map<GroupId, Time> compute_end;
  for (const JobSpec& orig : c.compute.jobs()) {
    if (!orig.is_paired()) continue;
    const auto j = phase1.cluster(0).scheduler().lookup(orig.id);
    compute_end[orig.group] = j->end;
  }

  Trace analysis;
  for (const JobSpec& j : c.analysis.jobs()) {
    JobSpec copy = j;
    if (copy.is_paired()) copy.submit = compute_end.at(copy.group);
    copy.group = kNoGroup;
    analysis.add(copy);
  }
  analysis.sort_by_submit();
  CoupledSim phase2(specs, {Trace{}, analysis});
  phase2.run();

  // Latency: compute submit -> analysis end, averaged over coupled groups.
  double total = 0;
  std::size_t n = 0;
  for (const JobSpec& orig : c.compute.jobs()) {
    if (!orig.is_paired()) continue;
    for (const JobSpec& mate : c.analysis.jobs()) {
      if (mate.group != orig.group) continue;
      const auto aj = phase2.cluster(1).scheduler().lookup(mate.id);
      total += to_minutes(aj->end - orig.submit);
      ++n;
      break;
    }
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

// End-to-end latency under coscheduled co-execution.
double coscheduled_latency_minutes(const Campaign& c, SchemeCombo combo) {
  std::vector<DomainSpec> specs =
      make_coupled_specs("intrepid", 40960, "eureka", 100, combo);
  specs[0].policy = specs[1].policy = "wfp";
  CoupledSim sim(specs, {c.compute, c.analysis});
  const SimResult r = sim.run(24 * 30 * kDay);
  if (!r.completed) return -1;

  double total = 0;
  std::size_t n = 0;
  for (const JobSpec& orig : c.compute.jobs()) {
    if (!orig.is_paired()) continue;
    for (const JobSpec& mate : c.analysis.jobs()) {
      if (mate.group != orig.group) continue;
      const auto aj = sim.cluster(1).scheduler().lookup(mate.id);
      total += to_minutes(aj->end - orig.submit);
      ++n;
      break;
    }
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("paired-share", "0.1",
               "fraction of compute jobs coupled to analysis jobs");
  flags.define("seed", "7", "workload seed");
  try {
    flags.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 2;
  }

  const Campaign c =
      make_campaign(flags.get_double("paired-share"),
                    static_cast<std::uint64_t>(flags.get_int("seed")));
  std::cout << "Coupled viz pipeline: " << c.compute.size()
            << " compute jobs, " << c.analysis.size() << " analysis jobs, "
            << c.compute.stats().paired_count << " coupled pairs\n\n";

  const double post_hoc = post_hoc_latency_minutes(c);
  std::cout << "post-hoc execution  : avg insight latency "
            << format_double(post_hoc) << " min\n";
  for (const SchemeCombo& combo : {kHY, kYY}) {
    const double v = coscheduled_latency_minutes(c, combo);
    std::cout << "coscheduled (" << combo.label << ")    : avg insight latency "
              << format_double(v) << " min  ("
              << format_percent(1.0 - v / post_hoc, 1) << " faster)\n";
  }
  std::cout << "\nCo-execution removes the second queue wait and overlaps\n"
               "analysis with the run — the benefit the paper's motivating\n"
               "applications (FLASH/VL3, PHASTA/ParaView) are after.\n";
  return 0;
}
