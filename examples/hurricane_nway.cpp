// N-way coscheduling: the paper's hurricane-forecasting scenario (§II-B).
//
// "Multiple climate analysis models are executed concurrently and their
// results are fed into one or many prediction models ... some of the models
// may be optimized to run on GPU-based systems while others are tailored for
// CPU-based systems."  The paper lists N-way coscheduling (more than two
// scheduling domains) as future work (§VI); this example exercises our
// implementation of it across three domains.
#include <iostream>

#include "core/coupled_sim.h"
#include "util/table.h"
#include "workload/pairing.h"
#include "workload/synth.h"

using namespace cosched;

int main() {
  // Three independent scheduling domains, as at a real center.
  std::vector<DomainSpec> specs(3);
  specs[0].name = "cpu-cluster";   // atmospheric model
  specs[0].capacity = 4096;
  specs[1].name = "gpu-cluster";   // ocean model (GPU-tuned)
  specs[1].capacity = 256;
  specs[2].name = "viz-wall";      // live forecast visualization
  specs[2].capacity = 64;
  for (auto& s : specs) {
    s.policy = "wfp";
    s.cosched.scheme = Scheme::kYield;  // conservative: no held nodes
    s.cosched.hold_release_period = 20 * kMinute;
  }
  // The big CPU machine can afford to hold.
  specs[0].cosched.scheme = Scheme::kHold;

  // Background load on each domain plus five forecast ensembles, each a
  // 3-way group (atmosphere + ocean + viz) that must start simultaneously.
  std::vector<Trace> traces(3);
  {
    SystemModel cpu;
    cpu.name = "cpu";
    cpu.capacity = 4096;
    cpu.sizes = {{128, 0.5}, {256, 0.3}, {512, 0.15}, {1024, 0.05}};
    cpu.runtime_log_mean = std::log(1800.0);
    cpu.runtime_log_sigma = 0.8;
    SynthParams p;
    p.span = 2 * kDay;
    p.offered_load = 0.5;
    p.seed = 11;
    traces[0] = generate_trace(cpu, p);

    SystemModel gpu = eureka_model();
    gpu.capacity = 256;
    p.seed = 12;
    p.offered_load = 0.4;
    traces[1] = generate_trace(gpu, p);
    for (auto& j : traces[1].jobs()) j.id += 1000000;

    SystemModel viz = eureka_model();
    viz.capacity = 64;
    // Drop size buckets larger than this smaller machine.
    std::erase_if(viz.sizes,
                  [&](const SizeBucket& b) { return b.nodes > viz.capacity; });
    p.seed = 13;
    p.offered_load = 0.3;
    traces[2] = generate_trace(viz, p);
    for (auto& j : traces[2].jobs()) j.id += 2000000;
  }

  GroupId group = 9000;
  for (int ensemble = 0; ensemble < 5; ++ensemble) {
    const Time submit = (4 + 8 * ensemble) * kHour;
    JobSpec atmosphere;
    atmosphere.id = 500000 + ensemble;
    atmosphere.submit = submit;
    atmosphere.runtime = 3 * kHour;
    atmosphere.walltime = 4 * kHour;
    atmosphere.nodes = 2048;
    atmosphere.group = group;
    traces[0].add(atmosphere);

    JobSpec ocean = atmosphere;
    ocean.id = 1500000 + ensemble;
    ocean.submit = submit + 5 * kMinute;
    ocean.nodes = 128;
    traces[1].add(ocean);

    JobSpec viz = atmosphere;
    viz.id = 2500000 + ensemble;
    viz.submit = submit + 10 * kMinute;
    viz.nodes = 32;
    traces[2].add(viz);
    ++group;
  }
  for (auto& t : traces) t.sort_by_submit();

  CoupledSim sim(specs, traces);
  const SimResult r = sim.run(60 * kDay);

  std::cout << "Hurricane forecasting, 5 ensembles x 3 domains\n\n";
  Table t({"ensemble", "atmosphere start", "ocean start", "viz start",
           "skew (s)"});
  for (int ensemble = 0; ensemble < 5; ++ensemble) {
    const Time a =
        sim.cluster(0).scheduler().lookup(500000 + ensemble)->start;
    const Time o =
        sim.cluster(1).scheduler().lookup(1500000 + ensemble)->start;
    const Time v =
        sim.cluster(2).scheduler().lookup(2500000 + ensemble)->start;
    const Time lo = std::min({a, o, v}), hi = std::max({a, o, v});
    t.add_row({std::to_string(ensemble),
               format_double(to_minutes(a), 1) + " min",
               format_double(to_minutes(o), 1) + " min",
               format_double(to_minutes(v), 1) + " min",
               std::to_string(hi - lo)});
  }
  t.print(std::cout);
  std::cout << "\nRun " << (r.completed ? "completed" : "FAILED") << "; "
            << r.groups.groups_started_together << "/" << r.groups.groups_total
            << " coupled groups started simultaneously.\n";
  return r.completed &&
                 r.groups.groups_started_together == r.groups.groups_total
             ? 0
             : 1;
}
