// Quickstart: the smallest complete use of the coscheduling library.
//
// Two scheduling domains — a compute machine and an analysis cluster — are
// wired together over the coordination protocol.  A simulation job and its
// analysis mate are submitted to their respective machines at different
// times; coscheduling makes them start at the same instant.
//
// Build & run:  ./quickstart
#include <iostream>

#include "core/coupled_sim.h"

using namespace cosched;

int main() {
  // 1. Describe the two domains.  Each machine picks its own scheme locally
  //    (here: classic hold on compute, yield on analysis).
  std::vector<DomainSpec> specs = make_coupled_specs(
      "compute", /*capacity=*/1024, "analysis", /*capacity=*/64, kHY);

  // 2. Build the workloads.  Jobs sharing a group id across machines are
  //    "associated": the coscheduler guarantees they start together.
  JobSpec sim_job;
  sim_job.id = 1;
  sim_job.submit = 0;            // submitted at t=0
  sim_job.runtime = 2 * kHour;
  sim_job.walltime = 3 * kHour;
  sim_job.nodes = 512;
  sim_job.group = 42;            // <- association

  JobSpec viz_job;
  viz_job.id = 2;
  viz_job.submit = 20 * kMinute; // submitted 20 minutes later
  viz_job.runtime = 2 * kHour;
  viz_job.walltime = 3 * kHour;
  viz_job.nodes = 16;
  viz_job.group = 42;            // <- same group

  JobSpec background;            // a regular, unpaired job
  background.id = 3;
  background.submit = 5 * kMinute;
  background.runtime = kHour;
  background.walltime = 2 * kHour;
  background.nodes = 256;

  Trace compute_trace, analysis_trace;
  compute_trace.add(sim_job);
  compute_trace.add(background);
  analysis_trace.add(viz_job);

  // 3. Run the coupled simulation.
  CoupledSim sim(specs, {compute_trace, analysis_trace});
  const SimResult result = sim.run();

  // 4. Inspect the outcome.
  auto show = [&](std::size_t domain, JobId id) {
    const auto j = sim.cluster(domain).scheduler().lookup(id);
    std::cout << "  " << sim.cluster(domain).name() << " job " << id
              << ": submitted at " << to_minutes(j->spec.submit)
              << " min, started at " << to_minutes(j->start)
              << " min, waited " << to_minutes(j->wait_time())
              << " min (sync overhead " << to_minutes(j->sync_time())
              << " min)\n";
  };

  std::cout << "Coupled run " << (result.completed ? "completed" : "FAILED")
            << ".\n";
  show(0, 1);
  show(1, 2);
  show(0, 3);
  std::cout << "Associated pair started together: "
            << (result.groups.groups_started_together == 1 ? "yes" : "NO")
            << " (skew " << result.groups.max_start_skew << " s)\n";
  std::cout << "Node-hours spent holding on compute: "
            << sim.cluster(0).scheduler().pool().held_node_seconds() / kHour
            << "\n";
  return result.completed ? 0 : 1;
}
