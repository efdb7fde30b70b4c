// Walkthrough of the paper's Fig. 2 hold-hold deadlock and its resolution.
//
// Machine A holds job a1 (6 nodes) waiting for mate b1, which queues on
// machine B behind job b2 — which itself holds all of B waiting for mate a2,
// queued on A behind a1.  A circular wait: the textbook deadlock.
// The §IV-E1 enhancement — periodic hold release with one-iteration priority
// demotion — breaks it.
#include <iostream>

#include "core/coupled_sim.h"
#include "core/deadlock.h"

using namespace cosched;

namespace {

JobSpec job(JobId id, Time submit, GroupId group) {
  JobSpec j;
  j.id = id;
  j.submit = submit;
  j.runtime = 10 * kMinute;
  j.walltime = 20 * kMinute;
  j.nodes = 6;  // each job needs the whole 6-node machine
  j.group = group;
  return j;
}

void run_variant(bool with_release) {
  std::cout << "--- hold-hold with release "
            << (with_release ? "ENABLED (20 min)" : "DISABLED") << " ---\n";
  auto specs = make_coupled_specs("A", 6, "B", 6, kHH, true,
                                  with_release ? 20 * kMinute : Duration{0});
  Trace a, b;
  a.add(job(1, 0, 101));    // a1, mate b1
  a.add(job(2, 60, 102));   // a2, mate b2
  b.add(job(20, 0, 102));   // b2, mate a2
  b.add(job(10, 60, 101));  // b1, mate a1

  CoupledSim sim(specs, {a, b});

  // Peek at the state shortly after both holds are established.
  sim.engine().run_until(5 * kMinute);
  std::cout << "t=5min: A holding " << sim.cluster(0).scheduler().pool().held()
            << "/6 nodes, B holding "
            << sim.cluster(1).scheduler().pool().held() << "/6 nodes\n";
  const bool cycle = has_hold_wait_cycle({&sim.cluster(0), &sim.cluster(1)});
  std::cout << "t=5min: circular wait detected: " << (cycle ? "YES" : "no")
            << "\n";

  const SimResult r = sim.run(7 * kDay);
  if (r.completed) {
    std::cout << "All jobs completed. Start times:\n";
    for (auto [domain, id] : {std::pair<std::size_t, JobId>{0, 1},
                              {0, 2},
                              {1, 10},
                              {1, 20}}) {
      const auto j = sim.cluster(domain).scheduler().lookup(id);
      std::cout << "  " << sim.cluster(domain).name() << "/job " << id
                << " started at t=" << to_minutes(j->start) << " min\n";
    }
    std::cout << "Forced releases: A="
              << sim.cluster(0).forced_releases()
              << " B=" << sim.cluster(1).forced_releases() << "\n";
  } else {
    std::cout << "DEADLOCK: simulation drained with "
              << r.groups.groups_unstarted
              << " coupled groups never started; queues frozen forever.\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "Fig. 2 deadlock scenario (ICPP'11): two machines, 6 nodes"
               " each,\ntwo coupled pairs submitted crosswise.\n\n";
  run_variant(/*with_release=*/false);
  run_variant(/*with_release=*/true);
  std::cout << "The periodic release breaks circular wait: a released holder"
               "\nis demoted for one iteration, letting the waiting mate's"
               "\npartner take the nodes and the pairs start in turn.\n";
  return 0;
}
