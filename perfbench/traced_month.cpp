#include "traced_month.h"

#include <sstream>

#include "sched/policy.h"
#include "util/rng.h"

namespace perfbench {

using cosched::Cluster;
using cosched::EventPriority;

TracedMonth::TracedMonth(Tracer& tracer, const MonthSpec& month,
                         std::uint64_t seed)
    : tracer_(tracer) {
  auto setup = tracer.open(SpanName::kMonthSetup, kMonthTrack);
  tracer.label_current(month.label);
  const MonthInputs in = make_inputs(month, seed);
  const std::size_t n = in.specs.size();

  // CoupledSim's constructor, with the decorators spliced in.
  for (const cosched::DomainSpec& spec : in.specs)
    clusters_.push_back(std::make_unique<Cluster>(
        engine_, spec.name, spec.capacity, cosched::make_policy(spec.policy),
        spec.cosched, spec.sched, spec.alloc));
  for (std::size_t d = 0; d < n; ++d) {
    tracer.set_track_name(static_cast<std::uint32_t>(d), in.specs[d].name);
    services_.push_back(std::make_unique<TimingService>(
        *clusters_[d], tracer, static_cast<std::uint32_t>(d)));
  }
  for (std::size_t from = 0; from < n; ++from) {
    const auto track = static_cast<std::uint32_t>(from);
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      auto loopback = std::make_unique<cosched::LoopbackPeer>(*services_[to]);
      loopbacks_.push_back(loopback.get());
      auto fault = std::make_unique<cosched::FaultInjectingPeer>(
          std::make_unique<TimingPeer>(std::move(loopback), tracer, track,
                                       TimingPeer::Role::kInner),
          &engine_);
      fault->set_retry_listener(
          [cluster = clusters_[from].get()] { cluster->request_iteration(); });
      faults_.push_back(fault.get());
      links_.push_back(std::make_unique<TimingPeer>(
          std::move(fault), tracer, track, TimingPeer::Role::kOuter));
      clusters_[from]->add_peer(*links_.back());
      engine_.add_dependency(clusters_[from]->source(),
                             clusters_[to]->source());
    }
  }
  engine_.build_clusters();
  for (std::size_t d = 0; d < n; ++d) clusters_[d]->load_trace(in.traces[d]);

  sinks_.assign(n, nullptr);
  recoveries_.resize(n);
  if (!month.chaos) return;

  // configure(): CoupledSim::set_fault_plan_all, set_liveness_all,
  // enable_journaling and schedule_crash_recovery.
  const cosched::FaultPlan plan = chaos::fault_plan(seed);
  cosched::SplitMix64 mix(plan.seed);
  std::size_t link = 0;
  for (std::size_t from = 0; from < n; ++from)
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      cosched::FaultPlan p = plan;
      p.seed = mix.next() ^ (static_cast<std::uint64_t>(from) << 32 | to);
      faults_[link++]->set_plan(std::move(p));
    }
  for (auto& c : clusters_) {
    cosched::CoschedConfig cfg = c->config();
    cfg.liveness = chaos::liveness();
    c->set_config(cfg);
  }
  for (std::size_t d = 0; d < n; ++d) {
    auto sink = std::make_unique<TimingJournalSink>(
        std::make_unique<cosched::MemoryJournalSink>(), tracer,
        static_cast<std::uint32_t>(d));
    sinks_[d] = sink.get();
    journals_.push_back(std::make_unique<cosched::Journal>(std::move(sink)));
    clusters_[d]->set_journal(journals_.back().get(), chaos::kCompactEvery);
  }
  for (std::size_t d = 0; d < n; ++d) {
    const std::uint64_t at_seq = chaos::kCrashAtSeq[d];
    journals_[d]->set_on_commit([this, d, at_seq](std::uint64_t seq) {
      if (seq < at_seq) return;
      journals_[d]->set_on_commit(nullptr);
      engine_.schedule_from(clusters_[d]->source(), engine_.now(),
                            EventPriority::kMessage,
                            [this, d] { crash_and_recover(d); });
    });
  }
}

void TracedMonth::crash_and_recover(std::size_t domain) {
  cosched::Journal& journal = *journals_[domain];
  sinks_[domain]->set_recovering(true);
  journal.reopen();
  sinks_[domain]->set_recovering(false);
  recoveries_[domain] = clusters_[domain]->recover_from_journal(journal);
}

double TracedMonth::run() {
  const std::int64_t t0 = steady_ns();
  {
    auto sim = tracer_.open(SpanName::kMonthSim, kMonthTrack);
    // CoupledSim::run's serial loop.
    while (engine_.step())
      if (engine_.now() > kGuardTime) break;
  }
  return static_cast<double>(steady_ns() - t0) * 1e-9;
}

bool TracedMonth::completed() const {
  bool all = true;
  for (const auto& c : clusters_)
    c->scheduler().for_each_job(
        [&](cosched::JobId, const cosched::RuntimeJob& j) {
          if (j.state != cosched::JobState::kFinished) all = false;
        });
  return all;
}

std::vector<JobOutcome> TracedMonth::outcomes() const {
  std::vector<const Cluster*> clusters;
  for (const auto& c : clusters_) clusters.push_back(c.get());
  return job_outcomes(clusters);
}

Counts TracedMonth::counts() const {
  SystemView v;
  v.engine = &engine_;
  for (const auto& c : clusters_) v.clusters.push_back(c.get());
  v.loopbacks = loopbacks_;
  for (const cosched::FaultInjectingPeer* f : faults_) v.links.push_back(f);
  for (const auto& r : recoveries_)
    if (r) v.recoveries.push_back(&*r);
  return read_counts(v);
}

std::vector<std::string> compare(const MonthResult& untraced,
                                 const TracedMonth& traced) {
  std::vector<std::string> diffs;
  const std::vector<JobOutcome> got = traced.outcomes();
  if (got.size() != untraced.outcomes.size()) {
    diffs.push_back("job count " + std::to_string(got.size()) + " vs " +
                    std::to_string(untraced.outcomes.size()));
  } else {
    for (std::size_t i = 0; i < got.size(); ++i) {
      const JobOutcome& a = untraced.outcomes[i];
      const JobOutcome& b = got[i];
      if (a == b) continue;
      std::ostringstream o;
      o << "job " << a.id << ": (start " << a.start << ", end " << a.end
        << ", yields " << a.yields << ", releases " << a.releases
        << ") vs job " << b.id << ": (" << b.start << ", " << b.end << ", "
        << b.yields << ", " << b.releases << ")";
      diffs.push_back(o.str());
      break;
    }
  }
  const Counts counts = traced.counts();
  for (const auto& [name, value] : untraced.counts) {
    if (name.ends_with("_s")) continue;
    const auto it = counts.find(name);
    const double other = it == counts.end() ? -1.0 : it->second;
    if (other != value)
      diffs.push_back(name + " " + std::to_string(value) + " vs " +
                      std::to_string(other));
  }
  return diffs;
}

}  // namespace perfbench
