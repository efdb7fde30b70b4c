// Timing decorators the traced run puts between the simulator's layers.
//
//   Cluster ──> TimingPeer(outer) ──> FaultInjectingPeer ──> TimingPeer(inner)
//           ──> LoopbackPeer ──> TimingService ──> remote Cluster
//   Cluster ──> Journal ──> TimingJournalSink ──> MemoryJournalSink
//
// Each decorator forwards every call unchanged and opens one span around
// it, so the outer peer span's self time is the fault injector, the inner
// one's is the loopback codec, the service span's is the remote handler,
// and the sink span's is the durable store.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/journal.h"
#include "proto/peer.h"
#include "proto/service.h"
#include "tracer.h"

namespace perfbench {

class TimingPeer final : public cosched::PeerClient {
 public:
  /// kOuter spans sit outside the fault injector, kInner spans inside it.
  enum class Role : std::uint8_t { kOuter, kInner };

  TimingPeer(std::unique_ptr<cosched::PeerClient> inner, Tracer& tracer,
             std::uint32_t track, Role role)
      : inner_(std::move(inner)), tracer_(tracer), track_(track), role_(role) {}

  std::optional<std::optional<cosched::JobId>> get_mate_job(
      cosched::GroupId group, cosched::JobId asking) override {
    auto s = span(SpanName::kPeerGetMateJob, SpanName::kLoopGetMateJob);
    return inner_->get_mate_job(group, asking);
  }
  std::optional<cosched::MateStatus> get_mate_status(
      cosched::JobId mate) override {
    auto s = span(SpanName::kPeerGetMateStatus, SpanName::kLoopGetMateStatus);
    return inner_->get_mate_status(mate);
  }
  std::optional<bool> try_start_mate(cosched::JobId mate) override {
    auto s = span(SpanName::kPeerTryStartMate, SpanName::kLoopTryStartMate);
    return inner_->try_start_mate(mate);
  }
  std::optional<bool> start_job(cosched::JobId job) override {
    auto s = span(SpanName::kPeerStartJob, SpanName::kLoopStartJob);
    return inner_->start_job(job);
  }
  std::optional<bool> gang_prepare(cosched::JobId job,
                                   cosched::GroupId group) override {
    auto s = span(SpanName::kPeerGang, SpanName::kLoopGang);
    return inner_->gang_prepare(job, group);
  }
  std::optional<bool> gang_commit(cosched::JobId job,
                                  cosched::GroupId group) override {
    auto s = span(SpanName::kPeerGang, SpanName::kLoopGang);
    return inner_->gang_commit(job, group);
  }
  std::optional<bool> gang_abort(cosched::JobId job,
                                 cosched::GroupId group) override {
    auto s = span(SpanName::kPeerGang, SpanName::kLoopGang);
    return inner_->gang_abort(job, group);
  }
  std::optional<bool> gang_victim(cosched::JobId job,
                                  cosched::GroupId group) override {
    auto s = span(SpanName::kPeerGang, SpanName::kLoopGang);
    return inner_->gang_victim(job, group);
  }
  std::optional<cosched::HeartbeatInfo> heartbeat(
      const cosched::HeartbeatInfo& mine) override {
    auto s = span(SpanName::kPeerHeartbeat, SpanName::kLoopHeartbeat);
    return inner_->heartbeat(mine);
  }
  void set_fence_token(std::uint64_t token) override {
    inner_->set_fence_token(token);
  }

 private:
  Tracer::Scope span(SpanName outer, SpanName inner) {
    return tracer_.open(role_ == Role::kOuter ? outer : inner, track_);
  }

  std::unique_ptr<cosched::PeerClient> inner_;
  Tracer& tracer_;
  std::uint32_t track_;
  Role role_;
};

/// Wraps the Cluster a LoopbackPeer dispatches into.
class TimingService final : public cosched::CoschedService {
 public:
  TimingService(cosched::CoschedService& target, Tracer& tracer,
                std::uint32_t track)
      : target_(target), tracer_(tracer), track_(track) {}

  std::optional<cosched::JobId> get_mate_job(cosched::GroupId group,
                                             cosched::JobId asking) override {
    auto s = tracer_.open(SpanName::kServiceGetMateJob, track_);
    return target_.get_mate_job(group, asking);
  }
  cosched::MateStatus get_mate_status(cosched::JobId job) override {
    auto s = tracer_.open(SpanName::kServiceGetMateStatus, track_);
    return target_.get_mate_status(job);
  }
  bool try_start_mate(cosched::JobId job) override {
    auto s = tracer_.open(SpanName::kServiceTryStartMate, track_);
    return target_.try_start_mate(job);
  }
  bool start_job(cosched::JobId job) override {
    auto s = tracer_.open(SpanName::kServiceStartJob, track_);
    return target_.start_job(job);
  }
  std::optional<cosched::HeartbeatInfo> heartbeat(
      const cosched::HeartbeatInfo& from) override {
    auto s = tracer_.open(SpanName::kServiceHeartbeat, track_);
    return target_.heartbeat(from);
  }
  bool gang_prepare(cosched::JobId job, cosched::GroupId group) override {
    auto s = tracer_.open(SpanName::kServiceGang, track_);
    return target_.gang_prepare(job, group);
  }
  bool gang_commit(cosched::JobId job, cosched::GroupId group) override {
    auto s = tracer_.open(SpanName::kServiceGang, track_);
    return target_.gang_commit(job, group);
  }
  bool gang_abort(cosched::JobId job, cosched::GroupId group) override {
    auto s = tracer_.open(SpanName::kServiceGang, track_);
    return target_.gang_abort(job, group);
  }
  bool gang_victim(cosched::JobId job, cosched::GroupId group) override {
    auto s = tracer_.open(SpanName::kServiceGang, track_);
    return target_.gang_victim(job, group);
  }
  bool admit_fence(cosched::JobId job, std::uint64_t fence) override {
    auto s = tracer_.open(SpanName::kServiceAdmitFence, track_);
    return target_.admit_fence(job, fence);
  }

 private:
  cosched::CoschedService& target_;
  Tracer& tracer_;
  std::uint32_t track_;
};

/// The journal's sink operations in order, kept so that the same stream can
/// be replayed through a fresh Journal outside the simulation.
struct JournalCapture {
  enum class Op : std::uint8_t { kAppend, kCommit, kCompact };
  struct Entry {
    Op op;
    bool retain_previous;  ///< kCompact: the image kept an older generation
    std::size_t offset;    ///< kAppend: into frames; kCompact: into states
    std::size_t length;
  };
  std::vector<Entry> ops;
  std::vector<std::uint8_t> frames;  ///< appended frames, back to back
  std::vector<std::uint8_t> states;  ///< compaction snapshot states
};

/// Counts and times a journal's sink operations and keeps their stream.
class TimingJournalSink final : public cosched::JournalSink {
 public:
  TimingJournalSink(std::unique_ptr<cosched::JournalSink> inner,
                    Tracer& tracer, std::uint32_t track)
      : inner_(std::move(inner)), tracer_(tracer), track_(track) {}

  void append(std::span<const std::uint8_t> frame) override;
  void commit() override;
  void reset(std::vector<std::uint8_t> contents) override;
  std::vector<std::uint8_t> contents() const override;

  /// While set, reset() is the crash-restart resync of Journal::reopen,
  /// not a compaction: it is neither counted nor captured.
  void set_recovering(bool recovering) { recovering_ = recovering; }
  /// The operation stream so far (see JournalCapture).
  const JournalCapture& capture() const { return capture_; }

  std::uint64_t records() const { return records_; }
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t compacted_bytes() const { return compacted_bytes_; }

 private:
  void capture_compaction(std::span<const std::uint8_t> image);

  std::unique_ptr<cosched::JournalSink> inner_;
  Tracer& tracer_;
  std::uint32_t track_;
  bool recovering_ = false;
  JournalCapture capture_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compacted_bytes_ = 0;
};

/// Replays a captured stream through `into` (a fresh Journal): the time of
/// Journal::append plus Journal::commit, and of Journal::compact.
struct JournalReplayTimes {
  double append_s = 0.0;
  double compact_s = 0.0;
};
JournalReplayTimes replay_journal(const JournalCapture& capture,
                                  cosched::Journal& into);

}  // namespace perfbench
