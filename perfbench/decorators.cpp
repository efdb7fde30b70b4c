#include "decorators.h"

#include "util/error.h"

namespace perfbench {

void TimingJournalSink::append(std::span<const std::uint8_t> frame) {
  {
    auto s = tracer_.open(SpanName::kJournalAppend, track_);
    inner_->append(frame);
  }
  ++records_;
  bytes_appended_ += frame.size();
  {
    auto s = tracer_.open(SpanName::kCapture, track_);
    capture_.ops.push_back({JournalCapture::Op::kAppend, false,
                            capture_.frames.size(), frame.size()});
    capture_.frames.insert(capture_.frames.end(), frame.begin(), frame.end());
  }
}

void TimingJournalSink::commit() {
  {
    auto s = tracer_.open(SpanName::kJournalCommit, track_);
    inner_->commit();
  }
  ++commits_;
  capture_.ops.push_back({JournalCapture::Op::kCommit, false, 0, 0});
}

void TimingJournalSink::reset(std::vector<std::uint8_t> contents) {
  if (!recovering_) {
    ++compactions_;
    compacted_bytes_ += contents.size();
    capture_compaction(contents);
  }
  auto s = tracer_.open(SpanName::kJournalReset, track_);
  inner_->reset(std::move(contents));
}

std::vector<std::uint8_t> TimingJournalSink::contents() const {
  auto s = tracer_.open(SpanName::kJournalContents, track_);
  return inner_->contents();
}

void TimingJournalSink::capture_compaction(
    std::span<const std::uint8_t> image) {
  auto s = tracer_.open(SpanName::kCapture, track_);
  // The image is the new snapshot, preceded by the previous generation and
  // its tail when the journal kept them.
  const cosched::JournalReplay decoded = cosched::read_journal(image);
  if (decoded.tail_torn || decoded.records.empty() ||
      decoded.records.back().kind != cosched::JournalRecordKind::kSnapshot)
    throw cosched::Error("compaction image does not end in a snapshot");
  const cosched::SnapshotView view =
      cosched::parse_snapshot_payload(decoded.records.back());
  capture_.ops.push_back({JournalCapture::Op::kCompact,
                          decoded.records.size() > 1,
                          capture_.states.size(), view.state.size()});
  capture_.states.insert(capture_.states.end(), view.state.begin(),
                         view.state.end());
}

JournalReplayTimes replay_journal(const JournalCapture& capture,
                                  cosched::Journal& journal) {
  // Decode every appended frame first so that only Journal work is timed.
  std::vector<cosched::JournalRecord> records;
  for (const JournalCapture::Entry& e : capture.ops) {
    if (e.op != JournalCapture::Op::kAppend) continue;
    cosched::JournalReplay r = cosched::read_journal(
        std::span(capture.frames).subspan(e.offset, e.length));
    if (r.records.size() != 1)
      throw cosched::Error("captured journal frame does not decode");
    records.push_back(std::move(r.records[0]));
  }

  // Consecutive appends and commits are timed as one interval, so the clock
  // is read twice per compaction rather than twice per record.
  JournalReplayTimes t;
  std::size_t next_record = 0;
  std::size_t i = 0;
  while (i < capture.ops.size()) {
    const JournalCapture::Entry& e = capture.ops[i];
    const std::int64_t t0 = steady_ns();
    if (e.op == JournalCapture::Op::kCompact) {
      journal.compact(std::span(capture.states).subspan(e.offset, e.length),
                      e.retain_previous);
      t.compact_s += static_cast<double>(steady_ns() - t0) * 1e-9;
      ++i;
      continue;
    }
    for (; i < capture.ops.size() &&
           capture.ops[i].op != JournalCapture::Op::kCompact;
         ++i) {
      if (capture.ops[i].op == JournalCapture::Op::kCommit) {
        journal.commit();
      } else {
        const cosched::JournalRecord& r = records[next_record++];
        journal.append(r.kind, r.payload);
      }
    }
    t.append_s += static_cast<double>(steady_ns() - t0) * 1e-9;
  }
  return t;
}

}  // namespace perfbench
