#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "util/error.h"

namespace cosched {

namespace {

/// Slice-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is the
/// classic byte table, kCrcTables[k][b] the CRC of byte b followed by k zero
/// bytes, so eight table lookups advance the CRC over eight input bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le32(out, static_cast<std::uint32_t>(v));
  put_le32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_le32(p)) |
         static_cast<std::uint64_t>(get_le32(p + 4)) << 32;
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Bytes of the wire varint encoding of `v` (WireWriter::put_u64).
std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

constexpr std::size_t kV2HeaderBytes = 16;
/// Snapshot envelope header: u64 generation ++ u32 crc32(state).
constexpr std::size_t kSnapshotEnvelopeBytes = 12;

/// Starts a v2 frame at the end of `out`: a header placeholder, then the
/// body prefix (seq as the wire varint WireWriter::put_u64 writes, then
/// kind).  The caller appends the payload and calls end_frame().  Returns
/// the frame's offset in `out`.
std::size_t begin_frame(std::vector<std::uint8_t>& out, std::uint64_t seq,
                        JournalRecordKind kind) {
  const std::size_t start = out.size();
  out.resize(start + kV2HeaderBytes);
  for (; seq >= 0x80; seq >>= 7)
    out.push_back(static_cast<std::uint8_t>(seq) | 0x80);
  out.push_back(static_cast<std::uint8_t>(seq));
  out.push_back(static_cast<std::uint8_t>(kind));
  return start;
}

/// Fills in the header of the frame begun at `start`, whose body runs to
/// the end of `out`.
void end_frame(std::vector<std::uint8_t>& out, std::size_t start) {
  std::uint8_t* header = out.data() + start;
  const std::span<const std::uint8_t> body(header + kV2HeaderBytes,
                                           out.size() - start - kV2HeaderBytes);
  store_le32(header, kJournalMagicV2);
  store_le32(header + 4, static_cast<std::uint32_t>(body.size()));
  store_le32(header + 8, crc32(body));
  store_le32(header + 12, crc32(std::span<const std::uint8_t>(header, 12)));
}

/// Appends the snapshot envelope (generation, state CRC, state) to `out`.
void put_snapshot_payload(std::vector<std::uint8_t>& out,
                          std::uint64_t generation,
                          std::span<const std::uint8_t> state) {
  put_le64(out, generation);
  put_le32(out, crc32(state));
  out.insert(out.end(), state.begin(), state.end());
}

/// Outcome of decoding one frame at a fixed offset.  kTruncated means the
/// frame runs past the end of the buffer (a crash artifact when nothing
/// intact follows); kBad means the bytes are there but wrong (rot).
enum class FrameStatus { kOk, kTruncated, kBad };

/// One intact frame, decoded in place: `payload` aliases the scanned image.
struct FrameView {
  std::uint64_t seq = 0;
  JournalRecordKind kind = JournalRecordKind::kSnapshot;
  std::uint8_t version = 2;
  /// The frame is byte for byte what encode_frame() writes for it (v2 with
  /// a minimal seq varint), so copying it equals re-encoding it.
  bool canonical = false;
  std::size_t offset = 0;  ///< first byte of the frame in the image
  std::size_t size = 0;    ///< total frame bytes (header + body)
  std::span<const std::uint8_t> payload;
  const char* error = "";

  JournalRecord record() const {
    return {seq, kind, {payload.begin(), payload.end()}, version};
  }
};

FrameStatus parse_frame_at(std::span<const std::uint8_t> bytes,
                           std::size_t pos, FrameView& out) {
  const std::size_t n = bytes.size();
  if (n - pos < 4) {
    out.error = "truncated header";
    return FrameStatus::kTruncated;
  }
  const std::uint32_t first = get_le32(bytes.data() + pos);
  std::size_t header = 0;
  std::uint32_t len = 0;
  std::uint32_t body_crc = 0;
  std::uint8_t version = 1;
  if (first == kJournalMagicV2) {
    if (n - pos < kV2HeaderBytes) {
      out.error = "truncated v2 header";
      return FrameStatus::kTruncated;
    }
    len = get_le32(bytes.data() + pos + 4);
    body_crc = get_le32(bytes.data() + pos + 8);
    const std::uint32_t header_crc = get_le32(bytes.data() + pos + 12);
    if (crc32(std::span<const std::uint8_t>(bytes.data() + pos, 12)) !=
        header_crc) {
      out.error = "rotten v2 header";
      return FrameStatus::kBad;
    }
    header = kV2HeaderBytes;
    version = 2;
  } else {
    if (n - pos < 8) {
      out.error = "truncated header";
      return FrameStatus::kTruncated;
    }
    len = first;
    body_crc = get_le32(bytes.data() + pos + 4);
    header = 8;
    version = 1;
  }
  if (n - pos - header < len) {
    out.error =
        version == 2 ? "truncated v2 body" : "truncated body";
    return FrameStatus::kTruncated;
  }
  const std::span<const std::uint8_t> body(bytes.data() + pos + header, len);
  if (crc32(body) != body_crc) {
    out.error = "body CRC mismatch";
    return FrameStatus::kBad;
  }
  try {
    WireReader r(body);
    out.seq = r.get_u64();
    const std::uint8_t k = r.get_u8();
    if (k > static_cast<std::uint8_t>(JournalRecordKind::kGangVictim))
      throw ParseError("journal: unknown record kind");
    out.kind = static_cast<JournalRecordKind>(k);
    const std::size_t prefix = len - r.remaining();
    out.payload = body.subspan(prefix);
    out.canonical = version == 2 && prefix == varint_size(out.seq) + 1;
  } catch (const ParseError&) {
    out.error = "unparseable record";
    return FrameStatus::kBad;
  }
  out.version = version;
  out.offset = pos;
  out.size = header + len;
  return FrameStatus::kOk;
}

/// Finds the next offset >= `from` holding a fully intact v2 frame (v1
/// frames carry no magic, so rot inside a pure-v1 region cannot be
/// resynced past).  Returns npos when nothing intact follows.
std::size_t resync_to_magic(std::span<const std::uint8_t> bytes,
                            std::size_t from) {
  constexpr std::uint8_t first_byte =
      static_cast<std::uint8_t>(kJournalMagicV2 & 0xffu);
  const std::size_t n = bytes.size();
  for (std::size_t p = from; p + kV2HeaderBytes <= n; ++p) {
    if (bytes[p] != first_byte) continue;
    if (get_le32(bytes.data() + p) != kJournalMagicV2) continue;
    FrameView f;
    if (parse_frame_at(bytes, p, f) == FrameStatus::kOk) return p;
  }
  return static_cast<std::size_t>(-1);
}

/// The one frame walker under salvage_scan() and Journal::compact(): calls
/// `on_frame(const FrameView&)` for every intact frame in stream order,
/// resyncing on the v2 magic past a bad region, and attributes every
/// unreadable byte to `out`'s corrupt regions or its torn tail.  Copies no
/// payload.
template <typename OnFrame>
void walk_frames(std::span<const std::uint8_t> bytes, SalvageReport& out,
                 OnFrame&& on_frame) {
  out.bytes_scanned = bytes.size();
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    FrameView f;
    const FrameStatus st = parse_frame_at(bytes, pos, f);
    if (st == FrameStatus::kOk) {
      on_frame(f);
      pos += f.size;
      continue;
    }
    const std::size_t next = resync_to_magic(bytes, pos + 1);
    if (next == static_cast<std::size_t>(-1)) {
      // Nothing intact follows.  A frame that simply ran off the end of the
      // buffer is a torn tail (normal crash artifact); bytes that are
      // present but wrong are trailing rot.
      if (st == FrameStatus::kTruncated) {
        out.tail_torn = true;
      } else {
        out.corrupt_regions.push_back({pos, bytes.size() - pos, f.error});
        out.bytes_skipped += bytes.size() - pos;
      }
      break;
    }
    out.corrupt_regions.push_back({pos, next - pos, f.error});
    out.bytes_skipped += next - pos;
    pos = next;
  }
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get_le32(p) ^ c;
    const std::uint32_t hi = get_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

const char* to_string(JournalRecordKind k) {
  switch (k) {
    case JournalRecordKind::kSnapshot: return "snapshot";
    case JournalRecordKind::kIncarnation: return "incarnation";
    case JournalRecordKind::kExpected: return "expected";
    case JournalRecordKind::kSubmit: return "submit";
    case JournalRecordKind::kReady: return "ready";
    case JournalRecordKind::kStart: return "start";
    case JournalRecordKind::kHold: return "hold";
    case JournalRecordKind::kHoldRelease: return "hold-release";
    case JournalRecordKind::kYield: return "yield";
    case JournalRecordKind::kFinish: return "finish";
    case JournalRecordKind::kKill: return "kill";
    case JournalRecordKind::kIterate: return "iterate";
    case JournalRecordKind::kTickArmed: return "tick-armed";
    case JournalRecordKind::kTickFired: return "tick-fired";
    case JournalRecordKind::kIterArmed: return "iter-armed";
    case JournalRecordKind::kPeriodicArmed: return "periodic-armed";
    case JournalRecordKind::kDegraded: return "degraded";
    case JournalRecordKind::kDedup: return "dedup";
    case JournalRecordKind::kLeaseGrant: return "lease-grant";
    case JournalRecordKind::kLeaseRenew: return "lease-renew";
    case JournalRecordKind::kLeaseExpire: return "lease-expire";
    case JournalRecordKind::kLeaseFence: return "lease-fence";
    case JournalRecordKind::kHeartbeat: return "heartbeat";
    case JournalRecordKind::kLivenessArmed: return "liveness-armed";
    case JournalRecordKind::kGangPrepare: return "gang-prepare";
    case JournalRecordKind::kGangCommit: return "gang-commit";
    case JournalRecordKind::kGangAbort: return "gang-abort";
    case JournalRecordKind::kGangVictim: return "gang-victim";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(std::uint64_t seq,
                                       JournalRecordKind kind,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kV2HeaderBytes + varint_size(seq) + 1 + payload.size());
  const std::size_t start = begin_frame(out, seq, kind);
  out.insert(out.end(), payload.begin(), payload.end());
  end_frame(out, start);
  return out;
}

std::vector<std::uint8_t> make_snapshot_payload(
    std::uint64_t generation, std::span<const std::uint8_t> state) {
  std::vector<std::uint8_t> out;
  out.reserve(kSnapshotEnvelopeBytes + state.size());
  put_snapshot_payload(out, generation, state);
  return out;
}

SnapshotView parse_snapshot_payload(const JournalRecord& rec) {
  SnapshotView v;
  if (rec.version < 2) {
    // v1 snapshots are the raw state — nothing to verify against.
    v.state = std::span<const std::uint8_t>(rec.payload);
    return v;
  }
  if (rec.payload.size() < kSnapshotEnvelopeBytes) {
    v.checksum_ok = false;
    return v;
  }
  v.generation = get_le64(rec.payload.data());
  const std::uint32_t want = get_le32(rec.payload.data() + 8);
  v.state = std::span<const std::uint8_t>(rec.payload).subspan(
      kSnapshotEnvelopeBytes);
  v.checksum_ok = crc32(v.state) == want;
  return v;
}

// -- FileJournalSink ---------------------------------------------------------

FileJournalSink::FileJournalSink(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  COSCHED_CHECK_MSG(fd_ >= 0, "journal open " << path_ << ": "
                                              << std::strerror(errno));
}

FileJournalSink::~FileJournalSink() {
  if (fd_ >= 0) ::close(fd_);
}

void FileJournalSink::append(std::span<const std::uint8_t> frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC)
        throw JournalNoSpace(std::string("journal write: ") +
                             std::strerror(errno));
      throw Error(std::string("journal write: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void FileJournalSink::commit() {
  if (::fsync(fd_) != 0)
    throw Error(std::string("journal fsync: ") + std::strerror(errno));
}

void FileJournalSink::reset(std::vector<std::uint8_t> contents) {
  const std::string tmp = path_ + ".compact";
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  COSCHED_CHECK_MSG(tfd >= 0, "journal compact open " << tmp << ": "
                                                      << std::strerror(errno));
  std::size_t off = 0;
  while (off < contents.size()) {
    const ssize_t n = ::write(tfd, contents.data() + off,
                              contents.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(tfd);
      ::unlink(tmp.c_str());
      if (e == ENOSPC)
        throw JournalNoSpace(std::string("journal compact write: ") +
                             std::strerror(e));
      throw Error(std::string("journal compact write: ") + std::strerror(e));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(tfd) != 0) {
    const int e = errno;
    ::close(tfd);
    ::unlink(tmp.c_str());
    throw Error(std::string("journal compact fsync: ") + std::strerror(e));
  }
  ::close(tfd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0)
    throw Error(std::string("journal compact rename: ") +
                std::strerror(errno));
  // The rename is only durable once the parent directory's entry is on
  // disk: without this fsync a crash right here can resurrect the old image
  // or leave the name dangling, undoing a "completed" compaction.
  const auto slash = path_.find_last_of('/');
  const std::string dir =
      slash == std::string::npos
          ? "."
          : (slash == 0 ? "/" : path_.substr(0, slash));
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0)
    throw Error(std::string("journal compact dir open ") + dir + ": " +
                std::strerror(errno));
  if (::fsync(dfd) != 0) {
    const int e = errno;
    ::close(dfd);
    throw Error(std::string("journal compact dir fsync: ") +
                std::strerror(e));
  }
  ::close(dfd);
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND, 0644);
  COSCHED_CHECK_MSG(fd_ >= 0, "journal reopen " << path_ << ": "
                                                << std::strerror(errno));
}

std::vector<std::uint8_t> FileJournalSink::contents() const {
  std::vector<std::uint8_t> out;
  const int rfd = ::open(path_.c_str(), O_RDONLY);
  if (rfd < 0)
    throw JournalIoError(std::string("journal read open ") + path_ + ": " +
                         std::strerror(errno));
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::read(rfd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A partial read must never masquerade as a clean short journal —
      // recovery would replay a silently truncated image.
      const int e = errno;
      ::close(rfd);
      throw JournalIoError(std::string("journal read ") + path_ + ": " +
                           std::strerror(e));
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(rfd);
  return out;
}

// -- Journal -----------------------------------------------------------------

Journal::Journal(std::unique_ptr<JournalSink> sink) : sink_(std::move(sink)) {
  COSCHED_CHECK(sink_ != nullptr);
}

std::uint64_t Journal::append(JournalRecordKind kind,
                              std::span<const std::uint8_t> payload) {
  const std::uint64_t seq = next_seq_++;
  try {
    sink_->append(encode_frame(seq, kind, payload));
  } catch (const JournalNoSpace&) {
    // Swallow here, surface at the commit boundary: an append sits in the
    // middle of a mutation path, and tearing that apart would leave live
    // state half-changed.  The sequence number stays consumed, so the
    // dropped record is a detectable hole, never a silent splice.
    no_space_ = true;
  }
  last_appended_seq_ = seq;
  ++records_since_compaction_;
  dirty_ = true;
  return seq;
}

void Journal::commit() {
  if (!dirty_) return;
  sink_->commit();
  dirty_ = false;
  last_committed_seq_ = last_appended_seq_;
  // Call through a copy: the hook may clear/replace itself (the kill-anywhere
  // harness disarms its crash trigger from inside the callback).
  if (on_commit_) {
    const auto fn = on_commit_;
    fn(last_committed_seq_);
  }
}

void Journal::reopen() {
  // Whatever was appended but never committed is gone — model the crash by
  // resetting the sink to its durable image, then re-sync counters from it.
  // Salvage (not strict) scanning: even with rot mid-log the counters must
  // resume past the highest intact record, or post-recovery appends would
  // reuse sequence numbers and forge duplicates.
  sink_->reset(sink_->contents());
  const std::vector<std::uint8_t> bytes = sink_->contents();
  const SalvageReport rep = salvage_scan(bytes);
  std::uint64_t last = 0;
  std::uint64_t last_snap_seq = 0;
  for (const JournalRecord& rec : rep.records) {
    last = std::max(last, rec.seq);
    if (rec.kind == JournalRecordKind::kSnapshot) {
      last_snap_seq = std::max(last_snap_seq, rec.seq);
      const SnapshotView v = parse_snapshot_payload(rec);
      snapshot_generation_ = std::max(snapshot_generation_, v.generation);
    }
  }
  std::uint64_t after_snap = 0;
  for (const JournalRecord& rec : rep.records)
    if (rec.seq > last_snap_seq) ++after_snap;
  next_seq_ = last + 1;
  last_appended_seq_ = last;
  last_committed_seq_ = last;
  records_since_compaction_ = after_snap;
  dirty_ = false;
  no_space_ = false;
}

void Journal::compact(std::span<const std::uint8_t> snapshot_payload,
                      bool retain_previous) {
  // Keep the previous snapshot and every intact frame after it as the
  // fallback generation.  Copying a verified canonical frame writes exactly
  // what re-encoding it would.  A v1 snapshot's payload is the raw state;
  // once its frame says v2, readers expect the generation envelope, so wrap
  // it (generation 0 = pre-generation legacy).
  std::vector<std::uint8_t> old;
  std::vector<FrameView> retained;
  if (retain_previous) {
    old = sink_->contents();
    bool have_snapshot = false;
    SalvageReport scan;
    walk_frames(old, scan, [&](const FrameView& f) {
      if (f.kind == JournalRecordKind::kSnapshot) {
        retained.clear();
        have_snapshot = true;
      }
      if (have_snapshot) retained.push_back(f);
    });
  }
  std::size_t image_bytes = kV2HeaderBytes + varint_size(next_seq_) + 1 +
                            kSnapshotEnvelopeBytes + snapshot_payload.size();
  if (!retained.empty())
    image_bytes += retained.back().offset + retained.back().size -
                   retained.front().offset;
  std::vector<std::uint8_t> image;
  image.reserve(image_bytes);
  for (const FrameView& f : retained) {
    if (f.canonical) {
      const auto from = old.begin() + static_cast<std::ptrdiff_t>(f.offset);
      image.insert(image.end(), from,
                   from + static_cast<std::ptrdiff_t>(f.size));
      continue;
    }
    const std::size_t start = begin_frame(image, f.seq, f.kind);
    if (f.version < 2 && f.kind == JournalRecordKind::kSnapshot)
      put_snapshot_payload(image, 0, f.payload);
    else
      image.insert(image.end(), f.payload.begin(), f.payload.end());
    end_frame(image, start);
  }
  const std::uint64_t seq = next_seq_++;
  const std::size_t start =
      begin_frame(image, seq, JournalRecordKind::kSnapshot);
  put_snapshot_payload(image, ++snapshot_generation_, snapshot_payload);
  end_frame(image, start);
  sink_->reset(std::move(image));
  last_appended_seq_ = seq;
  last_committed_seq_ = seq;
  records_since_compaction_ = 0;
  dirty_ = false;
  no_space_ = false;
}

void Journal::degrade_to_memory() {
  auto mem = std::make_unique<MemoryJournalSink>();
  try {
    mem->reset(sink_->contents());
  } catch (const Error&) {
    // Nothing readable to carry over — degrade to an empty in-memory
    // journal; the owner re-seeds it with a fresh snapshot.
  }
  sink_ = std::move(mem);
  degraded_ = true;
  no_space_ = false;
  dirty_ = false;
}

JournalReplay read_journal(std::span<const std::uint8_t> bytes) {
  JournalReplay out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    FrameView f;
    if (parse_frame_at(bytes, pos, f) != FrameStatus::kOk) {
      out.tail_torn = true;  // strict torn-tail rule: stop at the first flaw
      break;
    }
    out.records.push_back(f.record());
    pos += f.size;
    out.bytes_scanned = pos;
  }
  return out;
}

SalvageReport salvage_scan(std::span<const std::uint8_t> bytes) {
  SalvageReport out;
  walk_frames(bytes, out, [&out](const FrameView& f) {
    out.records.push_back(f.record());
  });
  for (std::size_t i = 1; i < out.records.size(); ++i) {
    const std::uint64_t prev = out.records[i - 1].seq;
    const std::uint64_t cur = out.records[i].seq;
    if (cur <= prev) {
      ++out.duplicate_records;
    } else if (cur != prev + 1) {
      ++out.seq_holes;
      out.records_missing += cur - prev - 1;
    }
  }
  return out;
}

}  // namespace cosched
