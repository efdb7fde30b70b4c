// Journal codec pins: the CRC-32 kernel against a bitwise reference,
// Journal::compact() against the decode/re-encode algorithm it replaced, and
// the byte image of a journaled chaos run's snapshot.  Together they hold the
// on-disk format still while the codec's implementation changes.
#include "core/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core_test_util.h"
#include "workload/pairing.h"
#include "workload/synth.h"

namespace cosched {
namespace {

using testutil::fnv1a;
using testutil::two_domains;

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<std::uint8_t> payload_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> p;
  for (int b : bytes) p.push_back(static_cast<std::uint8_t>(b));
  return p;
}

// -- CRC-32 ---------------------------------------------------------------

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected): the definition, with no
/// tables to get wrong.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(64 + 8);
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t start = 0; start < 8; ++start)
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + start, len);
      EXPECT_EQ(crc32(s), crc32_bitwise(s))
          << "start " << start << " length " << len;
    }

  std::vector<std::uint8_t> big(512 * 1024);
  for (std::uint8_t& b : big) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  EXPECT_EQ(crc32(big), crc32_bitwise(big));
}

// -- compaction equivalence -----------------------------------------------

/// The compaction algorithm as it stood before frames were retained by
/// byte copy: salvage-scan the old image, re-encode every intact record
/// from the newest intact snapshot on (wrapping a v1 snapshot as generation
/// 0), then append the new snapshot.  Kept here only as the oracle.
std::vector<std::uint8_t> reference_compact(
    std::span<const std::uint8_t> old_image, std::uint64_t seq,
    std::uint64_t generation, std::span<const std::uint8_t> snapshot) {
  std::vector<std::uint8_t> image;
  const SalvageReport rep = salvage_scan(old_image);
  std::size_t snap_idx = rep.records.size();
  for (std::size_t i = 0; i < rep.records.size(); ++i)
    if (rep.records[i].kind == JournalRecordKind::kSnapshot) snap_idx = i;
  for (std::size_t i = snap_idx; i < rep.records.size(); ++i) {
    const JournalRecord& rec = rep.records[i];
    const auto f =
        rec.version < 2 && rec.kind == JournalRecordKind::kSnapshot
            ? encode_frame(rec.seq, rec.kind,
                           make_snapshot_payload(0, rec.payload))
            : encode_frame(rec.seq, rec.kind, rec.payload);
    image.insert(image.end(), f.begin(), f.end());
  }
  const auto f = encode_frame(seq, JournalRecordKind::kSnapshot,
                              make_snapshot_payload(generation, snapshot));
  image.insert(image.end(), f.begin(), f.end());
  return image;
}

/// Compacts `image` with Journal::compact() and with the reference; both
/// must produce the same bytes.  Returns the new image.
std::vector<std::uint8_t> expect_same_compaction(
    const std::vector<std::uint8_t>& image) {
  const std::vector<std::uint8_t> snapshot = payload_of({9, 8, 7, 6, 5});
  auto sink = std::make_unique<MemoryJournalSink>();
  sink->reset(image);
  Journal j(std::move(sink));
  j.reopen();
  const std::vector<std::uint8_t> want = reference_compact(
      image, j.next_seq(), j.snapshot_generation() + 1, snapshot);
  j.compact(snapshot);
  const std::vector<std::uint8_t> got = j.sink().contents();
  EXPECT_EQ(got, want);
  return got;
}

/// Legacy v1 frame: [u32 len][u32 crc32(body)][body].
std::vector<std::uint8_t> v1_frame(std::uint64_t seq, JournalRecordKind kind,
                                   std::span<const std::uint8_t> payload) {
  WireWriter w;
  w.put_u64(seq);
  w.put_u8(static_cast<std::uint8_t>(kind));
  std::vector<std::uint8_t> body = w.take();
  body.insert(body.end(), payload.begin(), payload.end());
  std::vector<std::uint8_t> out;
  for (const std::uint32_t v :
       {static_cast<std::uint32_t>(body.size()), crc32(body)})
    for (int k = 0; k < 4; ++k)
      out.push_back(static_cast<std::uint8_t>(v >> 8 * k));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// A clean two-generation v2 image: snapshot 1, records, snapshot 2,
/// records.  `offsets` receives the start of every frame.
std::vector<std::uint8_t> clean_image(std::vector<std::size_t>* offsets) {
  Journal j(std::make_unique<MemoryJournalSink>());
  j.compact(payload_of({1, 1, 1}), /*retain_previous=*/false);
  for (int i = 0; i < 5; ++i)
    j.append(JournalRecordKind::kSubmit, payload_of({i, 2 * i}));
  j.commit();
  j.compact(payload_of({2, 2, 2, 2}));
  for (int i = 0; i < 4; ++i)
    j.append(JournalRecordKind::kIterate, payload_of({i}));
  j.append(JournalRecordKind::kFinish, std::vector<std::uint8_t>(300, 0x5a));
  j.commit();
  std::vector<std::uint8_t> image = j.sink().contents();
  if (offsets != nullptr) {
    offsets->clear();
    for (std::size_t pos = 0; pos < image.size();) {
      offsets->push_back(pos);
      pos += 16 + (image[pos + 4] | image[pos + 5] << 8 |
                   image[pos + 6] << 16);
    }
  }
  return image;
}

/// Index (into clean_image's frame offsets) of the newest snapshot frame.
std::size_t newest_snapshot_frame(const std::vector<std::uint8_t>& image,
                                  const std::vector<std::size_t>& offsets) {
  const JournalReplay rep = read_journal(image);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < rep.records.size(); ++i)
    if (rep.records[i].kind == JournalRecordKind::kSnapshot) idx = i;
  EXPECT_EQ(rep.records.size(), offsets.size());
  return idx;
}

TEST(CompactEquivalence, CleanV2Image) {
  const std::vector<std::uint8_t> image = clean_image(nullptr);
  const std::vector<std::uint8_t> out = expect_same_compaction(image);
  // The previous generation (snapshot 2 + 5 records) plus the new snapshot.
  EXPECT_EQ(read_journal(out).records.size(), 7u);
}

TEST(CompactEquivalence, MixedV1V2ImageWrapsLegacySnapshotAsGenerationZero) {
  std::vector<std::uint8_t> image;
  for (const auto& f :
       {v1_frame(1, JournalRecordKind::kSubmit, payload_of({3})),
        v1_frame(2, JournalRecordKind::kSnapshot, payload_of({4, 2})),
        v1_frame(3, JournalRecordKind::kSubmit, payload_of({1})),
        v1_frame(4, JournalRecordKind::kIterate, payload_of({2})),
        encode_frame(5, JournalRecordKind::kFinish, payload_of({5, 5})),
        encode_frame(6, JournalRecordKind::kIterate, {})})
    image.insert(image.end(), f.begin(), f.end());
  const std::vector<std::uint8_t> out = expect_same_compaction(image);
  const JournalReplay rep = read_journal(out);
  ASSERT_EQ(rep.records.size(), 6u);
  for (const JournalRecord& rec : rep.records) EXPECT_EQ(rec.version, 2);
  const SnapshotView legacy = parse_snapshot_payload(rep.records[0]);
  EXPECT_EQ(legacy.generation, 0u);
  EXPECT_TRUE(legacy.checksum_ok);
}

TEST(CompactEquivalence, BitFlippedRecordAfterNewestSnapshotIsScrubbed) {
  std::vector<std::size_t> offsets;
  std::vector<std::uint8_t> image = clean_image(&offsets);
  const std::size_t snap = newest_snapshot_frame(image, offsets);
  image[offsets[snap + 2] + 17] ^= 0x04;  // a body byte of the 2nd record
  const std::vector<std::uint8_t> out = expect_same_compaction(image);
  const SalvageReport rep = salvage_scan(out);
  EXPECT_TRUE(rep.corrupt_regions.empty());
  // The rotten record is gone; its neighbours survive.
  EXPECT_EQ(rep.records.size(), 6u);
  EXPECT_EQ(rep.seq_holes, 1u);
}

TEST(CompactEquivalence, RottenNewestSnapshotRetainsThePreviousGeneration) {
  std::vector<std::size_t> offsets;
  std::vector<std::uint8_t> image = clean_image(&offsets);
  const std::size_t snap = newest_snapshot_frame(image, offsets);
  image[offsets[snap] + 20] ^= 0x80;  // inside the newest snapshot's body
  const std::vector<std::uint8_t> out = expect_same_compaction(image);
  const JournalReplay rep = read_journal(out);
  ASSERT_FALSE(rep.records.empty());
  EXPECT_EQ(rep.records[0].kind, JournalRecordKind::kSnapshot);
  EXPECT_EQ(parse_snapshot_payload(rep.records[0]).generation, 1u);
  // Generation 1, its five records, the five after the lost snapshot, and
  // the new snapshot.
  EXPECT_EQ(rep.records.size(), 12u);
}

TEST(CompactEquivalence, RottenHeaderAndTornTailAreDropped) {
  std::vector<std::size_t> offsets;
  std::vector<std::uint8_t> image = clean_image(&offsets);
  const std::size_t snap = newest_snapshot_frame(image, offsets);
  image[offsets[snap + 1] + 6] ^= 0x01;  // a length byte: rotten v2 header
  image.resize(image.size() - 3);        // the last frame is torn
  expect_same_compaction(image);
}

TEST(CompactEquivalence, NonCanonicalSequenceVarintIsReencoded) {
  // A frame whose seq varint carries a redundant continuation byte verifies
  // (both CRCs match) but is not what encode_frame writes; compaction must
  // re-encode it rather than copy it.
  std::vector<std::uint8_t> image =
      encode_frame(1, JournalRecordKind::kSnapshot,
                   make_snapshot_payload(1, payload_of({1})));
  const std::vector<std::uint8_t> body = {0x82, 0x00, 3, 7};  // seq 2, kSubmit
  std::vector<std::uint8_t> frame;
  const auto le32 = [&frame](std::uint32_t v) {
    for (int k = 0; k < 4; ++k)
      frame.push_back(static_cast<std::uint8_t>(v >> 8 * k));
  };
  le32(kJournalMagicV2);
  le32(static_cast<std::uint32_t>(body.size()));
  le32(crc32(body));
  le32(crc32(std::span<const std::uint8_t>(frame.data(), 12)));
  frame.insert(frame.end(), body.begin(), body.end());
  image.insert(image.end(), frame.begin(), frame.end());
  ASSERT_EQ(read_journal(image).records.size(), 2u);
  const std::vector<std::uint8_t> out = expect_same_compaction(image);
  const auto canonical =
      encode_frame(2, JournalRecordKind::kSubmit, payload_of({7}));
  EXPECT_NE(std::search(out.begin(), out.end(), canonical.begin(),
                        canonical.end()),
            out.end());
}

TEST(CompactEquivalence, WithoutRetentionTheImageIsOneSnapshotFrame) {
  Journal j(std::make_unique<MemoryJournalSink>());
  j.append(JournalRecordKind::kSubmit, payload_of({1}));
  j.commit();
  const std::vector<std::uint8_t> snapshot = payload_of({6, 6});
  j.compact(snapshot, /*retain_previous=*/false);
  EXPECT_EQ(j.sink().contents(),
            encode_frame(2, JournalRecordKind::kSnapshot,
                         make_snapshot_payload(1, snapshot)));
}

// -- snapshot byte pin ----------------------------------------------------

/// A journaled chaos month in miniature: synthetic traces with a quarter of
/// the jobs paired, link faults, liveness, compaction every 40 records and
/// a crash-and-recover of domain 0, stopped mid-run.
struct ChaosPin {
  std::uint64_t snapshot_hash = 0;
  std::size_t snapshot_bytes = 0;
  std::uint64_t journal_hash[2] = {0, 0};
};

ChaosPin run_chaos_pin() {
  SynthParams p;
  p.span = 8 * kHour;
  p.offered_load = 0.7;
  p.seed = 41;
  Trace a = generate_trace(eureka_model(), p);
  p.seed = 42;
  Trace b = generate_trace(eureka_model(), p);
  for (auto& j : b.jobs()) j.id += 1000000;
  pair_by_proportion(a, b, 0.25, 43);

  CoupledSim sim(two_domains(kHY), std::vector<Trace>{a, b});
  FaultPlan plan;
  plan.seed = 44;
  plan.drop_probability = 0.02;
  plan.latency_base = 5;
  plan.latency_jitter = 60;
  plan.rpc_deadline = 60;
  plan.retry_backoff = 60;
  sim.set_fault_plan_all(plan);
  CoschedConfig::Liveness liveness;
  liveness.enabled = true;
  sim.set_liveness_all(liveness);
  sim.enable_journaling(/*compact_every=*/40);
  sim.schedule_crash_recovery(0, 150);
  sim.engine().run_until(6 * kHour);

  ChaosPin pin;
  WireWriter w;
  sim.snapshot(w);
  pin.snapshot_hash = fnv1a(w.bytes());
  pin.snapshot_bytes = w.bytes().size();
  for (std::size_t d = 0; d < 2; ++d)
    pin.journal_hash[d] = fnv1a(sim.journal(d).sink().contents());
  EXPECT_TRUE(sim.last_recovery(0).has_value());
  EXPECT_GE(sim.journal(0).snapshot_generation(), 2u);
  return pin;
}

TEST(SnapshotPin, ChaosRunSnapshotAndJournalBytesAreUnchanged) {
  // Values recorded from the decode/re-encode compaction and the
  // sort-ids-then-look-up snapshot encoder: any drift in the encoded order
  // or the framing fails here, not in some later replay.
  const ChaosPin pin = run_chaos_pin();
  EXPECT_EQ(pin.snapshot_bytes, 3145u);
  EXPECT_EQ(pin.snapshot_hash, 0x15df88de0b79efbfULL);
  EXPECT_EQ(pin.journal_hash[0], 0x3cc23af3aa3dcc0ULL);
  EXPECT_EQ(pin.journal_hash[1], 0xffcd34aac9216affULL);
}

}  // namespace
}  // namespace cosched
