// Wire-protocol robustness: serialization round-trips for every
// Request/Answer/Status variant, and malformed-frame handling — truncated
// headers, oversized lengths, bad checksums, unknown versions, corrupted and
// random byte streams — must end in a typed protocol error with the decoder
// in a defined (poisoned) state, never a crash, hang, or allocation blowup.
// Runs under the ASan/UBSan CI legs like every other test binary.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace qreg {
namespace net {
namespace {

std::vector<uint8_t> OneFrame(FrameType type, uint64_t id,
                              const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes;
  AppendFrame(&bytes, type, id, payload);
  return bytes;
}

// Decodes exactly one frame from a complete byte string.
FrameDecoder::Event DecodeAll(const std::vector<uint8_t>& bytes, Frame* frame,
                              FrameDecoder* decoder) {
  decoder->Feed(bytes.data(), bytes.size());
  return decoder->Next(frame);
}

// ---------------------------------------------------------------- framing --

TEST(WireFrameTest, RoundTripEmptyAndNonEmptyPayloads) {
  for (const std::vector<uint8_t>& payload :
       {std::vector<uint8_t>{}, std::vector<uint8_t>{1, 2, 3, 0xFF, 0}}) {
    const std::vector<uint8_t> bytes =
        OneFrame(FrameType::kRequest, 42, payload);
    ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());

    FrameDecoder decoder;
    Frame frame;
    ASSERT_EQ(DecodeAll(bytes, &frame, &decoder), FrameDecoder::Event::kFrame);
    EXPECT_EQ(frame.header.type, FrameType::kRequest);
    EXPECT_EQ(frame.header.request_id, 42u);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Event::kNeedMore);
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(WireFrameTest, ByteAtATimeFeedStillDecodes) {
  const std::vector<uint8_t> bytes =
      OneFrame(FrameType::kPing, 7, {9, 8, 7, 6});
  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(&bytes[i], 1);
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Event::kNeedMore)
        << "complete frame after only " << i + 1 << " bytes";
  }
  decoder.Feed(&bytes.back(), 1);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Event::kFrame);
  EXPECT_EQ(frame.header.request_id, 7u);
}

TEST(WireFrameTest, MultipleFramesInOneFeed) {
  std::vector<uint8_t> bytes;
  AppendFrame(&bytes, FrameType::kRequest, 1, {0xAA});
  AppendFrame(&bytes, FrameType::kPing, 2, nullptr, 0);
  AppendFrame(&bytes, FrameType::kRequest, 3, {0xBB, 0xCC});

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  for (uint64_t want = 1; want <= 3; ++want) {
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Event::kFrame);
    EXPECT_EQ(frame.header.request_id, want);
  }
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Event::kNeedMore);
}

TEST(WireFrameTest, TruncatedHeaderIsNeedMoreNotError) {
  const std::vector<uint8_t> bytes = OneFrame(FrameType::kRequest, 5, {1, 2});
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), kHeaderBytes - 3);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Event::kNeedMore);
  EXPECT_FALSE(decoder.poisoned());  // A short read is not a protocol error.
}

TEST(WireFrameTest, BadMagicPoisonsWithTypedError) {
  std::vector<uint8_t> bytes = OneFrame(FrameType::kRequest, 5, {1, 2});
  bytes[0] ^= 0xFF;
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(bytes, &frame, &decoder), FrameDecoder::Event::kError);
  EXPECT_EQ(decoder.error().code(), util::StatusCode::kInvalidArgument);
  // Defined state: stays poisoned, later input is discarded.
  EXPECT_TRUE(decoder.poisoned());
  decoder.Feed(bytes.data(), bytes.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Event::kError);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFrameTest, UnknownVersionIsTypedError) {
  std::vector<uint8_t> bytes = OneFrame(FrameType::kRequest, 5, {1, 2});
  bytes[4] = 99;  // version low byte
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(bytes, &frame, &decoder), FrameDecoder::Event::kError);
  EXPECT_EQ(decoder.error().code(), util::StatusCode::kNotImplemented);
}

TEST(WireFrameTest, OversizedLengthRejectedFromHeaderAlone) {
  std::vector<uint8_t> bytes = OneFrame(FrameType::kRequest, 5, {1, 2});
  const uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(&bytes[16], &huge, sizeof(huge));  // payload_len (little-endian host)
  FrameDecoder decoder;
  Frame frame;
  // Only the header is available — the decoder must reject without waiting
  // for (or allocating) 2 GiB of payload.
  decoder.Feed(bytes.data(), kHeaderBytes);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Event::kError);
  EXPECT_EQ(decoder.error().code(), util::StatusCode::kOutOfRange);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFrameTest, CorruptedPayloadFailsChecksum) {
  std::vector<uint8_t> bytes = OneFrame(FrameType::kRequest, 5, {1, 2, 3, 4});
  bytes[kHeaderBytes + 2] ^= 0x01;
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(bytes, &frame, &decoder), FrameDecoder::Event::kError);
  EXPECT_EQ(decoder.error().code(), util::StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, EveryFlippedBitIsCaughtOrHarmless) {
  // Flip each byte of a valid frame in turn: the decoder must never crash,
  // and must never hand back a frame whose content silently changed.
  const std::vector<uint8_t> good = OneFrame(FrameType::kRequest, 77, {5, 6, 7});
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> bytes = good;
    bytes[i] ^= 0x10;
    FrameDecoder decoder;
    Frame frame;
    const FrameDecoder::Event event = DecodeAll(bytes, &frame, &decoder);
    if (event == FrameDecoder::Event::kFrame) {
      // Only reachable for flips the checksum cannot see — there are none,
      // since every header and payload byte is covered.
      ADD_FAILURE() << "undetected corruption at byte " << i;
    }
  }
}

TEST(WireFrameTest, RandomGarbageNeverCrashes) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = static_cast<size_t>(rng.NextU64() % 512);
    std::vector<uint8_t> junk(n);
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextU64());
    FrameDecoder decoder;
    decoder.Feed(junk.data(), junk.size());
    Frame frame;
    // Drain until the decoder settles; must terminate and stay defined.
    for (int step = 0; step < 64; ++step) {
      const FrameDecoder::Event event = decoder.Next(&frame);
      if (event != FrameDecoder::Event::kFrame) break;
    }
    EXPECT_LE(decoder.buffered_bytes(), junk.size());
  }
}

// --------------------------------------------------------------- messages --

TEST(WireCodecTest, RequestRoundTripBothKindsAndBudget) {
  for (service::QueryKind kind : {service::QueryKind::kQ1MeanValue,
                                  service::QueryKind::kQ2Regression}) {
    WireRequest req;
    req.dataset = "sensors";
    req.kind = kind;
    req.q = query::Query({0.25, -1.5, 3.75}, 0.125);
    req.deadline_budget_nanos = 750000000;

    const std::vector<uint8_t> bytes = EncodeRequest(req);
    auto decoded = DecodeRequest(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->dataset, req.dataset);
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->q.center, req.q.center);
    EXPECT_EQ(decoded->q.theta, req.q.theta);
    EXPECT_EQ(decoded->deadline_budget_nanos, req.deadline_budget_nanos);
  }
}

TEST(WireCodecTest, RequestWithoutBudgetDecodesToNoDeadline) {
  const WireRequest req = WireRequest::Q1("r1", query::Query({0.5, 0.5}, 0.1));
  const std::vector<uint8_t> bytes = EncodeRequest(req);
  auto decoded = DecodeRequest(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline_budget_nanos, 0u);
}

TEST(WireCodecTest, AnswerRoundTripIsBitForBit) {
  service::Answer answer;
  answer.kind = service::QueryKind::kQ2Regression;
  answer.source = service::AnswerSource::kExact;
  answer.mean = 0.1 + 0.2;  // A value with untidy low bits.
  answer.cache_delta = 0.987654321;
  answer.used_fallback = true;
  answer.exec.tuples_examined = 123456789;
  answer.exec.tuples_matched = 321;
  answer.exec.nanos = 987654321;
  answer.exec.chunks_completed = 7;
  answer.exec.chunks_total = 9;
  for (int i = 0; i < 3; ++i) {
    core::LocalLinearModel piece;
    piece.intercept = 1.0 / (3.0 + i);
    piece.slope = {0.1 * i, -2.5, 1e-17};
    piece.prototype_id = 40 + i;
    piece.weight = 1.0 / 3.0;
    answer.pieces.push_back(piece);
  }

  const std::vector<uint8_t> bytes = EncodeAnswer(answer);
  auto decoded = DecodeAnswer(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kind, answer.kind);
  EXPECT_EQ(decoded->source, answer.source);
  EXPECT_EQ(std::memcmp(&decoded->mean, &answer.mean, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&decoded->cache_delta, &answer.cache_delta,
                        sizeof(double)),
            0);
  EXPECT_EQ(decoded->used_fallback, answer.used_fallback);
  EXPECT_EQ(decoded->exec.tuples_examined, answer.exec.tuples_examined);
  EXPECT_EQ(decoded->exec.tuples_matched, answer.exec.tuples_matched);
  EXPECT_EQ(decoded->exec.nanos, answer.exec.nanos);
  EXPECT_EQ(decoded->exec.chunks_completed, answer.exec.chunks_completed);
  EXPECT_EQ(decoded->exec.chunks_total, answer.exec.chunks_total);
  ASSERT_EQ(decoded->pieces.size(), answer.pieces.size());
  for (size_t i = 0; i < answer.pieces.size(); ++i) {
    const auto& got = decoded->pieces[i];
    const auto& want = answer.pieces[i];
    EXPECT_EQ(std::memcmp(&got.intercept, &want.intercept, sizeof(double)), 0);
    ASSERT_EQ(got.slope.size(), want.slope.size());
    EXPECT_EQ(std::memcmp(got.slope.data(), want.slope.data(),
                          want.slope.size() * sizeof(double)),
              0);
    EXPECT_EQ(got.prototype_id, want.prototype_id);
    EXPECT_EQ(std::memcmp(&got.weight, &want.weight, sizeof(double)), 0);
  }
}

TEST(WireCodecTest, AnswerRoundTripEverySourceVariant) {
  for (service::AnswerSource source :
       {service::AnswerSource::kModel, service::AnswerSource::kExact,
        service::AnswerSource::kCache}) {
    service::Answer answer;
    answer.source = source;
    answer.mean = 1.5;
    const std::vector<uint8_t> bytes = EncodeAnswer(answer);
    auto decoded = DecodeAnswer(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->source, source);
  }
}

TEST(WireCodecTest, StatusRoundTripEveryCode) {
  for (int code = 1; code <= static_cast<int>(util::StatusCode::kCancelled);
       ++code) {
    const util::Status status(static_cast<util::StatusCode>(code),
                              "message for code " + std::to_string(code));
    const std::vector<uint8_t> bytes = EncodeStatus(status);
    util::Status decoded;
    const util::Status ok = DecodeStatus(bytes.data(), bytes.size(), &decoded);
    ASSERT_TRUE(ok.ok()) << ok;
    EXPECT_EQ(decoded, status);
  }
}

TEST(WireCodecTest, UnknownFieldTagsAreSkipped) {
  // A future peer appends a field this decoder has never heard of; the known
  // fields must still decode (forward compatibility).
  std::vector<uint8_t> bytes =
      EncodeRequest(WireRequest::Q1("r1", query::Query({0.5}, 0.1)));
  const uint8_t unknown_field[] = {0xEE, 0x7F,              // tag 0x7FEE
                                   3,    0,    0,   0,      // len 3
                                   0xDE, 0xAD, 0xBE};
  bytes.insert(bytes.end(), unknown_field, unknown_field + sizeof(unknown_field));
  auto decoded = DecodeRequest(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->dataset, "r1");
  EXPECT_EQ(decoded->q.theta, 0.1);
}

TEST(WireCodecTest, FieldOverrunningPayloadIsTypedError) {
  std::vector<uint8_t> bytes =
      EncodeRequest(WireRequest::Q1("r1", query::Query({0.5}, 0.1)));
  bytes.resize(bytes.size() - 1);  // Truncate the last field's bytes.
  auto decoded = DecodeRequest(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, MissingDatasetIsTypedError) {
  auto decoded = DecodeRequest(nullptr, 0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, UnknownEnumValuesAreTypedErrors) {
  WireRequest req = WireRequest::Q1("r1", query::Query({0.5}, 0.1));
  std::vector<uint8_t> bytes = EncodeRequest(req);
  // Tag 2 (kind) is the second field; corrupt its value to 200. Rather than
  // hunt for the offset, rebuild: tag=2 len=4 value=200.
  std::vector<uint8_t> evil;
  const uint8_t kind_field[] = {2, 0, 4, 0, 0, 0, 200, 0, 0, 0};
  // dataset field first so the decoder accepts the rest.
  const uint8_t dataset_field[] = {1, 0, 2, 0, 0, 0, 'r', '1'};
  evil.insert(evil.end(), dataset_field, dataset_field + sizeof(dataset_field));
  evil.insert(evil.end(), kind_field, kind_field + sizeof(kind_field));
  auto decoded = DecodeRequest(evil.data(), evil.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
  (void)bytes;
}

TEST(WireCodecTest, RandomPayloadFuzzNeverCrashes) {
  util::Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = static_cast<size_t>(rng.NextU64() % 256);
    std::vector<uint8_t> junk(n);
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextU64());
    // All three decoders must return (ok or typed error), never crash/hang.
    (void)DecodeRequest(junk.data(), junk.size());
    (void)DecodeAnswer(junk.data(), junk.size());
    util::Status transported;
    (void)DecodeStatus(junk.data(), junk.size(), &transported);
  }
}

TEST(WireCodecTest, MutatedValidPayloadFuzzNeverCrashes) {
  service::Answer answer;
  answer.mean = 3.25;
  core::LocalLinearModel piece;
  piece.intercept = 1.0;
  piece.slope = {0.5, 0.25};
  answer.pieces.push_back(piece);
  const std::vector<uint8_t> good = EncodeAnswer(answer);

  util::Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes = good;
    const size_t at = static_cast<size_t>(rng.NextU64() % bytes.size());
    bytes[at] = static_cast<uint8_t>(rng.NextU64());
    (void)DecodeAnswer(bytes.data(), bytes.size());  // Must not crash.
  }
}

// ------------------------------------------------------- in-place encoding --

// The executor-side in-place encoders must be byte-for-byte what the
// allocate-then-wrap path produces — the socket tests compare decoded
// answers, this pins the raw frames themselves.

service::Answer FullyPopulatedAnswer() {
  service::Answer answer;
  answer.kind = service::QueryKind::kQ2Regression;
  answer.source = service::AnswerSource::kModel;
  answer.mean = 0.1 + 0.2;
  answer.cache_delta = -0.25;
  answer.used_fallback = true;
  answer.exec.tuples_examined = 123456789;
  answer.exec.tuples_matched = 321;
  answer.exec.nanos = 987654321;
  answer.exec.chunks_completed = 7;
  answer.exec.chunks_total = 9;
  for (int i = 0; i < 3; ++i) {
    core::LocalLinearModel piece;
    piece.intercept = 1.0 / (3.0 + i);
    piece.slope = {0.1 * i, -2.5, 1e-17};
    piece.prototype_id = 40 + i;
    piece.weight = 1.0 / 3.0;
    answer.pieces.push_back(piece);
  }
  return answer;
}

TEST(InplaceEncodeTest, AnswerFrameMatchesEncodeAnswerBitForBit) {
  const service::Answer answer = FullyPopulatedAnswer();

  std::vector<uint8_t> inplace;
  AppendAnswerFrame(&inplace, /*request_id=*/42, answer);

  std::vector<uint8_t> reference;
  AppendFrame(&reference, FrameType::kAnswer, 42, EncodeAnswer(answer));

  EXPECT_EQ(inplace, reference);
}

TEST(InplaceEncodeTest, MinimalAnswerFrameMatchesToo) {
  service::Answer answer;  // Defaults: no pieces, zero stats.
  std::vector<uint8_t> inplace;
  AppendAnswerFrame(&inplace, 1, answer);
  std::vector<uint8_t> reference;
  AppendFrame(&reference, FrameType::kAnswer, 1, EncodeAnswer(answer));
  EXPECT_EQ(inplace, reference);
}

TEST(InplaceEncodeTest, StatusFrameMatchesEncodeStatusBitForBit) {
  const util::Status status =
      util::Status::ResourceExhausted("queue full: shed");
  std::vector<uint8_t> inplace;
  AppendStatusFrame(&inplace, /*request_id=*/7, status);
  std::vector<uint8_t> reference;
  AppendFrame(&reference, FrameType::kError, 7, EncodeStatus(status));
  EXPECT_EQ(inplace, reference);
}

TEST(InplaceEncodeTest, AppendsAfterExistingBytesAndStillDecodes) {
  // A batch buffer carries many frames back-to-back; each in-place frame
  // must leave earlier bytes untouched and decode from mid-buffer.
  const service::Answer answer = FullyPopulatedAnswer();
  std::vector<uint8_t> buf;
  AppendAnswerFrame(&buf, 1, answer);
  AppendStatusFrame(&buf, 2, util::Status::NotFound("no such dataset"));
  AppendAnswerFrame(&buf, 3, answer);

  FrameDecoder decoder;
  decoder.Feed(buf.data(), buf.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Event::kFrame);
  EXPECT_EQ(frame.header.request_id, 1u);
  EXPECT_EQ(frame.header.type, FrameType::kAnswer);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Event::kFrame);
  EXPECT_EQ(frame.header.request_id, 2u);
  EXPECT_EQ(frame.header.type, FrameType::kError);
  util::Status transported;
  ASSERT_TRUE(
      DecodeStatus(frame.payload.data(), frame.payload.size(), &transported)
          .ok());
  EXPECT_EQ(transported.code(), util::StatusCode::kNotFound);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Event::kFrame);
  EXPECT_EQ(frame.header.request_id, 3u);
  auto decoded = DecodeAnswer(frame.payload.data(), frame.payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->pieces.size(), answer.pieces.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Event::kNeedMore);
}

// ------------------------------------------------------------- wire arena --

TEST(WireArenaTest, ReusesReleasedBuffers) {
  WireArena arena;
  std::vector<uint8_t> buf = arena.Acquire();
  EXPECT_EQ(arena.acquired(), 1);
  EXPECT_EQ(arena.reused(), 0);

  buf.assign(512, 0xAB);
  const size_t cap = buf.capacity();
  arena.Release(std::move(buf));
  EXPECT_EQ(arena.pooled(), 1u);

  std::vector<uint8_t> again = arena.Acquire();
  EXPECT_EQ(arena.acquired(), 2);
  EXPECT_EQ(arena.reused(), 1);  // Came from the pool...
  EXPECT_TRUE(again.empty());    // ...cleared...
  EXPECT_GE(again.capacity(), cap);  // ...with its allocation retained.
  EXPECT_EQ(arena.pooled(), 0u);
}

TEST(WireArenaTest, OversizedBuffersAreNotRetained) {
  WireArena::Options opts;
  opts.max_retained_bytes = 1024;
  WireArena arena(opts);

  std::vector<uint8_t> huge = arena.Acquire();
  huge.resize(4096);  // Capacity now exceeds the retention bound.
  arena.Release(std::move(huge));
  EXPECT_EQ(arena.pooled(), 0u);  // Dropped, not pooled.

  std::vector<uint8_t> small = arena.Acquire();
  small.resize(100);
  arena.Release(std::move(small));
  EXPECT_EQ(arena.pooled(), 1u);
}

TEST(WireArenaTest, PoolIsBounded) {
  WireArena::Options opts;
  opts.max_pooled_buffers = 2;
  WireArena arena(opts);
  for (int i = 0; i < 5; ++i) {
    std::vector<uint8_t> buf = arena.Acquire();
    buf.resize(16);
    arena.Release(std::move(buf));
  }
  // Release is called once per loop with an empty pool slot available only
  // twice... but each Acquire drains one, so the pool never exceeds the cap.
  EXPECT_LE(arena.pooled(), 2u);

  // Fill without draining: release three distinct buffers in a row.
  std::vector<uint8_t> a = arena.Acquire();
  std::vector<uint8_t> b = arena.Acquire();
  std::vector<uint8_t> c = arena.Acquire();
  a.resize(8);
  b.resize(8);
  c.resize(8);
  arena.Release(std::move(a));
  arena.Release(std::move(b));
  arena.Release(std::move(c));
  EXPECT_EQ(arena.pooled(), 2u);  // Third one dropped at the cap.
}


// ------------------------------------------- byte-at-a-time reference --
//
// The straightforward encoder: every byte pushed on its own, the layout of
// DESIGN.md §12 written out by hand. The word-wide encoders must produce
// exactly its bytes.

class RefEncoder {
 public:
  void U16(uint16_t v) {
    for (int i = 0; i < 2; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Patch32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) out[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
  static uint64_t DoubleBits(double d) {
    uint64_t v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
  }

  void FieldU32(uint16_t tag, uint32_t v) { U16(tag); U32(4); U32(v); }
  void FieldU64(uint16_t tag, uint64_t v) { U16(tag); U32(8); U64(v); }
  void FieldF64(uint16_t tag, double d) { FieldU64(tag, DoubleBits(d)); }
  void FieldBytes(uint16_t tag, const std::string& s) {
    U16(tag);
    U32(static_cast<uint32_t>(s.size()));
    for (char c : s) out.push_back(static_cast<uint8_t>(c));
  }
  void FieldF64s(uint16_t tag, const std::vector<double>& v) {
    U16(tag);
    U32(static_cast<uint32_t>(v.size() * 8));
    for (double d : v) U64(DoubleBits(d));
  }
  size_t BeginNested(uint16_t tag) { U16(tag); U32(0); return out.size(); }
  void EndNested(size_t mark) {
    Patch32(mark - 4, static_cast<uint32_t>(out.size() - mark));
  }

  size_t BeginFrame(FrameType type, uint64_t id) {
    const size_t at = out.size();
    U32(kMagic);
    U16(kWireVersion);
    U16(static_cast<uint16_t>(type));
    U64(id);
    U32(0);
    U32(0);
    return at;
  }
  void EndFrame(size_t at) {
    const uint32_t len = static_cast<uint32_t>(out.size() - at - kHeaderBytes);
    Patch32(at + 16, len);
    uint32_t h = 2166136261u;  // FNV-1a over header bytes 0..19 + payload.
    for (size_t i = at; i < out.size(); ++i) {
      if (i >= at + 20 && i < at + kHeaderBytes) continue;
      h = (h ^ out[i]) * 16777619u;
    }
    Patch32(at + 20, h);
  }

  void Answer(const service::Answer& a) {
    FieldU32(1, static_cast<uint32_t>(a.kind));
    FieldU32(2, static_cast<uint32_t>(a.source));
    FieldF64(3, a.mean);
    for (const core::LocalLinearModel& p : a.pieces) {
      const size_t mark = BeginNested(4);
      FieldF64(1, p.intercept);
      FieldF64s(2, p.slope);
      FieldU32(3, static_cast<uint32_t>(p.prototype_id));
      FieldF64(4, p.weight);
      EndNested(mark);
    }
    FieldF64(5, a.cache_delta);
    FieldU32(6, a.used_fallback ? 1 : 0);
    const size_t mark = BeginNested(7);
    FieldU64(1, static_cast<uint64_t>(a.exec.tuples_examined));
    FieldU64(2, static_cast<uint64_t>(a.exec.tuples_matched));
    FieldU64(3, static_cast<uint64_t>(a.exec.nanos));
    FieldU64(4, static_cast<uint64_t>(a.exec.chunks_completed));
    FieldU64(5, static_cast<uint64_t>(a.exec.chunks_total));
    EndNested(mark);
  }
  void Request(const WireRequest& r) {
    FieldBytes(1, r.dataset);
    FieldU32(2, static_cast<uint32_t>(r.kind));
    FieldF64s(3, r.q.center);
    FieldF64(4, r.q.theta);
    if (r.deadline_budget_nanos > 0) FieldU64(5, r.deadline_budget_nanos);
  }
  void Status(const util::Status& s) {
    FieldU32(1, static_cast<uint32_t>(s.code()));
    FieldBytes(2, s.message());
  }

  std::vector<uint8_t> out;
};

// Uniform integer in [lo, hi].
int64_t Between(util::Rng* rng, int64_t lo, int64_t hi) {
  return lo +
         static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

// A double that is often one of the awkward ones.
double AwkwardDouble(util::Rng* rng) {
  switch (Between(rng, 0, 7)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4: return std::numeric_limits<double>::denorm_min();
    default: return rng->Uniform(-1e6, 1e6);
  }
}

int64_t AwkwardCount(util::Rng* rng) {
  switch (Between(rng, 0, 3)) {
    case 0: return -1;  // All 64 bits set on the wire.
    case 1: return std::numeric_limits<int64_t>::max();
    default: return Between(rng, 0, 1 << 30);
  }
}

std::string RandomText(util::Rng* rng, int max_len) {
  std::string s(static_cast<size_t>(Between(rng, 0, max_len)), '\0');
  for (char& c : s) c = static_cast<char>(Between(rng, 0, 255));
  return s;
}

TEST(WordEncodeTest, AnswerFramesMatchTheByteAtATimeReference) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    service::Answer a;
    a.kind = Between(&rng, 0, 1) == 0 ? service::QueryKind::kQ1MeanValue
                                       : service::QueryKind::kQ2Regression;
    a.source = static_cast<service::AnswerSource>(Between(&rng, 0, 2));
    a.mean = AwkwardDouble(&rng);
    const int pieces = static_cast<int>(Between(&rng, 0, 40));
    const int d = static_cast<int>(Between(&rng, 1, 16));
    for (int i = 0; i < pieces; ++i) {
      core::LocalLinearModel m;
      m.intercept = AwkwardDouble(&rng);
      for (int j = 0; j < d; ++j) m.slope.push_back(AwkwardDouble(&rng));
      m.prototype_id = static_cast<int32_t>(Between(&rng, -1, 1 << 20));
      m.weight = AwkwardDouble(&rng);
      a.pieces.push_back(std::move(m));
    }
    a.cache_delta = AwkwardDouble(&rng);
    a.used_fallback = Between(&rng, 0, 1) == 1;
    a.exec.tuples_examined = AwkwardCount(&rng);
    a.exec.tuples_matched = AwkwardCount(&rng);
    a.exec.nanos = AwkwardCount(&rng);
    a.exec.chunks_completed = AwkwardCount(&rng);
    a.exec.chunks_total = AwkwardCount(&rng);
    const uint64_t id = trial % 3 == 0 ? std::numeric_limits<uint64_t>::max()
                                       : static_cast<uint64_t>(trial);

    // Onto a buffer that already holds bytes, as a batch buffer does.
    RefEncoder ref;
    ref.out = {0xAB, 0xCD};
    ref.EndFrame(ref.BeginFrame(FrameType::kAnswer, id));
    const size_t frame = ref.BeginFrame(FrameType::kAnswer, id);
    ref.Answer(a);
    ref.EndFrame(frame);

    std::vector<uint8_t> got = {0xAB, 0xCD};
    AppendFrame(&got, FrameType::kAnswer, id, nullptr, 0);
    AppendAnswerFrame(&got, id, a);
    ASSERT_EQ(got, ref.out) << "trial " << trial;

    RefEncoder payload;
    payload.Answer(a);
    ASSERT_EQ(EncodeAnswer(a), payload.out) << "trial " << trial;
  }
}

TEST(WordEncodeTest, RequestAndStatusEncodingsMatchTheReference) {
  util::Rng rng(2025);
  for (int trial = 0; trial < 300; ++trial) {
    WireRequest r;
    r.dataset = RandomText(&rng, 40);
    r.kind = Between(&rng, 0, 1) == 0 ? service::QueryKind::kQ1MeanValue
                                       : service::QueryKind::kQ2Regression;
    const int d = static_cast<int>(Between(&rng, 0, 16));
    for (int j = 0; j < d; ++j) r.q.center.push_back(AwkwardDouble(&rng));
    r.q.theta = AwkwardDouble(&rng);
    switch (Between(&rng, 0, 2)) {
      case 0: r.deadline_budget_nanos = 0; break;
      case 1:
        r.deadline_budget_nanos = std::numeric_limits<uint64_t>::max();
        break;
      default:
        r.deadline_budget_nanos = static_cast<uint64_t>(Between(&rng, 1, 1 << 30));
    }
    const uint64_t id = static_cast<uint64_t>(trial) + 1;

    RefEncoder ref;
    size_t frame = ref.BeginFrame(FrameType::kRequest, id);
    ref.Request(r);
    ref.EndFrame(frame);
    std::vector<uint8_t> got;
    AppendRequestFrame(&got, id, r);
    ASSERT_EQ(got, ref.out) << "trial " << trial;
    RefEncoder payload;
    payload.Request(r);
    ASSERT_EQ(EncodeRequest(r), payload.out) << "trial " << trial;

    const util::Status status(
        static_cast<util::StatusCode>(Between(
            &rng, 1, static_cast<int64_t>(util::StatusCode::kUnavailable))),
        RandomText(&rng, 200));
    RefEncoder ref_status;
    frame = ref_status.BeginFrame(FrameType::kError, id);
    ref_status.Status(status);
    ref_status.EndFrame(frame);
    got.clear();
    AppendStatusFrame(&got, id, status);
    ASSERT_EQ(got, ref_status.out) << "trial " << trial;
    RefEncoder status_payload;
    status_payload.Status(status);
    ASSERT_EQ(EncodeStatus(status), status_payload.out) << "trial " << trial;
  }
}

}  // namespace
}  // namespace net
}  // namespace qreg
