// Golden wire-corpus regression test (DESIGN.md §12). tests/corpus/wire/
// holds one binary file per valid message kind and one per malformed class;
// this test pins (a) the encoders — each valid file must be bit-for-bit what
// today's encoder produces for its canonical message — and (b) the decoder —
// every file, fed whole *and* byte-at-a-time, must yield the same pinned
// outcome (frame / kNeedMore / typed poison). An unintentional wire format
// change fails (a); a decoder behavior change fails (b).
//
// Regenerate after an *intentional* format change:
//   ./net_corpus_test --regen
// which rewrites every corpus file from the current encoders and then runs
// the battery against the fresh files (so a bad regen still fails loudly).

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "net/wire.h"
#include "util/status.h"

namespace qreg {
namespace net {
namespace {

// Set by main() from --regen.
bool g_regen = false;

#ifndef QREG_CORPUS_DIR
#error "QREG_CORPUS_DIR must point at tests/corpus/wire"
#endif

std::string CorpusPath(const std::string& name) {
  return std::string(QREG_CORPUS_DIR) + "/" + name;
}

// ------------------------------------------------------- canonical messages --

WireRequest CanonicalQ1() {
  return WireRequest::Q1("r1", query::Query({0.4, 0.6}, 0.12));
}

WireRequest CanonicalQ2WithDeadline() {
  WireRequest wire = WireRequest::Q2("r1", query::Query({0.25, 0.75}, 0.2));
  wire.deadline_budget_nanos = 500'000'000;  // 500ms budget.
  return wire;
}

service::Answer CanonicalFullAnswer() {
  service::Answer answer;
  answer.kind = service::QueryKind::kQ2Regression;
  answer.source = service::AnswerSource::kModel;
  answer.mean = 3.25;
  core::LocalLinearModel p0;
  p0.intercept = 1.5;
  p0.slope = {0.25, -0.125};
  p0.prototype_id = 7;
  p0.weight = 0.75;
  core::LocalLinearModel p1;
  p1.intercept = -2.0;
  p1.slope = {0.0625, 8.0};
  p1.prototype_id = 11;
  p1.weight = 0.25;
  answer.pieces = {p0, p1};
  answer.cache_delta = 0.015625;
  answer.used_fallback = true;
  answer.exec.tuples_examined = 4096;
  answer.exec.tuples_matched = 512;
  answer.exec.nanos = 12345;  // Fixed: corpus answers are frozen, not timed.
  answer.exec.chunks_completed = 7;
  answer.exec.chunks_total = 8;
  return answer;
}

// A model Q2 answer at d = 2 with 17 pieces, the size perfbench's Q2 model
// answers have: its frame check runs the main loop for ~160 steps.
service::Answer CanonicalQ2Answer17() {
  service::Answer answer;
  answer.kind = service::QueryKind::kQ2Regression;
  answer.source = service::AnswerSource::kModel;
  answer.mean = 0.4375;
  for (int i = 0; i < 17; ++i) {
    core::LocalLinearModel piece;
    piece.intercept = 0.5 + 0.0625 * i;
    piece.slope = std::vector<double>{0.25 * i, -0.125 * (17 - i)};
    piece.prototype_id = 3 * i + 1;
    piece.weight = 1.0 / 16;
    answer.pieces.push_back(std::move(piece));
  }
  answer.exec.nanos = 1500;
  return answer;
}

util::Status CanonicalErrorStatus() {
  return util::Status::ResourceExhausted("router saturated: queue full");
}

// ------------------------------------------------------------ corpus table --

/// What the decoder must do with a corpus file.
enum class Outcome {
  kFrame,        ///< One complete frame, then kNeedMore on an empty buffer.
  kNeedMore,     ///< Truncated input: no frame, no poison, bytes stay buffered.
  kPoisonArg,    ///< Poisoned with kInvalidArgument (garbage / corruption).
  kPoisonVer,    ///< Poisoned with kNotImplemented (version mismatch).
  kPoisonRange,  ///< Poisoned with kOutOfRange (hostile payload_len).
};

struct CorpusEntry {
  const char* file;
  Outcome outcome;
  std::vector<uint8_t> (*build)();
};

std::vector<uint8_t> BuildRequestQ1() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kRequest, 1, EncodeRequest(CanonicalQ1()));
  return out;
}

std::vector<uint8_t> BuildRequestQ2Deadline() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kRequest, 2,
              EncodeRequest(CanonicalQ2WithDeadline()));
  return out;
}

std::vector<uint8_t> BuildAnswerFull() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kAnswer, 3, EncodeAnswer(CanonicalFullAnswer()));
  return out;
}

std::vector<uint8_t> BuildAnswerMinimal() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kAnswer, 4, EncodeAnswer(service::Answer()));
  return out;
}

std::vector<uint8_t> BuildAnswerQ2With17Pieces() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kAnswer, 16, EncodeAnswer(CanonicalQ2Answer17()));
  return out;
}

std::vector<uint8_t> BuildErrorStatus() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kError, 5, EncodeStatus(CanonicalErrorStatus()));
  return out;
}

std::vector<uint8_t> BuildPing() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kPing, 6, nullptr, 0);
  return out;
}

std::vector<uint8_t> BuildPong() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kPong, 7, nullptr, 0);
  return out;
}

// --- malformed classes, each derived deterministically from a valid frame ---

std::vector<uint8_t> BuildTruncatedHeader() {
  std::vector<uint8_t> out = BuildRequestQ1();
  out.resize(10);  // Mid-header (valid magic + version prefix).
  return out;
}

std::vector<uint8_t> BuildTruncatedPayload() {
  std::vector<uint8_t> out = BuildRequestQ1();
  out.resize(kHeaderBytes + (out.size() - kHeaderBytes) / 2);
  return out;
}

std::vector<uint8_t> BuildBadMagic() {
  std::vector<uint8_t> out = BuildRequestQ1();
  out[0] ^= 0xFF;
  return out;
}

std::vector<uint8_t> BuildBadVersion() {
  std::vector<uint8_t> out = BuildRequestQ1();
  out[4] = 1;  // The retired version 1 (FNV-1a check); rejected pre-checksum.
  return out;
}

std::vector<uint8_t> BuildOversizedPayload() {
  std::vector<uint8_t> out = BuildRequestQ1();
  const uint32_t hostile = kMaxPayloadBytes + 1;
  // payload_len lives at header bytes 16..19 (little-endian). The header
  // alone must trigger rejection — before checksumming, before buffering.
  for (int i = 0; i < 4; ++i) {
    out[16 + i] = static_cast<uint8_t>(hostile >> (8 * i));
  }
  return out;
}

std::vector<uint8_t> BuildChecksumFlip() {
  std::vector<uint8_t> out = BuildRequestQ1();
  out.back() ^= 0x01;  // One payload bit: the frame check must catch it.
  return out;
}

std::vector<uint8_t> BuildBadFieldOverrun() {
  // Frame-layer valid (checksum intact); the *payload*'s first field header
  // claims 100 bytes with only 4 present. The frame decodes; DecodeRequest
  // must reject it as typed kInvalidArgument.
  std::vector<uint8_t> payload = {0x01, 0x00,               // tag 1
                                  0x64, 0x00, 0x00, 0x00,   // len 100
                                  0xDE, 0xAD, 0xBE, 0xEF};  // ...4 bytes
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kRequest, 14, payload);
  return out;
}

std::vector<uint8_t> BuildUnknownKind() {
  // Type 9 does not exist. The frame layer is forward-compatible by design —
  // the frame decodes — and rejection happens at dispatch (the server
  // answers a protocol error and closes; net_socket_test pins that).
  std::vector<uint8_t> out;
  AppendFrame(&out, static_cast<FrameType>(9), 15, nullptr, 0);
  return out;
}

const CorpusEntry kCorpus[] = {
    {"request_q1.bin", Outcome::kFrame, BuildRequestQ1},
    {"request_q2_deadline.bin", Outcome::kFrame, BuildRequestQ2Deadline},
    {"answer_full.bin", Outcome::kFrame, BuildAnswerFull},
    {"answer_minimal.bin", Outcome::kFrame, BuildAnswerMinimal},
    {"answer_q2_17.bin", Outcome::kFrame, BuildAnswerQ2With17Pieces},
    {"error_status.bin", Outcome::kFrame, BuildErrorStatus},
    {"ping.bin", Outcome::kFrame, BuildPing},
    {"pong.bin", Outcome::kFrame, BuildPong},
    {"truncated_header.bin", Outcome::kNeedMore, BuildTruncatedHeader},
    {"truncated_payload.bin", Outcome::kNeedMore, BuildTruncatedPayload},
    {"bad_magic.bin", Outcome::kPoisonArg, BuildBadMagic},
    {"bad_version.bin", Outcome::kPoisonVer, BuildBadVersion},
    {"oversized_payload.bin", Outcome::kPoisonRange, BuildOversizedPayload},
    {"checksum_flip.bin", Outcome::kPoisonArg, BuildChecksumFlip},
    {"bad_field_overrun.bin", Outcome::kFrame, BuildBadFieldOverrun},
    {"unknown_kind.bin", Outcome::kFrame, BuildUnknownKind},
};

// ---------------------------------------------------------------- file I/O --

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  return out.good();
}

std::vector<uint8_t> MustLoad(const char* file) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(CorpusPath(file), &bytes))
      << "missing corpus file " << CorpusPath(file)
      << " — run ./net_corpus_test --regen";
  return bytes;
}

// Runs the decoder over `bytes` delivered in `chunk`-byte slices and reports
// the terminal observation.
struct DecodeRun {
  FrameDecoder::Event last = FrameDecoder::Event::kNeedMore;
  std::vector<Frame> frames;
  util::Status error;
  size_t buffered = 0;
};

DecodeRun RunDecoder(const std::vector<uint8_t>& bytes, size_t chunk) {
  FrameDecoder decoder;
  DecodeRun run;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    decoder.Feed(bytes.data() + off, std::min(chunk, bytes.size() - off));
    Frame frame;
    for (;;) {
      run.last = decoder.Next(&frame);
      if (run.last != FrameDecoder::Event::kFrame) break;
      run.frames.push_back(std::move(frame));
      frame = Frame();
    }
    if (run.last == FrameDecoder::Event::kError) break;
  }
  if (bytes.empty()) run.last = decoder.Next(nullptr);
  run.error = decoder.error();
  run.buffered = decoder.buffered_bytes();
  return run;
}

void ExpectOutcome(const CorpusEntry& entry, const std::vector<uint8_t>& bytes,
                   size_t chunk) {
  SCOPED_TRACE(std::string(entry.file) + " chunk=" + std::to_string(chunk));
  const DecodeRun run = RunDecoder(bytes, chunk);
  switch (entry.outcome) {
    case Outcome::kFrame:
      EXPECT_EQ(run.last, FrameDecoder::Event::kNeedMore);
      ASSERT_EQ(run.frames.size(), 1u);
      EXPECT_TRUE(run.error.ok());
      EXPECT_EQ(run.buffered, 0u);  // A whole frame consumes its bytes.
      break;
    case Outcome::kNeedMore:
      EXPECT_EQ(run.last, FrameDecoder::Event::kNeedMore);
      EXPECT_EQ(run.frames.size(), 0u);
      EXPECT_TRUE(run.error.ok());
      EXPECT_EQ(run.buffered, bytes.size());  // Held for resumption.
      break;
    case Outcome::kPoisonArg:
      EXPECT_EQ(run.last, FrameDecoder::Event::kError);
      EXPECT_EQ(run.error.code(), util::StatusCode::kInvalidArgument);
      break;
    case Outcome::kPoisonVer:
      EXPECT_EQ(run.last, FrameDecoder::Event::kError);
      EXPECT_EQ(run.error.code(), util::StatusCode::kNotImplemented);
      break;
    case Outcome::kPoisonRange:
      EXPECT_EQ(run.last, FrameDecoder::Event::kError);
      EXPECT_EQ(run.error.code(), util::StatusCode::kOutOfRange);
      break;
  }
}

// ------------------------------------------------------------------- tests --

TEST(NetCorpusTest, GoldenFilesMatchCurrentEncoders) {
  // Bit-for-bit: an encoder change (field order, tags, varint width,
  // checksum) shows up as a byte diff against the committed corpus.
  for (const CorpusEntry& entry : kCorpus) {
    SCOPED_TRACE(entry.file);
    const std::vector<uint8_t> want = entry.build();
    std::vector<uint8_t> got;
    ASSERT_TRUE(ReadFileBytes(CorpusPath(entry.file), &got))
        << "missing corpus file " << CorpusPath(entry.file)
        << " — run ./net_corpus_test --regen";
    EXPECT_EQ(got, want) << "wire bytes drifted from the committed golden — "
                            "if the format change is intentional, rerun with "
                            "--regen and commit the diff";
  }
}

TEST(NetCorpusTest, DecoderOutcomesArePinnedWholeAndByteAtATime) {
  for (const CorpusEntry& entry : kCorpus) {
    const std::vector<uint8_t> bytes = MustLoad(entry.file);
    if (bytes.empty()) continue;  // MustLoad already failed the test.
    ExpectOutcome(entry, bytes, bytes.size());  // One shot.
    ExpectOutcome(entry, bytes, 1);             // Byte at a time.
    ExpectOutcome(entry, bytes, 7);             // Awkward stride.
  }
}

TEST(NetCorpusTest, ValidPayloadsRoundTrip) {
  {
    const std::vector<uint8_t> bytes = MustLoad("request_q1.bin");
    const DecodeRun run = RunDecoder(bytes, bytes.size());
    ASSERT_EQ(run.frames.size(), 1u);
    EXPECT_EQ(run.frames[0].header.type, FrameType::kRequest);
    EXPECT_EQ(run.frames[0].header.request_id, 1u);
    const util::Result<WireRequest> req = DecodeRequest(
        run.frames[0].payload.data(), run.frames[0].payload.size());
    ASSERT_TRUE(req.ok()) << req.status();
    EXPECT_EQ(req->dataset, "r1");
    EXPECT_EQ(req->kind, service::QueryKind::kQ1MeanValue);
    EXPECT_EQ(EncodeRequest(*req), run.frames[0].payload);  // Re-encode pins.
  }
  {
    const std::vector<uint8_t> bytes = MustLoad("request_q2_deadline.bin");
    const DecodeRun run = RunDecoder(bytes, bytes.size());
    ASSERT_EQ(run.frames.size(), 1u);
    const util::Result<WireRequest> req = DecodeRequest(
        run.frames[0].payload.data(), run.frames[0].payload.size());
    ASSERT_TRUE(req.ok()) << req.status();
    EXPECT_EQ(req->kind, service::QueryKind::kQ2Regression);
    EXPECT_EQ(req->deadline_budget_nanos, 500'000'000u);
    EXPECT_EQ(EncodeRequest(*req), run.frames[0].payload);
  }
  {
    const std::vector<uint8_t> bytes = MustLoad("answer_full.bin");
    const DecodeRun run = RunDecoder(bytes, bytes.size());
    ASSERT_EQ(run.frames.size(), 1u);
    const util::Result<service::Answer> ans = DecodeAnswer(
        run.frames[0].payload.data(), run.frames[0].payload.size());
    ASSERT_TRUE(ans.ok()) << ans.status();
    EXPECT_EQ(ans->pieces.size(), 2u);
    EXPECT_TRUE(ans->used_fallback);
    EXPECT_EQ(ans->exec.tuples_matched, 512);
    EXPECT_EQ(EncodeAnswer(*ans), run.frames[0].payload);
  }
  {
    const std::vector<uint8_t> bytes = MustLoad("answer_q2_17.bin");
    const DecodeRun run = RunDecoder(bytes, bytes.size());
    ASSERT_EQ(run.frames.size(), 1u);
    const util::Result<service::Answer> ans = DecodeAnswer(
        run.frames[0].payload.data(), run.frames[0].payload.size());
    ASSERT_TRUE(ans.ok()) << ans.status();
    EXPECT_EQ(ans->pieces.size(), 17u);
    EXPECT_EQ(ans->pieces[16].prototype_id, 49);
    EXPECT_EQ(EncodeAnswer(*ans), run.frames[0].payload);
  }
  {
    const std::vector<uint8_t> bytes = MustLoad("error_status.bin");
    const DecodeRun run = RunDecoder(bytes, bytes.size());
    ASSERT_EQ(run.frames.size(), 1u);
    util::Status transported;
    ASSERT_TRUE(DecodeStatus(run.frames[0].payload.data(),
                             run.frames[0].payload.size(), &transported)
                    .ok());
    EXPECT_EQ(transported.code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(transported.message(), CanonicalErrorStatus().message());
  }
}

TEST(NetCorpusTest, MalformedPayloadInsideValidFrameIsTypedAtDecodeRequest) {
  const std::vector<uint8_t> bytes = MustLoad("bad_field_overrun.bin");
  const DecodeRun run = RunDecoder(bytes, bytes.size());
  ASSERT_EQ(run.frames.size(), 1u);  // Frame layer: intact.
  const util::Result<WireRequest> req = DecodeRequest(
      run.frames[0].payload.data(), run.frames[0].payload.size());
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(NetCorpusTest, UnknownFrameKindPassesFrameLayer) {
  const std::vector<uint8_t> bytes = MustLoad("unknown_kind.bin");
  const DecodeRun run = RunDecoder(bytes, bytes.size());
  ASSERT_EQ(run.frames.size(), 1u);
  EXPECT_EQ(static_cast<uint16_t>(run.frames[0].header.type), 9u);
  EXPECT_EQ(run.frames[0].payload.size(), 0u);
}

TEST(NetCorpusTest, RegenRewritesEveryFile) {
  if (!g_regen) GTEST_SKIP() << "pass --regen to rewrite the corpus";
  for (const CorpusEntry& entry : kCorpus) {
    ASSERT_TRUE(WriteFileBytes(CorpusPath(entry.file), entry.build()))
        << "cannot write " << CorpusPath(entry.file);
  }
}

}  // namespace
}  // namespace net
}  // namespace qreg

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regen") == 0) {
      qreg::net::g_regen = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  if (qreg::net::g_regen) {
    // Regenerate first, then run the full battery against the fresh files:
    // a regen that produces a self-inconsistent corpus still fails.
    for (const qreg::net::CorpusEntry& entry : qreg::net::kCorpus) {
      if (!qreg::net::WriteFileBytes(qreg::net::CorpusPath(entry.file),
                                     entry.build())) {
        fprintf(stderr, "cannot write %s\n",
                qreg::net::CorpusPath(entry.file).c_str());
        return 1;
      }
    }
    printf("regenerated %zu corpus files under %s\n",
           sizeof(qreg::net::kCorpus) / sizeof(qreg::net::kCorpus[0]),
           QREG_CORPUS_DIR);
  }
  return RUN_ALL_TESTS();
}
