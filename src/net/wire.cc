#include "net/wire.h"

#include <cstring>

#include "util/string_util.h"

namespace qreg {
namespace net {
namespace {

// ------------------------------------------------- little-endian primitives --
//
// The wire is little-endian, like every host this builds for, so a field is
// stored and loaded as one host word instead of byte by byte.

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "net/wire.cc stores host words as little-endian wire fields"
#endif

template <typename T>
void StoreLE(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}

template <typename T>
T LoadLE(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint16_t GetU16(const uint8_t* p) { return LoadLE<uint16_t>(p); }
uint32_t GetU32(const uint8_t* p) { return LoadLE<uint32_t>(p); }
uint64_t GetU64(const uint8_t* p) { return LoadLE<uint64_t>(p); }

uint64_t DoubleBits(double d) {
  uint64_t v;
  static_assert(sizeof(v) == sizeof(d), "IEEE-754 double expected");
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

double BitsToDouble(uint64_t v) {
  double d;
  std::memcpy(&d, &v, sizeof(d));
  return d;
}

util::Status ProtocolError(std::string msg) {
  return util::Status::InvalidArgument("wire protocol: " + std::move(msg));
}

// ------------------------------------------------------------ tagged fields --
//
// A payload is a flat sequence of [u16 tag][u32 len][len bytes] fields;
// nested messages are a field whose bytes are themselves such a sequence.
// Decoders skip unknown tags (forward compatibility) and treat any length
// that overruns the buffer as a typed protocol error.

constexpr size_t kFieldHeaderBytes = 6;

/// Writes tagged fields into a payload sized in advance. Every encode runs
/// the same field sequence twice: first through a counting writer (null
/// base) to learn the payload size, then through a writer over the grown
/// buffer, so the buffer grows once per message and each field is a few
/// word stores. Nested messages backpatch their length. The one writer
/// every message uses.
class FieldWriter {
 public:
  /// Writes at `base`; a null `base` only counts bytes.
  explicit FieldWriter(uint8_t* base) : base_(base) {}

  size_t size() const { return pos_; }

  void PutBytes(uint16_t tag, const uint8_t* data, size_t n) {
    uint8_t* p = Field(tag, n);
    if (p != nullptr && n > 0) std::memcpy(p, data, n);
  }
  void PutString(uint16_t tag, const std::string& s) {
    PutBytes(tag, reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void PutVarU64(uint16_t tag, uint64_t v) {
    if (uint8_t* p = Field(tag, 8)) StoreLE(p, v);
  }
  void PutVarU32(uint16_t tag, uint32_t v) {
    if (uint8_t* p = Field(tag, 4)) StoreLE(p, v);
  }
  void PutF64(uint16_t tag, double d) { PutVarU64(tag, DoubleBits(d)); }
  void PutF64Array(uint16_t tag, const std::vector<double>& v) {
    // A little-endian double array is its own wire encoding.
    PutBytes(tag, reinterpret_cast<const uint8_t*>(v.data()), v.size() * 8);
  }

  /// Opens a nested-message field; returns the mark EndNested() patches.
  size_t BeginNested(uint16_t tag) {
    Field(tag, 0);  // Length — backpatched by EndNested.
    return pos_;
  }
  void EndNested(size_t mark) {
    if (base_ != nullptr) {
      StoreLE(base_ + mark - 4, static_cast<uint32_t>(pos_ - mark));
    }
  }

 private:
  /// Claims a field of `n` payload bytes and writes its header; returns
  /// where the payload goes (null while counting).
  uint8_t* Field(uint16_t tag, size_t n) {
    const size_t at = pos_;
    pos_ += kFieldHeaderBytes + n;
    if (base_ == nullptr) return nullptr;
    StoreLE(base_ + at, tag);
    StoreLE(base_ + at + 2, static_cast<uint32_t>(n));
    return base_ + at + kFieldHeaderBytes;
  }

  uint8_t* base_;
  size_t pos_ = 0;
};

/// Runs `write_fields` (a callable taking FieldWriter*) twice: to size the
/// payload, then to fill the `n` bytes `reserve(n)` returns.
template <typename WriteFields, typename Reserve>
void WritePayload(const WriteFields& write_fields, const Reserve& reserve) {
  FieldWriter counter(nullptr);
  write_fields(&counter);
  FieldWriter writer(reserve(counter.size()));
  write_fields(&writer);
}

/// A standalone payload holding the fields `write_fields` writes.
template <typename WriteFields>
std::vector<uint8_t> EncodePayload(const WriteFields& write_fields) {
  std::vector<uint8_t> out;
  WritePayload(write_fields, [&](size_t n) {
    out.resize(n);
    return out.data();
  });
  return out;
}

/// Iterates the fields of one payload. Usage:
///   while (r.Next()) switch (r.tag()) { ... }
///   QREG_RETURN_NOT_OK(r.status());
class FieldReader {
 public:
  FieldReader(const uint8_t* data, size_t n) : data_(data), end_(n) {}

  bool Next() {
    if (!status_.ok() || pos_ == end_) return false;
    if (end_ - pos_ < kFieldHeaderBytes) {
      status_ = ProtocolError("truncated field header");
      return false;
    }
    tag_ = GetU16(data_ + pos_);
    const uint32_t len = GetU32(data_ + pos_ + 2);
    pos_ += kFieldHeaderBytes;
    if (end_ - pos_ < len) {
      status_ = ProtocolError(
          util::Format("field %u overruns payload (len %u, %zu left)", tag_,
                       len, end_ - pos_));
      return false;
    }
    field_ = data_ + pos_;
    field_len_ = len;
    pos_ += len;
    return true;
  }

  uint16_t tag() const { return tag_; }
  const uint8_t* data() const { return field_; }
  size_t size() const { return field_len_; }
  const util::Status& status() const { return status_; }

  util::Result<uint64_t> AsU64() {
    if (field_len_ != 8) return Fail("expected 8-byte field");
    return GetU64(field_);
  }
  util::Result<uint32_t> AsU32() {
    if (field_len_ != 4) return Fail("expected 4-byte field");
    return GetU32(field_);
  }
  util::Result<double> AsF64() {
    QREG_ASSIGN_OR_RETURN(uint64_t bits, AsU64());
    return BitsToDouble(bits);
  }
  util::Result<std::string> AsString() {
    return std::string(reinterpret_cast<const char*>(field_), field_len_);
  }
  util::Result<std::vector<double>> AsF64Array() {
    if (field_len_ % 8 != 0) return Fail("f64 array length not a multiple of 8");
    std::vector<double> v(field_len_ / 8);
    if (!v.empty()) std::memcpy(v.data(), field_, field_len_);
    return v;
  }

 private:
  util::Status Fail(const char* what) {
    status_ = ProtocolError(
        util::Format("field %u: %s (got %zu bytes)", tag_, what, field_len_));
    return status_;
  }

  const uint8_t* data_;
  size_t end_;
  size_t pos_ = 0;
  uint16_t tag_ = 0;
  const uint8_t* field_ = nullptr;
  size_t field_len_ = 0;
  util::Status status_;
};

// Field tags. New fields must take fresh tags; retiring a field retires its
// tag forever (an older decoder skips what it does not know).
enum RequestTag : uint16_t {
  kReqDataset = 1,
  kReqKind = 2,
  kReqCenter = 3,
  kReqTheta = 4,
  kReqDeadlineBudget = 5,
};
enum AnswerTag : uint16_t {
  kAnsKind = 1,
  kAnsSource = 2,
  kAnsMean = 3,
  kAnsPiece = 4,  // Repeated; one nested message per local linear model.
  kAnsCacheDelta = 5,
  kAnsUsedFallback = 6,
  kAnsExec = 7,
};
enum PieceTag : uint16_t {
  kPieceIntercept = 1,
  kPieceSlope = 2,
  kPiecePrototypeId = 3,
  kPieceWeight = 4,
};
enum ExecTag : uint16_t {
  kExecTuplesExamined = 1,
  kExecTuplesMatched = 2,
  kExecNanos = 3,
  kExecChunksCompleted = 4,
  kExecChunksTotal = 5,
};
enum StatusTag : uint16_t {
  kStatusCode = 1,
  kStatusMessage = 2,
};

// The answer, request and status field orders, written once: the standalone
// payload encoders and the in-place frame encoders both go through these,
// so the two paths are bit-for-bit identical by construction.
void WriteAnswerFields(const service::Answer& answer, FieldWriter* w) {
  w->PutVarU32(kAnsKind, static_cast<uint32_t>(answer.kind));
  w->PutVarU32(kAnsSource, static_cast<uint32_t>(answer.source));
  w->PutF64(kAnsMean, answer.mean);
  for (const core::LocalLinearModel& piece : answer.pieces) {
    const size_t nested = w->BeginNested(kAnsPiece);
    w->PutF64(kPieceIntercept, piece.intercept);
    w->PutF64Array(kPieceSlope, piece.slope);
    w->PutVarU32(kPiecePrototypeId, static_cast<uint32_t>(piece.prototype_id));
    w->PutF64(kPieceWeight, piece.weight);
    w->EndNested(nested);
  }
  w->PutF64(kAnsCacheDelta, answer.cache_delta);
  w->PutVarU32(kAnsUsedFallback, answer.used_fallback ? 1 : 0);
  const size_t exec = w->BeginNested(kAnsExec);
  w->PutVarU64(kExecTuplesExamined,
               static_cast<uint64_t>(answer.exec.tuples_examined));
  w->PutVarU64(kExecTuplesMatched,
               static_cast<uint64_t>(answer.exec.tuples_matched));
  w->PutVarU64(kExecNanos, static_cast<uint64_t>(answer.exec.nanos));
  w->PutVarU64(kExecChunksCompleted,
               static_cast<uint64_t>(answer.exec.chunks_completed));
  w->PutVarU64(kExecChunksTotal,
               static_cast<uint64_t>(answer.exec.chunks_total));
  w->EndNested(exec);
}

void WriteRequestFields(const WireRequest& request, FieldWriter* w) {
  w->PutString(kReqDataset, request.dataset);
  w->PutVarU32(kReqKind, static_cast<uint32_t>(request.kind));
  w->PutF64Array(kReqCenter, request.q.center);
  w->PutF64(kReqTheta, request.q.theta);
  if (request.deadline_budget_nanos > 0) {
    w->PutVarU64(kReqDeadlineBudget, request.deadline_budget_nanos);
  }
}

void WriteStatusFields(const util::Status& status, FieldWriter* w) {
  w->PutVarU32(kStatusCode, static_cast<uint32_t>(status.code()));
  w->PutString(kStatusMessage, status.message());
}

constexpr uint32_t kCheckPrime = 16777619u;  // The FNV-1a 32-bit prime.

/// One step of a frame-check lane: a bijection of `h` for every word `w`.
inline uint32_t CheckStep(uint32_t h, uint32_t w) {
  return (h ^ w) * kCheckPrime;
}

}  // namespace

// ------------------------------------------------------------------ frames --

uint32_t FrameChecksum(const uint8_t* header20, const uint8_t* payload,
                       size_t payload_len) {
  // Word k of the stream (the 20 header bytes, then the payload) feeds lane
  // k mod 2. The header is five words, so payload word j lands in lane
  // (5 + j) mod 2: the low half of each 8-byte payload step goes to lane 1,
  // the high half to lane 0.
  uint32_t h0 = 2166136261u;  // FNV-1a offset basis.
  uint32_t h1 = 0x9E3779B9u;  // 2^32 / golden ratio.
  h0 = CheckStep(h0, GetU32(header20));
  h1 = CheckStep(h1, GetU32(header20 + 4));
  h0 = CheckStep(h0, GetU32(header20 + 8));
  h1 = CheckStep(h1, GetU32(header20 + 12));
  h0 = CheckStep(h0, GetU32(header20 + 16));
  size_t i = 0;
  for (; i + 8 <= payload_len; i += 8) {
    const uint64_t w = GetU64(payload + i);
    h1 = CheckStep(h1, static_cast<uint32_t>(w));
    h0 = CheckStep(h0, static_cast<uint32_t>(w >> 32));
  }
  // Up to seven bytes remain: at most one whole word (lane 1), then a
  // zero-padded partial word in the lane that comes next. Nothing past
  // payload_len is read.
  uint32_t* next_lane = &h1;
  if (payload_len - i >= 4) {
    h1 = CheckStep(h1, GetU32(payload + i));
    i += 4;
    next_lane = &h0;
  }
  if (i < payload_len) {
    uint32_t tail = 0;
    std::memcpy(&tail, payload + i, payload_len - i);
    *next_lane = CheckStep(*next_lane, tail);
  }
  return h0 ^ h1;
}

namespace {

// Grows `out` by one frame with a `payload_len`-byte payload and writes its
// header, checksum left zero; returns the frame's first byte. EndFrame
// stores the checksum once the payload is in place.
uint8_t* BeginFrame(std::vector<uint8_t>* out, FrameType type,
                    uint64_t request_id, size_t payload_len) {
  const size_t at = out->size();
  out->resize(at + kHeaderBytes + payload_len);
  uint8_t* h = out->data() + at;
  StoreLE(h, kMagic);
  StoreLE(h + 4, kWireVersion);
  StoreLE(h + 6, static_cast<uint16_t>(type));
  StoreLE(h + 8, request_id);
  StoreLE(h + 16, static_cast<uint32_t>(payload_len));
  StoreLE(h + 20, uint32_t{0});
  return h;
}

void EndFrame(uint8_t* frame, size_t payload_len) {
  // The checksum covers the first 20 header bytes (payload_len included)
  // plus the payload.
  StoreLE(frame + 20,
          FrameChecksum(frame, frame + kHeaderBytes, payload_len));
}

/// Appends one frame whose payload holds the fields `write_fields` writes.
template <typename WriteFields>
void AppendMessageFrame(std::vector<uint8_t>* out, FrameType type,
                        uint64_t request_id, const WriteFields& write_fields) {
  uint8_t* frame = nullptr;
  size_t payload_len = 0;
  WritePayload(write_fields, [&](size_t n) {
    payload_len = n;
    frame = BeginFrame(out, type, request_id, n);
    return frame + kHeaderBytes;
  });
  EndFrame(frame, payload_len);
}

}  // namespace

void AppendFrame(std::vector<uint8_t>* out, FrameType type, uint64_t request_id,
                 const uint8_t* payload, size_t payload_len) {
  uint8_t* frame = BeginFrame(out, type, request_id, payload_len);
  if (payload_len > 0) std::memcpy(frame + kHeaderBytes, payload, payload_len);
  EndFrame(frame, payload_len);
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (poisoned()) return;
  // Compact the consumed prefix before growing, so a long-lived connection's
  // buffer stays proportional to its unread bytes.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

void FrameDecoder::Poison(util::Status status) {
  error_ = std::move(status);
  buf_.clear();
  pos_ = 0;
}

FrameDecoder::Event FrameDecoder::Next(Frame* frame) {
  if (poisoned()) return Event::kError;
  const size_t avail = buf_.size() - pos_;
  const uint8_t* h = buf_.data() + pos_;
  // Reject garbage as early as the bytes allow: a prefix that cannot start a
  // frame poisons the stream at 4 (magic) or 6 (version) buffered bytes, not
  // after a full 24-byte header — so a resumed byte-at-a-time read never
  // sits on input already known to be bad.
  if (avail >= 4 && GetU32(h) != kMagic) {
    Poison(ProtocolError("bad frame magic"));
    return Event::kError;
  }
  if (avail >= 6 && GetU16(h + 4) != kWireVersion) {
    Poison(util::Status::NotImplemented(
        util::Format("wire protocol: unsupported version %u (peer speaks %u)",
                     GetU16(h + 4), kWireVersion)));
    return Event::kError;
  }
  if (avail < kHeaderBytes) return Event::kNeedMore;
  const uint16_t version = GetU16(h + 4);
  const uint32_t payload_len = GetU32(h + 16);
  if (payload_len > max_payload_) {
    // Rejected from the header alone: the oversized payload is never buffered.
    Poison(util::Status::OutOfRange(
        util::Format("wire protocol: frame payload %u exceeds limit %zu",
                     payload_len, max_payload_)));
    return Event::kError;
  }
  if (buf_.size() - pos_ < kHeaderBytes + payload_len) return Event::kNeedMore;
  const uint8_t* payload = h + kHeaderBytes;
  if (GetU32(h + 20) != FrameChecksum(h, payload, payload_len)) {
    Poison(ProtocolError("frame checksum mismatch"));
    return Event::kError;
  }
  frame->header.version = version;
  frame->header.type = static_cast<FrameType>(GetU16(h + 6));
  frame->header.request_id = GetU64(h + 8);
  frame->header.payload_len = payload_len;
  frame->header.checksum = GetU32(h + 20);
  frame->payload.assign(payload, payload + payload_len);
  pos_ += kHeaderBytes + payload_len;
  return Event::kFrame;
}

// ---------------------------------------------------------------- messages --

std::vector<uint8_t> EncodeRequest(const WireRequest& request) {
  return EncodePayload(
      [&](FieldWriter* w) { WriteRequestFields(request, w); });
}

void AppendRequestFrame(std::vector<uint8_t>* out, uint64_t request_id,
                        const WireRequest& request) {
  AppendMessageFrame(out, FrameType::kRequest, request_id,
                     [&](FieldWriter* w) { WriteRequestFields(request, w); });
}

util::Result<WireRequest> DecodeRequest(const uint8_t* data, size_t n) {
  WireRequest req;
  bool have_dataset = false;
  FieldReader r(data, n);
  while (r.Next()) {
    switch (r.tag()) {
      case kReqDataset: {
        QREG_ASSIGN_OR_RETURN(req.dataset, r.AsString());
        have_dataset = true;
        break;
      }
      case kReqKind: {
        QREG_ASSIGN_OR_RETURN(uint32_t kind, r.AsU32());
        if (kind > static_cast<uint32_t>(service::QueryKind::kQ2Regression)) {
          return ProtocolError(util::Format("unknown query kind %u", kind));
        }
        req.kind = static_cast<service::QueryKind>(kind);
        break;
      }
      case kReqCenter: {
        QREG_ASSIGN_OR_RETURN(req.q.center, r.AsF64Array());
        break;
      }
      case kReqTheta: {
        QREG_ASSIGN_OR_RETURN(req.q.theta, r.AsF64());
        break;
      }
      case kReqDeadlineBudget: {
        QREG_ASSIGN_OR_RETURN(req.deadline_budget_nanos, r.AsU64());
        break;
      }
      default:
        break;  // Unknown tag from a newer peer: skip.
    }
  }
  QREG_RETURN_NOT_OK(r.status());
  if (!have_dataset) return ProtocolError("request missing dataset field");
  return req;
}

std::vector<uint8_t> EncodeAnswer(const service::Answer& answer) {
  return EncodePayload([&](FieldWriter* w) { WriteAnswerFields(answer, w); });
}

void AppendAnswerFrame(std::vector<uint8_t>* out, uint64_t request_id,
                       const service::Answer& answer) {
  AppendMessageFrame(out, FrameType::kAnswer, request_id,
                     [&](FieldWriter* w) { WriteAnswerFields(answer, w); });
}

namespace {

util::Result<core::LocalLinearModel> DecodePiece(const uint8_t* data, size_t n) {
  core::LocalLinearModel piece;
  FieldReader r(data, n);
  while (r.Next()) {
    switch (r.tag()) {
      case kPieceIntercept: {
        QREG_ASSIGN_OR_RETURN(piece.intercept, r.AsF64());
        break;
      }
      case kPieceSlope: {
        QREG_ASSIGN_OR_RETURN(piece.slope, r.AsF64Array());
        break;
      }
      case kPiecePrototypeId: {
        QREG_ASSIGN_OR_RETURN(uint32_t id, r.AsU32());
        piece.prototype_id = static_cast<int32_t>(id);
        break;
      }
      case kPieceWeight: {
        QREG_ASSIGN_OR_RETURN(piece.weight, r.AsF64());
        break;
      }
      default:
        break;
    }
  }
  QREG_RETURN_NOT_OK(r.status());
  return piece;
}

util::Result<query::ExecStats> DecodeExec(const uint8_t* data, size_t n) {
  query::ExecStats exec;
  FieldReader r(data, n);
  while (r.Next()) {
    uint64_t v = 0;
    switch (r.tag()) {
      case kExecTuplesExamined:
      case kExecTuplesMatched:
      case kExecNanos:
      case kExecChunksCompleted:
      case kExecChunksTotal: {
        QREG_ASSIGN_OR_RETURN(v, r.AsU64());
        break;
      }
      default:
        continue;
    }
    switch (r.tag()) {
      case kExecTuplesExamined: exec.tuples_examined = static_cast<int64_t>(v); break;
      case kExecTuplesMatched: exec.tuples_matched = static_cast<int64_t>(v); break;
      case kExecNanos: exec.nanos = static_cast<int64_t>(v); break;
      case kExecChunksCompleted: exec.chunks_completed = static_cast<int64_t>(v); break;
      case kExecChunksTotal: exec.chunks_total = static_cast<int64_t>(v); break;
    }
  }
  QREG_RETURN_NOT_OK(r.status());
  return exec;
}

}  // namespace

util::Result<service::Answer> DecodeAnswer(const uint8_t* data, size_t n) {
  service::Answer answer;
  // A counting pass sizes `pieces` once; a malformed field stops it here and
  // is reported by the decoding pass below.
  size_t pieces = 0;
  for (FieldReader count(data, n); count.Next();) {
    if (count.tag() == kAnsPiece) ++pieces;
  }
  answer.pieces.reserve(pieces);
  FieldReader r(data, n);
  while (r.Next()) {
    switch (r.tag()) {
      case kAnsKind: {
        QREG_ASSIGN_OR_RETURN(uint32_t kind, r.AsU32());
        if (kind > static_cast<uint32_t>(service::QueryKind::kQ2Regression)) {
          return ProtocolError(util::Format("unknown answer kind %u", kind));
        }
        answer.kind = static_cast<service::QueryKind>(kind);
        break;
      }
      case kAnsSource: {
        QREG_ASSIGN_OR_RETURN(uint32_t source, r.AsU32());
        if (source > static_cast<uint32_t>(service::AnswerSource::kCache)) {
          return ProtocolError(util::Format("unknown answer source %u", source));
        }
        answer.source = static_cast<service::AnswerSource>(source);
        break;
      }
      case kAnsMean: {
        QREG_ASSIGN_OR_RETURN(answer.mean, r.AsF64());
        break;
      }
      case kAnsPiece: {
        QREG_ASSIGN_OR_RETURN(core::LocalLinearModel piece,
                              DecodePiece(r.data(), r.size()));
        answer.pieces.push_back(std::move(piece));
        break;
      }
      case kAnsCacheDelta: {
        QREG_ASSIGN_OR_RETURN(answer.cache_delta, r.AsF64());
        break;
      }
      case kAnsUsedFallback: {
        QREG_ASSIGN_OR_RETURN(uint32_t v, r.AsU32());
        answer.used_fallback = v != 0;
        break;
      }
      case kAnsExec: {
        QREG_ASSIGN_OR_RETURN(answer.exec, DecodeExec(r.data(), r.size()));
        break;
      }
      default:
        break;
    }
  }
  QREG_RETURN_NOT_OK(r.status());
  return answer;
}

std::vector<uint8_t> EncodeStatus(const util::Status& status) {
  return EncodePayload([&](FieldWriter* w) { WriteStatusFields(status, w); });
}

void AppendStatusFrame(std::vector<uint8_t>* out, uint64_t request_id,
                       const util::Status& status) {
  AppendMessageFrame(out, FrameType::kError, request_id,
                     [&](FieldWriter* w) { WriteStatusFields(status, w); });
}

util::Status DecodeStatus(const uint8_t* data, size_t n, util::Status* decoded) {
  uint32_t code = 0;
  std::string message;
  FieldReader r(data, n);
  while (r.Next()) {
    switch (r.tag()) {
      case kStatusCode: {
        QREG_ASSIGN_OR_RETURN(code, r.AsU32());
        break;
      }
      case kStatusMessage: {
        QREG_ASSIGN_OR_RETURN(message, r.AsString());
        break;
      }
      default:
        break;
    }
  }
  QREG_RETURN_NOT_OK(r.status());
  if (code > static_cast<uint32_t>(util::StatusCode::kUnavailable)) {
    return ProtocolError(util::Format("unknown status code %u", code));
  }
  *decoded = util::Status(static_cast<util::StatusCode>(code), std::move(message));
  return util::Status::OK();
}

// ------------------------------------------------------------ arena encode --

std::vector<uint8_t> WireArena::Acquire() {
  ++acquired_;
  if (!pool_.empty()) {
    std::vector<uint8_t> buf = std::move(pool_.back());
    pool_.pop_back();
    buf.clear();  // Keeps capacity — that is the whole point.
    ++reused_;
    return buf;
  }
  return {};
}

void WireArena::Release(std::vector<uint8_t> buf) {
  ++released_;
  if (pool_.size() >= options_.max_pooled_buffers ||
      buf.capacity() > options_.max_retained_bytes) {
    return;  // Over the caps: let it free here.
  }
  pool_.push_back(std::move(buf));
}

}  // namespace net
}  // namespace qreg
