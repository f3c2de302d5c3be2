// Wire protocol v2 for the network front-end (DESIGN.md §12).
//
// Every message on the socket is one length-prefixed *frame*:
//
//   ┌────────┬─────────┬──────┬────────────┬─────────────┬──────────┐
//   │ magic  │ version │ type │ request_id │ payload_len │ checksum │ payload…
//   │ u32    │ u16     │ u16  │ u64        │ u32         │ u32      │
//   └────────┴─────────┴──────┴────────────┴─────────────┴──────────┘
//     24-byte little-endian header; checksum = FrameChecksum over the
//     first 20 header bytes plus the payload (two word-wide lanes).
//
// Payloads are sequences of explicitly-tagged fields
// ([u16 tag][u32 len][len bytes], recursively for nested messages) — never a
// raw struct memcpy — so decoders skip unknown tags and a reader stays
// compatible with payloads that grow new fields. Doubles travel as their
// IEEE-754 bit patterns: a decoded Answer is bit-for-bit the encoded one.
//
// Malformed input (bad magic, unsupported version, oversized length, bad
// checksum, truncated or overrunning fields) yields a *typed* protocol error
// — a util::Status a server can echo back as a kError frame — and pins the
// FrameDecoder in a poisoned state; it never crashes, hangs, or resyncs on
// garbage.

#ifndef QREG_NET_WIRE_H_
#define QREG_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"
#include "service/query_router.h"
#include "util/status.h"

namespace qreg {
namespace net {

// ------------------------------------------------------------------ frames --

/// First four header bytes: "QREG" read as a little-endian u32.
constexpr uint32_t kMagic = 0x47455251u;

/// Current protocol version; a decoder rejects anything newer or older.
/// Version 2 replaced version 1's byte-at-a-time FNV-1a frame check with
/// FrameChecksum's word-wide one; the frame layout and payloads are as in 1.
constexpr uint16_t kWireVersion = 2;

/// Frame header size on the wire.
constexpr size_t kHeaderBytes = 24;

/// Default ceiling on payload_len: a header announcing more is malformed and
/// rejected *before* any payload buffering, so a hostile length can never
/// drive an allocation.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// \brief What a frame carries.
enum class FrameType : uint16_t {
  kRequest = 1,  ///< Client → server: an encoded WireRequest.
  kAnswer = 2,   ///< Server → client: an encoded service::Answer.
  kError = 3,    ///< Server → client: an encoded non-OK util::Status.
  kPing = 4,     ///< Client → server: liveness / pipeline-flush probe.
  kPong = 5,     ///< Server → client: answer to kPing.
};

/// \brief Decoded frame header (host byte order).
struct FrameHeader {
  uint16_t version = kWireVersion;
  FrameType type = FrameType::kRequest;
  uint64_t request_id = 0;  ///< Client-chosen; responses echo it (pipelining).
  uint32_t payload_len = 0;
  uint32_t checksum = 0;
};

/// \brief A complete decoded frame.
struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

/// The frame check over the first 20 bytes of the encoded header plus the
/// payload: cheap, dependency-free corruption detection (not cryptographic).
/// The 20 header bytes and the payload form one stream of little-endian u32
/// words, the last one zero-padded (nothing past `payload_len` is read).
/// Word k feeds lane k mod 2 as `h = (h ^ w) * 16777619`, lane 0 starting
/// at 2166136261 and lane 1 at 0x9E3779B9, and the check is `h0 ^ h1`. Each
/// step is a bijection of its lane, so any change confined to one 4-byte
/// word (every single-bit or single-byte flip) changes the check, and the
/// two lanes run in parallel, a multiply per 8 bytes on each dependency
/// chain.
uint32_t FrameChecksum(const uint8_t* header20, const uint8_t* payload,
                       size_t payload_len);

/// Appends one encoded frame (header + payload, checksummed) to `out`.
void AppendFrame(std::vector<uint8_t>* out, FrameType type, uint64_t request_id,
                 const uint8_t* payload, size_t payload_len);
inline void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                        uint64_t request_id,
                        const std::vector<uint8_t>& payload) {
  AppendFrame(out, type, request_id, payload.data(), payload.size());
}

/// The consumed prefix of a byte buffer is dropped once it is the whole
/// buffer or at least this long. Compacting on every partial consume would
/// move the unread tail each time; never compacting would let a peer that
/// never fully drains grow the buffer without bound. At 4 KiB the dead
/// prefix stays small, and a buffer drained in small steps is compacted at
/// most once per 4 KiB consumed.
constexpr size_t kCompactPrefixBytes = 4096;

/// Drops `(*buf)[0, *pos)`, the bytes already consumed, under the rule above
/// and rebases `*pos`. FrameDecoder applies it to its input, net::Server to
/// each connection's output.
void CompactConsumed(std::vector<uint8_t>* buf, size_t* pos);

/// \brief Incremental frame decoder: feed raw socket bytes, pop frames.
///
/// Any protocol violation poisons the decoder: the typed error is latched,
/// every later Next() returns kError, and Feed() discards input. The owner's
/// defined recovery is "report the error and close the connection" — there is
/// no resynchronization on a corrupted stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  enum class Event {
    kNeedMore,  ///< No complete frame buffered; feed more bytes.
    kFrame,     ///< `*frame` holds the next complete, checksum-verified frame.
    kError,     ///< Poisoned; error() has the typed protocol error.
  };

  /// Buffers `n` bytes from the socket (no-op once poisoned).
  void Feed(const uint8_t* data, size_t n);

  /// Pops the next complete frame, or reports kNeedMore / kError.
  Event Next(Frame* frame);

  const util::Status& error() const { return error_; }
  bool poisoned() const { return !error_.ok(); }

  /// Bytes buffered but not yet consumed (tests assert bounded buffering).
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  void Poison(util::Status status);

  size_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // Consumed prefix of buf_.
  util::Status error_;
};

// ---------------------------------------------------------------- messages --

/// \brief A client's view of one query: service::Request minus the process-
/// local lifecycle handles, plus a relative deadline budget. The server maps
/// `deadline_budget_nanos` onto a util::Deadline *at decode time*, so the
/// budget starts ticking the moment the frame is parsed and admission-time
/// rejection / the deadline fallback work unchanged over the wire.
struct WireRequest {
  std::string dataset;
  service::QueryKind kind = service::QueryKind::kQ1MeanValue;
  query::Query q;
  uint64_t deadline_budget_nanos = 0;  ///< 0 = no deadline.

  static WireRequest Q1(std::string dataset, query::Query q) {
    return WireRequest{std::move(dataset), service::QueryKind::kQ1MeanValue,
                       std::move(q), 0};
  }
  static WireRequest Q2(std::string dataset, query::Query q) {
    return WireRequest{std::move(dataset), service::QueryKind::kQ2Regression,
                       std::move(q), 0};
  }
};

std::vector<uint8_t> EncodeRequest(const WireRequest& request);
util::Result<WireRequest> DecodeRequest(const uint8_t* data, size_t n);

std::vector<uint8_t> EncodeAnswer(const service::Answer& answer);
util::Result<service::Answer> DecodeAnswer(const uint8_t* data, size_t n);

/// `status` must be non-OK (an OK kError frame is a contradiction).
std::vector<uint8_t> EncodeStatus(const util::Status& status);

// ---------------------------------------------------------- frame encode --

/// In-place frame encoders: append one complete frame — header plus
/// tagged-field payload, with payload_len, nested lengths, and checksum
/// filled in — directly onto `out`, which grows once per frame. Bit-for-bit
/// identical to `AppendFrame(out, ..., EncodeAnswer(...))` without the
/// intermediate payload vector; the server encodes its responses this way
/// onto each connection's output buffer, and the client its requests.
void AppendAnswerFrame(std::vector<uint8_t>* out, uint64_t request_id,
                       const service::Answer& answer);
void AppendRequestFrame(std::vector<uint8_t>* out, uint64_t request_id,
                        const WireRequest& request);
void AppendStatusFrame(std::vector<uint8_t>* out, uint64_t request_id,
                       const util::Status& status);

/// Decodes a kError payload into `*decoded`. The return value reports the
/// *decode*; `*decoded` is the peer's transported status on success.
util::Status DecodeStatus(const uint8_t* data, size_t n, util::Status* decoded);

}  // namespace net
}  // namespace qreg

#endif  // QREG_NET_WIRE_H_
