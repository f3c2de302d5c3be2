// libFuzzer harness for net::FrameDecoder (build with -DQREG_FUZZ=ON, clang
// only). Seeded from tests/corpus/wire/ — the checked-in frame corpus the
// deterministic battery replays — and run as a 60-second smoke in CI.
//
// The harness stresses the *incremental* decode path: the input is fed in
// pseudo-random chunk sizes derived from the first byte, so every header
// boundary, early-poison prefix (bad magic at 4 bytes, bad version at 6),
// and partial-payload resume gets exercised, not just whole-buffer decodes.
// ASan (bundled with -fsanitize=fuzzer,address) catches the interesting
// failures: out-of-bounds header reads, checksum scans past the payload,
// or unbounded buffering after a poison.

#include <cstddef>
#include <cstdint>

#include "net/wire.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using qreg::net::Frame;
  using qreg::net::FrameDecoder;

  FrameDecoder decoder(/*max_payload=*/1 << 20);

  // Chunk-size schedule: a tiny LCG seeded from the input so the split
  // points are fuzz-controlled but deterministic per input.
  uint32_t rng = 1u;
  if (size > 0) rng = static_cast<uint32_t>(data[0]) * 2654435761u + 1u;
  size_t offset = 0;
  while (offset < size) {
    rng = rng * 1664525u + 1013904223u;
    const size_t chunk = static_cast<size_t>(rng % 37u) + 1u;
    const size_t n = chunk < size - offset ? chunk : size - offset;
    decoder.Feed(data + offset, n);
    offset += n;

    Frame frame;
    while (decoder.Next(&frame) == FrameDecoder::Event::kFrame) {
    }
    if (decoder.poisoned()) break;  // Poison is terminal; feeding is a no-op.
  }
  return 0;
}
