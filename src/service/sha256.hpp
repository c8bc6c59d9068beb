// Minimal SHA-256 (FIPS 180-4) for the hash-based conditioner.
//
// The service layer needs a vetted cryptographic compressor the way
// jitterentropy uses SHA-3 in jent_hash_time; the container has no crypto
// library to link, so this is a plain, dependency-free transcription of the
// FIPS 180-4 algorithm. It is used as a conditioning component only — the
// test suite pins the standard vectors ("abc", the empty string, the
// two-block 448-bit message) so the implementation cannot drift.
//
// The block compression runs on the x86 SHA extensions (SHA-NI) when CPUID
// reports them, chosen once per process with no option; everywhere else it
// is the scalar transcription, which also stays the reference that the
// tests compare the hardware path against.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ringent::service {

class Sha256 {
 public:
  static constexpr std::size_t digest_size = 32;
  static constexpr std::size_t block_size = 64;
  using State = std::array<std::uint32_t, 8>;

  /// The FIPS 180-4 initial hash value H(0).
  static constexpr State initial_state = {
      0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
      0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
  };

  Sha256() { reset(); }

  /// Restart as a fresh hash.
  void reset();

  /// Absorb `bytes` (streaming: any call-boundary chunking gives the same
  /// digest).
  void update(std::span<const std::uint8_t> bytes);

  /// Pad, finalize and return the digest. The object must be reset()
  /// before further use.
  std::array<std::uint8_t, digest_size> finish();

  /// One-shot convenience.
  static std::array<std::uint8_t, digest_size> digest(
      std::span<const std::uint8_t> bytes) {
    Sha256 h;
    h.update(bytes);
    return h.finish();
  }

  /// FIPS 180-4 compression of the consecutive 64-byte blocks in `blocks`
  /// (size a multiple of 64) into `state`: compress_hardware() when
  /// hardware_available(), compress_scalar() otherwise.
  static void compress(State& state, std::span<const std::uint8_t> blocks);
  /// The portable transcription of FIPS 180-4 §6.2.2.
  static void compress_scalar(State& state,
                              std::span<const std::uint8_t> blocks);
  /// The SHA-NI path; call only when hardware_available().
  static void compress_hardware(State& state,
                                std::span<const std::uint8_t> blocks);
  /// True when this CPU has SHA-NI (and the build targets x86-64).
  static bool hardware_available();
  /// The digest of a final `state`: its eight words, big-endian.
  static std::array<std::uint8_t, digest_size> state_digest(
      const State& state);

 private:
  State state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, block_size> pending_{};
  std::size_t pending_size_ = 0;
};

}  // namespace ringent::service
