#include "service/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/require.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RINGENT_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ringent::service {

namespace {

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  // One byte swap and one store (the byte-wise form vectorises badly).
  if constexpr (std::endian::native == std::endian::little) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  }
  std::memcpy(p, &v, sizeof v);
}

void compress_blocks_scalar(Sha256::State& state, const std::uint8_t* data,
                            std::size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::block_size) {
    std::uint32_t w[64];
    for (std::size_t t = 0; t < 16; ++t) w[t] = load_be32(data + 4 * t);
    for (std::size_t t = 16; t < 64; ++t) {
      const std::uint32_t s0 = std::rotr(w[t - 15], 7) ^
                               std::rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[t - 2], 17) ^
                               std::rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t t = 0; t < 64; ++t) {
      const std::uint32_t big_s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + big_s1 + ch + kRound[t] + w[t];
      const std::uint32_t big_s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = big_s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef RINGENT_SHA_NI

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  if ((c & bit_SSSE3) == 0 || (c & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return (b & bit_SHA) != 0;
}

// The SHA-NI round structure (Intel's SHA extensions whitepaper): the state
// is kept as ABEF/CDGH lane pairs, each sha256rnds2 runs two rounds, and
// sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_blocks_sha_ni(
    Sha256::State& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += Sha256::block_size) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[g % 4] holds schedule words 4g..4g+3
    for (std::size_t g = 0; g < 16; ++g) {
      __m128i words;
      if (g < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], t = 4g..4g+3.
        words = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        words = _mm_add_epi32(
            words, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        words = _mm_sha256msg2_epu32(words, w[(g + 3) % 4]);
      }
      w[g % 4] = words;
      __m128i k = _mm_add_epi32(
          words,
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
      k = _mm_shuffle_epi32(k, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, k);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#endif  // RINGENT_SHA_NI

using CompressFn = void (*)(Sha256::State&, const std::uint8_t*, std::size_t);

/// The platform's compression, decided on first use.
CompressFn platform_compress() {
#ifdef RINGENT_SHA_NI
  static const CompressFn chosen =
      cpu_has_sha_ni() ? compress_blocks_sha_ni : compress_blocks_scalar;
  return chosen;
#else
  return compress_blocks_scalar;
#endif
}

std::size_t whole_blocks(std::span<const std::uint8_t> blocks) {
  RINGENT_REQUIRE(blocks.size() % Sha256::block_size == 0,
                  "SHA-256 compresses whole 64-byte blocks");
  return blocks.size() / Sha256::block_size;
}

}  // namespace

bool Sha256::hardware_available() {
  return platform_compress() != compress_blocks_scalar;
}

void Sha256::compress(State& state, std::span<const std::uint8_t> blocks) {
  platform_compress()(state, blocks.data(), whole_blocks(blocks));
}

void Sha256::compress_scalar(State& state,
                             std::span<const std::uint8_t> blocks) {
  compress_blocks_scalar(state, blocks.data(), whole_blocks(blocks));
}

void Sha256::compress_hardware(State& state,
                               std::span<const std::uint8_t> blocks) {
#ifdef RINGENT_SHA_NI
  RINGENT_REQUIRE(hardware_available(), "this CPU has no SHA-NI");
  compress_blocks_sha_ni(state, blocks.data(), whole_blocks(blocks));
#else
  (void)state;
  (void)blocks;
  RINGENT_REQUIRE(false, "SHA-NI needs an x86-64 build");
#endif
}

std::array<std::uint8_t, Sha256::digest_size> Sha256::state_digest(
    const State& state) {
  std::array<std::uint8_t, digest_size> out{};
  for (std::size_t i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state[i]);
  return out;
}

void Sha256::reset() {
  state_ = initial_state;
  total_bytes_ = 0;
  pending_size_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> bytes) {
  total_bytes_ += bytes.size();
  if (bytes.empty()) return;
  if (pending_size_ > 0) {
    const std::size_t take =
        std::min(bytes.size(), pending_.size() - pending_size_);
    std::memcpy(pending_.data() + pending_size_, bytes.data(), take);
    pending_size_ += take;
    bytes = bytes.subspan(take);
    if (pending_size_ < pending_.size()) return;
    compress(state_, pending_);
    pending_size_ = 0;
  }
  const std::size_t whole = bytes.size() - bytes.size() % block_size;
  if (whole > 0) compress(state_, bytes.first(whole));
  pending_size_ = bytes.size() - whole;
  if (pending_size_ > 0) {
    std::memcpy(pending_.data(), bytes.data() + whole, pending_size_);
  }
}

std::array<std::uint8_t, Sha256::digest_size> Sha256::finish() {
  // 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length:
  // one update that closes the last one or two blocks.
  const std::uint64_t bit_length = total_bytes_ * 8;
  std::array<std::uint8_t, 2 * block_size> padding{};
  const std::size_t pad_size =
      (pending_size_ < 56 ? block_size : 2 * block_size) - pending_size_;
  padding[0] = 0x80;
  for (std::size_t i = 0; i < 8; ++i) {
    padding[pad_size - 1 - i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  update(std::span<const std::uint8_t>(padding.data(), pad_size));
  return state_digest(state_);
}

}  // namespace ringent::service
