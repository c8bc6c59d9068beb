#include "service/conditioner.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/require.hpp"

namespace ringent::service {

namespace {

// CRC-64/XZ polynomial (reflected), the same generator used by xz/liblzma.
constexpr std::uint64_t kCrc64Poly = 0xC96C5795D7870F42ull;

// Non-zero init so an all-zero raw stream still cycles the register.
constexpr std::uint64_t kLfsrInit = 0xFFFFFFFFFFFFFFFFull;

// One reflected CRC-64 byte step per entry: entry b is the register after
// shifting the byte b through eight Galois steps from zero, so a byte step
// is state >> 8 ^ table[(state ^ byte) & 0xFF] — bit-exact with the
// bit-serial loop (tests/test_service.cpp keeps that loop as the reference).
constexpr std::array<std::uint64_t, 256> make_crc64_table() {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t b = 0; b < 256; ++b) {
    std::uint64_t state = b;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ (kCrc64Poly & (~(state & 1u) + 1));
    }
    table[b] = state;
  }
  return table;
}

constexpr std::array<std::uint64_t, 256> kCrc64Table = make_crc64_table();

inline std::uint64_t crc64_feed_byte(std::uint64_t state, std::uint8_t byte) {
  return (state >> 8) ^ kCrc64Table[(state ^ byte) & 0xFFu];
}

}  // namespace

ConditionerKind parse_conditioner_kind(const std::string& name) {
  if (name == "lfsr") return ConditionerKind::lfsr;
  if (name == "hash") return ConditionerKind::hash;
  RINGENT_REQUIRE(false, "unknown conditioner kind: " + name);
}

const char* conditioner_kind_name(ConditionerKind kind) {
  switch (kind) {
    case ConditionerKind::lfsr:
      return "lfsr";
    case ConditionerKind::hash:
      return "hash";
  }
  return "?";
}

LfsrConditioner::LfsrConditioner(std::size_t ratio)
    : ratio_(ratio), state_(kLfsrInit) {
  RINGENT_REQUIRE(ratio >= 1, "lfsr conditioner ratio must be >= 1");
}

void LfsrConditioner::process(std::span<const std::uint8_t> raw,
                              std::vector<std::uint8_t>& out) {
  for (const std::uint8_t byte : raw) {
    state_ = crc64_feed_byte(state_, byte);
    if (++absorbed_ >= ratio_) {
      absorbed_ = 0;
      out.push_back(static_cast<std::uint8_t>(state_ & 0xFFu));
    }
  }
}

void LfsrConditioner::reset() {
  state_ = kLfsrInit;
  absorbed_ = 0;
}

HashConditioner::HashConditioner(std::size_t ratio)
    : ratio_(ratio), group_bytes_(ratio * Sha256::digest_size) {
  RINGENT_REQUIRE(ratio >= 1, "hash conditioner ratio must be >= 1");
  pending_.reserve(group_bytes_);
}

void HashConditioner::process(std::span<const std::uint8_t> raw,
                              std::vector<std::uint8_t>& out) {
  const std::size_t groups = (pending_.size() + raw.size()) / group_bytes_;
  std::size_t at = out.size();
  out.resize(at + groups * Sha256::digest_size);
  const auto absorb = [&](std::span<const std::uint8_t> group) {
    chain_group(group);
    std::memcpy(out.data() + at, chain_.data(), chain_.size());
    at += chain_.size();
  };
  if (!pending_.empty()) {
    const std::size_t take =
        std::min(raw.size(), group_bytes_ - pending_.size());
    pending_.insert(pending_.end(), raw.begin(), raw.begin() + take);
    raw = raw.subspan(take);
    if (pending_.size() < group_bytes_) return;
    absorb(pending_);
    pending_.clear();
  }
  for (; raw.size() >= group_bytes_; raw = raw.subspan(group_bytes_)) {
    absorb(raw.first(group_bytes_));
  }
  pending_.assign(raw.begin(), raw.end());
}

void HashConditioner::chain_group(std::span<const std::uint8_t> group) {
  // The message chain ‖ group is 32 (ratio + 1) bytes: one block of the
  // chain and the first 32 raw bytes, whole blocks of raw bytes, and a tail
  // of 0 or 32 raw bytes that always leaves room for the padding (0x80,
  // zeros, 64-bit big-endian bit length) in the same last block.
  constexpr std::size_t half = Sha256::digest_size;
  Sha256::State state = Sha256::initial_state;
  std::array<std::uint8_t, Sha256::block_size> block{};
  std::memcpy(block.data(), chain_.data(), half);
  std::memcpy(block.data() + half, group.data(), half);
  Sha256::compress(state, block);
  const std::span<const std::uint8_t> rest = group.subspan(half);
  const std::size_t middle =
      rest.size() - rest.size() % Sha256::block_size;
  if (middle > 0) Sha256::compress(state, rest.first(middle));
  const std::size_t tail = rest.size() - middle;
  block.fill(0);
  std::memcpy(block.data(), rest.data() + middle, tail);
  block[tail] = 0x80;
  const std::uint64_t bit_length = (half + group.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    block[Sha256::block_size - 1 - i] =
        static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  Sha256::compress(state, block);
  chain_ = Sha256::state_digest(state);
}

void HashConditioner::reset() {
  chain_.fill(0);
  pending_.clear();
}

std::unique_ptr<Conditioner> make_conditioner(ConditionerKind kind,
                                              std::size_t ratio) {
  switch (kind) {
    case ConditionerKind::lfsr:
      return std::make_unique<LfsrConditioner>(ratio);
    case ConditionerKind::hash:
      return std::make_unique<HashConditioner>(ratio);
  }
  RINGENT_REQUIRE(false, "unknown conditioner kind");
}

}  // namespace ringent::service
