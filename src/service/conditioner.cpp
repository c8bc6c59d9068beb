#include "service/conditioner.hpp"

#include <array>

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
    : ratio_(ratio), block_bytes_(ratio * Sha256::digest_size) {
  RINGENT_REQUIRE(ratio >= 1, "hash conditioner ratio must be >= 1");
  pending_.reserve(block_bytes_);
}

void HashConditioner::process(std::span<const std::uint8_t> raw,
                              std::vector<std::uint8_t>& out) {
  std::size_t offset = 0;
  while (offset < raw.size()) {
    const std::size_t take =
        std::min(raw.size() - offset, block_bytes_ - pending_.size());
    pending_.insert(pending_.end(), raw.begin() + offset,
                    raw.begin() + offset + take);
    offset += take;
    if (pending_.size() == block_bytes_) emit_block(out);
  }
}

void HashConditioner::emit_block(std::vector<std::uint8_t>& out) {
  Sha256 hash;
  hash.update(std::span<const std::uint8_t>(chain_.data(), chain_.size()));
  hash.update(std::span<const std::uint8_t>(pending_.data(), pending_.size()));
  chain_ = hash.finish();
  out.insert(out.end(), chain_.begin(), chain_.end());
  pending_.clear();
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
