// Tier-1 coverage for the entropy service layer (src/service/):
//
//  * SpscRing — SPSC byte ring unit tests incl. wraparound and the
//    power-of-two capacity contract;
//  * Sha256 — FIPS 180-4 test vectors, padding-boundary digests,
//    streaming-chunk invariance and SHA-NI against the scalar compression;
//  * PrngBitSource — word fetches interleaved with bits and restarts;
//  * conditioners — golden-pinned output (bit-exact regression anchors),
//    chunking invariance and reset semantics;
//  * pool + front-end — starvation paths (all slots failed, all slots
//    exhausted) and the cross-jobs bit-identity contract at jobs = 1/2/8,
//    pinned against hardcoded stream fingerprints.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "service/conditioner.hpp"
#include "service/frontend.hpp"
#include "service/pool.hpp"
#include "service/ring_buffer.hpp"
#include "service/sha256.hpp"

using namespace ringent;

namespace {

using Bytes = std::vector<std::uint8_t>;

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(service::SpscRing(0), PreconditionError);
  EXPECT_THROW(service::SpscRing(3), PreconditionError);
  EXPECT_THROW(service::SpscRing(100), PreconditionError);
  EXPECT_THROW(service::SpscRing(1), PreconditionError);  // minimum is 2
  EXPECT_NO_THROW(service::SpscRing(2));
  EXPECT_NO_THROW(service::SpscRing(64));
}

TEST(SpscRing, PushPopRoundTripsBytes) {
  service::SpscRing ring(16);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.free_space(), 16u);

  Bytes in(10);
  std::iota(in.begin(), in.end(), std::uint8_t{1});
  EXPECT_EQ(ring.try_push(in), 10u);
  EXPECT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.free_space(), 6u);

  Bytes out(10);
  EXPECT_EQ(ring.try_pop(out), 10u);
  EXPECT_EQ(out, in);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRing, PartialPushWhenNearlyFull) {
  service::SpscRing ring(8);
  Bytes six(6, 0xAA);
  EXPECT_EQ(ring.try_push(six), 6u);
  // Only 2 slots left: a 5-byte push is truncated, never blocked.
  Bytes five{1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push(five), 2u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.try_push(five), 0u);

  Bytes out(8);
  EXPECT_EQ(ring.try_pop(out), 8u);
  EXPECT_EQ(out, (Bytes{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 1, 2}));
  // Pop from empty is a zero-count, not an error.
  EXPECT_EQ(ring.try_pop(out), 0u);
}

TEST(SpscRing, WraparoundPreservesByteOrder) {
  // Capacity 8; cycle enough data through to wrap the cursors repeatedly
  // with unaligned chunk sizes, checking FIFO order across the seam.
  service::SpscRing ring(8);
  std::uint8_t next_in = 0;
  std::uint8_t next_out = 0;
  for (int round = 0; round < 100; ++round) {
    Bytes in(5);
    for (auto& b : in) b = next_in++;
    const std::size_t pushed = ring.try_push(in);
    next_in = static_cast<std::uint8_t>(next_in - (in.size() - pushed));

    Bytes out(3);
    const std::size_t popped = ring.try_pop(out);
    for (std::size_t i = 0; i < popped; ++i) {
      ASSERT_EQ(out[i], next_out) << "round " << round;
      ++next_out;
    }
  }
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 appendix vectors)

TEST(Sha256, FipsVectorEmpty) {
  const auto d = service::Sha256::digest({});
  EXPECT_EQ(hex(d),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, FipsVectorAbc) {
  const Bytes msg{'a', 'b', 'c'};
  const auto d = service::Sha256::digest(msg);
  EXPECT_EQ(hex(d),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, FipsVectorTwoBlock) {
  const std::string s =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const Bytes msg(s.begin(), s.end());
  const auto d = service::Sha256::digest(msg);
  EXPECT_EQ(hex(d),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingChunksMatchOneShot) {
  // 200 bytes of a fixed pattern, fed whole vs. in awkward chunk sizes.
  Bytes msg(200);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const auto ref = service::Sha256::digest(msg);

  service::Sha256 h;
  std::size_t off = 0;
  for (const std::size_t chunk : {1u, 63u, 64u, 65u, 7u}) {
    h.update(std::span<const std::uint8_t>(msg).subspan(off, chunk));
    off += chunk;
  }
  h.update(std::span<const std::uint8_t>(msg).subspan(off));
  EXPECT_EQ(h.finish(), ref);
}

TEST(Sha256, PaddingBoundaryLengthsMatchReferenceDigests) {
  // Lengths around the 55/56-byte boundary where the length field spills
  // into a second padding block; digests computed once with Python's
  // hashlib over bytes (37 i + 11) mod 256.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "2900465fcb533e05a158fd2b3be0e5e3b03740d83060aa3580e0d98a96bf2384"},
      {56, "31454ff48ef36af2f08fd511bdc37d9d5855ac23e992e5ff5445cb6b7674a674"},
      {63, "5f6401b96532c36de4e65beec0409b69b1d181864c8009b7a04f43e5d56350d1"},
      {64, "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e"},
      {119, "b0dc41b1a384e2f1203f0351b38fbeaafceef577ce1191d5bfc25da39f721eae"},
      {120, "5df24dd802ac26132ce608dcb5f09841eef039ee0f152acf98d26d17fe4e88e6"},
  };
  for (const auto& [length, expected] : cases) {
    Bytes msg(length);
    for (std::size_t i = 0; i < length; ++i) {
      msg[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    EXPECT_EQ(hex(service::Sha256::digest(msg)), expected) << length;
    // Byte-at-a-time leaves every pending size in front of finish().
    service::Sha256 h;
    for (const std::uint8_t byte : msg) {
      h.update(std::span<const std::uint8_t>(&byte, 1));
    }
    EXPECT_EQ(hex(h.finish()), expected) << length;
  }
}

TEST(Sha256, PlatformCompressMatchesScalar) {
  Xoshiro256 rng(0x5A256);
  for (int trial = 0; trial < 64; ++trial) {
    service::Sha256::State state;
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next());
    Bytes blocks(64 * (1 + rng.next() % 4));
    for (auto& byte : blocks) byte = static_cast<std::uint8_t>(rng.next());
    service::Sha256::State platform = state;
    service::Sha256::compress(platform, blocks);
    service::Sha256::compress_scalar(state, blocks);
    EXPECT_EQ(platform, state) << "trial " << trial;
  }
}

TEST(Sha256, HardwareCompressMatchesScalarOverRandomBlocksAndChunkings) {
  if (!service::Sha256::hardware_available()) {
    GTEST_SKIP() << "this CPU has no SHA-NI";
  }
  Xoshiro256 rng(0x5A257);
  for (int trial = 0; trial < 256; ++trial) {
    service::Sha256::State scalar;
    for (auto& word : scalar) word = static_cast<std::uint32_t>(rng.next());
    const std::size_t count = 1 + rng.next() % 9;
    Bytes blocks(64 * count);
    for (auto& byte : blocks) byte = static_cast<std::uint8_t>(rng.next());
    // Hardware over all blocks at once and in random runs of blocks.
    service::Sha256::State whole = scalar;
    service::Sha256::State runs = scalar;
    service::Sha256::compress_hardware(whole, blocks);
    for (std::size_t done = 0; done < count;) {
      const std::size_t take = 1 + rng.next() % (count - done);
      service::Sha256::compress_hardware(
          runs, std::span<const std::uint8_t>(blocks).subspan(64 * done,
                                                              64 * take));
      done += take;
    }
    service::Sha256::compress_scalar(scalar, blocks);
    EXPECT_EQ(whole, scalar) << "trial " << trial;
    EXPECT_EQ(runs, scalar) << "trial " << trial;
  }
}

TEST(PrngBitSource, InterleavedWordsBitsAndRestartsReplayTheBitStream) {
  // `words` mixes fill_words, next_bit and restart; `bits` sees the same
  // restarts at the same stream positions but only ever calls next_bit.
  service::PrngBitSource words(99);
  service::PrngBitSource bits(99);
  Xoshiro256 ops(7);
  std::uint64_t attempt = 0;
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t kind = ops.next() % 8;
    if (kind == 0) {
      words.restart(++attempt);
      bits.restart(attempt);
    } else if (kind < 4) {
      std::uint64_t got[3];
      const std::size_t n = 1 + ops.next() % 3;
      words.fill_words(std::span<std::uint64_t>(got, n));
      for (std::size_t w = 0; w < n; ++w) {
        for (unsigned i = 0; i < 64; ++i) {
          ASSERT_EQ((got[w] >> i) & 1u, bits.next_bit())
              << "op " << op << " word " << w << " bit " << i;
        }
      }
    } else {
      for (std::uint64_t i = ops.next() % 100; i > 0; --i) {
        ASSERT_EQ(words.next_bit(), bits.next_bit()) << "op " << op;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Conditioners

TEST(Conditioner, KindParsingRoundTrips) {
  EXPECT_EQ(service::parse_conditioner_kind("lfsr"),
            service::ConditionerKind::lfsr);
  EXPECT_EQ(service::parse_conditioner_kind("hash"),
            service::ConditionerKind::hash);
  EXPECT_THROW(service::parse_conditioner_kind("sponge"), PreconditionError);
  EXPECT_STREQ(
      service::conditioner_kind_name(service::ConditionerKind::lfsr), "lfsr");
  EXPECT_STREQ(
      service::conditioner_kind_name(service::ConditionerKind::hash), "hash");
}

TEST(Conditioner, LfsrGoldenVectors) {
  // Golden pins: CRC-64/XZ compression of the fixed raw prefixes below.
  // Any change to the polynomial, the init state or the emission cadence
  // breaks these bytes.
  service::LfsrConditioner cond(2);
  Bytes raw(16);
  std::iota(raw.begin(), raw.end(), std::uint8_t{0});
  Bytes out;
  cond.process(raw, out);
  EXPECT_EQ(out,
            (Bytes{0x17, 0x51, 0x97, 0x86, 0x4F, 0x27, 0xE7, 0xA9}));

  service::LfsrConditioner ident(1);
  const std::string s = "ringent";
  Bytes out1;
  ident.process(Bytes(s.begin(), s.end()), out1);
  EXPECT_EQ(out1, (Bytes{0x87, 0x32, 0xF5, 0x8B, 0xB8, 0xDF, 0xB0}));
}

/// Bit-serial reference for LfsrConditioner: the reflected CRC-64/XZ
/// register shifted one bit per Galois step, emitting the low register byte
/// after every `ratio` raw bytes.
Bytes lfsr_reference(std::span<const std::uint8_t> raw, std::size_t ratio) {
  constexpr std::uint64_t poly = 0xC96C5795D7870F42ull;
  std::uint64_t state = ~std::uint64_t{0};
  std::size_t absorbed = 0;
  Bytes out;
  for (const std::uint8_t byte : raw) {
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ (poly & (~(state & 1u) + 1));
    }
    if (++absorbed == ratio) {
      absorbed = 0;
      out.push_back(static_cast<std::uint8_t>(state & 0xFFu));
    }
  }
  return out;
}

TEST(Conditioner, LfsrTableMatchesBitSerialReference) {
  // The table-driven byte step must stay bit-exact with the bit-serial
  // register over random inputs, ratios and process() chunkings.
  Xoshiro256 rng(0x1F5);
  for (int trial = 0; trial < 64; ++trial) {
    Bytes raw(rng.below(3000));
    for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.next());
    const std::size_t ratio = 1 + rng.below(5);
    service::LfsrConditioner cond(ratio);
    Bytes out;
    std::size_t off = 0;
    while (off < raw.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(raw.size() - off, rng.below(200));
      cond.process(std::span<const std::uint8_t>(raw).subspan(off, chunk),
                   out);
      off += chunk;
    }
    ASSERT_EQ(out, lfsr_reference(raw, ratio))
        << "trial " << trial << " ratio " << ratio;
  }
}

TEST(Conditioner, HashGoldenVectorMatchesChainedSha256) {
  // ratio 2 -> one output block per 64 raw bytes. The pinned bytes double as
  // a cross-check: digest(zero_chain || raw) computed with Sha256 directly.
  service::HashConditioner cond(2);
  Bytes raw(64);
  std::iota(raw.begin(), raw.end(), std::uint8_t{0});
  Bytes out;
  cond.process(raw, out);
  ASSERT_EQ(out.size(), 32u);
  EXPECT_EQ(hex(out),
            "dc7a48014fc1fac8b52af39bc7ea5cafafabf8bb81fb8f880fdf3b4a4566795c");

  Bytes preimage(32, 0x00);  // zero chain value
  preimage.insert(preimage.end(), raw.begin(), raw.end());
  const auto direct = service::Sha256::digest(preimage);
  EXPECT_EQ(out, Bytes(direct.begin(), direct.end()));
}

TEST(Conditioner, ChunkingInvariance) {
  // Both conditioners are streaming: output depends on the byte sequence,
  // never on process() call boundaries.
  Bytes raw(1000);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>(i * 31 + 11);
  }
  for (const auto kind :
       {service::ConditionerKind::lfsr, service::ConditionerKind::hash}) {
    for (const std::size_t ratio : {1u, 2u, 3u, 4u, 7u}) {
      const auto whole_cond = service::make_conditioner(kind, ratio);
      Bytes whole;
      whole_cond->process(raw, whole);
      EXPECT_EQ(whole.size(),
                kind == service::ConditionerKind::lfsr
                    ? raw.size() / ratio
                    : raw.size() / (32 * ratio) * 32);

      const auto chunked_cond = service::make_conditioner(kind, ratio);
      Bytes chunked;
      std::size_t off = 0;
      for (const std::size_t chunk : {1u, 13u, 64u, 100u, 0u, 250u}) {
        chunked_cond->process(
            std::span<const std::uint8_t>(raw).subspan(off, chunk), chunked);
        off += chunk;
      }
      chunked_cond->process(std::span<const std::uint8_t>(raw).subspan(off),
                            chunked);
      EXPECT_EQ(chunked, whole)
          << service::conditioner_kind_name(kind) << " ratio " << ratio;
    }
  }
}

/// Chained SHA-256 through the streaming API, one fresh hash per group:
/// chain <- SHA-256(chain || 32 * ratio raw bytes), every chain emitted.
Bytes hash_reference(const Bytes& raw, std::size_t ratio) {
  const std::size_t group = 32 * ratio;
  std::array<std::uint8_t, service::Sha256::digest_size> chain{};
  Bytes out;
  for (std::size_t at = 0; at + group <= raw.size(); at += group) {
    service::Sha256 hash;
    hash.update(chain);
    hash.update(std::span<const std::uint8_t>(raw).subspan(at, group));
    chain = hash.finish();
    out.insert(out.end(), chain.begin(), chain.end());
  }
  return out;
}

TEST(Conditioner, HashMatchesStreamingSha256OverRatiosAndChunkings) {
  // Ratios 1-4 and 7 put 0 or 32 raw bytes after the chain's block and the
  // whole middle blocks, so the padding gets a block of its own or shares
  // the tail's.
  Xoshiro256 rng(0xC0FFEEull);
  for (const std::size_t ratio : {1u, 2u, 3u, 4u, 7u}) {
    SCOPED_TRACE(ratio);
    const std::size_t group = 32 * ratio;
    Bytes raw(9 * group + 17);
    for (std::uint8_t& b : raw) b = static_cast<std::uint8_t>(rng.next());
    const Bytes expected = hash_reference(raw, ratio);
    ASSERT_EQ(expected.size(), 9u * 32);

    // Chunk sizes per call: whole, exact multiples of a group, a partial
    // group followed by one long run, and random sizes with many 1-byte
    // chunks among them.
    std::vector<std::vector<std::size_t>> chunkings = {
        {raw.size()},
        {group, 2 * group, 3 * group},
        {group / 2 + 3, raw.size()},
    };
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::size_t> sizes;
      for (std::size_t total = 0; total < raw.size();) {
        const std::size_t size =
            rng.next() % 3 == 0 ? 1 : rng.next() % (2 * group + 1);
        sizes.push_back(size);
        total += size;
      }
      chunkings.push_back(std::move(sizes));
    }
    for (const auto& sizes : chunkings) {
      service::HashConditioner cond(ratio);
      Bytes out;
      std::size_t off = 0;
      for (const std::size_t size : sizes) {
        const std::size_t take = std::min(size, raw.size() - off);
        cond.process(std::span<const std::uint8_t>(raw).subspan(off, take),
                     out);
        off += take;
      }
      cond.process(std::span<const std::uint8_t>(raw).subspan(off), out);
      EXPECT_EQ(out, expected) << "first chunk " << sizes.front();
    }
  }
}

TEST(Conditioner, ResetRestartsTheStream) {
  for (const auto kind :
       {service::ConditionerKind::lfsr, service::ConditionerKind::hash}) {
    const auto cond = service::make_conditioner(kind, 1);
    Bytes raw(64, 0x5A);
    Bytes first;
    cond->process(raw, first);
    Bytes again;
    cond->reset();
    cond->process(raw, again);
    EXPECT_EQ(again, first) << service::conditioner_kind_name(kind);
  }
}

TEST(Conditioner, RejectsZeroRatio) {
  EXPECT_THROW(service::make_conditioner(service::ConditionerKind::lfsr, 0),
               PreconditionError);
  EXPECT_THROW(service::make_conditioner(service::ConditionerKind::hash, 0),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Pool + front-end starvation paths

/// Always-zero source: trips the RCT almost immediately and keeps tripping
/// it through every relock, driving the slot to `failed`.
class StuckSource final : public trng::BitSource {
 public:
  std::uint8_t next_bit() override { return 0; }
  std::string_view describe() const override { return "stuck"; }
};

trng::DegradationPolicy fast_fail_policy() {
  trng::DegradationPolicy policy;
  policy.claimed_min_entropy = 0.3;
  policy.backoff_bits = 16;
  policy.probation_bits = 32;
  policy.max_strikes = 2;
  policy.failover_after_strikes = 0;
  return policy;
}

TEST(ServiceStarvation, AllSlotsFailedThrowsInsteadOfBlocking) {
  service::PoolConfig config;
  config.slots = 2;
  config.workers = 2;
  config.raw_bits_per_slot = 1u << 20;  // budget never the limiting factor
  // Hash conditioner, ratio 2: one output block needs 64 emitted raw bytes.
  // A stuck source emits only 67 bits (8 bytes) before the RCT trips and
  // the slot dies, so no conditioned block ever forms — the front-end must
  // report starvation instead of blocking or leaking raw bits.
  config.conditioner = service::ConditionerKind::hash;
  config.policy = fast_fail_policy();
  service::GeneratorPool pool(config, [](std::size_t, std::uint64_t) {
    service::SlotSources s;
    s.primary = std::make_unique<StuckSource>();
    return s;
  });
  pool.start();

  service::EntropyService frontend(pool);
  Bytes out(64);
  EXPECT_THROW((void)frontend.acquire(out), service::StarvationError);
  pool.stop();

  EXPECT_EQ(frontend.stats().bytes_delivered, 0u);
  EXPECT_EQ(frontend.stats().starvations, 1u);
  EXPECT_EQ(frontend.live_slots(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.slots_failed, 2u);
  EXPECT_EQ(stats.slots_exhausted, 2u);
  EXPECT_EQ(pool.generator(0).state(), trng::DegradationState::failed);
  EXPECT_EQ(pool.generator(1).state(), trng::DegradationState::failed);
}

TEST(ServiceStarvation, DrainedPoolReportsEndOfStream) {
  // Healthy synthetic slots with a tiny budget: drain everything, then the
  // next acquire must throw (all slots retired), not hang.
  service::PoolConfig config;
  config.slots = 2;
  config.workers = 1;
  config.raw_bits_per_slot = 1u << 12;
  config.policy.claimed_min_entropy = 0.3;
  service::GeneratorPool pool(config, [](std::size_t, std::uint64_t seed) {
    service::SlotSources s;
    s.primary = std::make_unique<service::PrngBitSource>(seed);
    return s;
  });
  pool.start();

  service::EntropyService frontend(pool);
  std::size_t total = 0;
  for (;;) {
    Bytes out(100);
    try {
      const std::size_t got = frontend.acquire(out);
      total += got;
    } catch (const service::StarvationError&) {
      break;
    }
  }
  pool.stop();

  // 2 slots * 4096 raw bits / 8 bits-per-byte / ratio 2 = 512 bytes.
  EXPECT_EQ(total, 512u);
  EXPECT_EQ(frontend.stats().bytes_delivered, 512u);
  EXPECT_EQ(frontend.live_slots(), 0u);
  Bytes more(8);
  EXPECT_THROW((void)frontend.acquire(more), service::StarvationError);
}

// ---------------------------------------------------------------------------
// Cross-jobs bit-identity (the determinism contract of the whole layer)

core::EntropyServiceResult run_service(int jobs,
                                       service::ConditionerKind kind) {
  core::EntropyServiceSpec spec;
  spec.slots = 3;
  spec.raw_bits_per_slot = 1u << 14;
  spec.conditioner = kind;
  core::ExperimentOptions options;
  options.jobs = jobs;
  return core::run_entropy_service(spec, core::cyclone_iii(), options);
}

TEST(ServiceIdentity, ConditionedStreamIsPinnedAndJobsInvariant) {
  // Golden fingerprint of the full conditioned stream (3 synthetic slots,
  // 2^14 raw bits each, LFSR ratio 2). Pinned from a jobs=1 run; every
  // worker count must reproduce it bit-exactly.
  const Bytes golden_head{0x0E, 0xD5, 0x54, 0xBF, 0x49, 0xCB, 0xC8, 0xAA,
                          0x98, 0x07, 0x35, 0xEF, 0x5E, 0xE5, 0x76, 0x83,
                          0x14, 0x16, 0xE6, 0x06, 0x59, 0x88, 0x6E, 0x34,
                          0x15, 0x4C, 0x32, 0x4D, 0x4B, 0x9F, 0x51, 0xA9};
  for (const int jobs : {1, 2, 8}) {
    const auto r = run_service(jobs, service::ConditionerKind::lfsr);
    EXPECT_EQ(r.bytes_delivered, 3072u) << "jobs=" << jobs;
    EXPECT_EQ(r.stream_fnv, 0x5BD965628F5E8D6Eull) << "jobs=" << jobs;
    EXPECT_EQ(r.head, golden_head) << "jobs=" << jobs;
    // Exactly one starvation: the explicit end-of-stream signal that ends
    // the drain loop. More would mean a live slot stalled mid-run.
    EXPECT_EQ(r.starvations, 1u) << "jobs=" << jobs;
    EXPECT_EQ(r.slots_failed, 0u) << "jobs=" << jobs;
    EXPECT_EQ(r.workers, static_cast<std::size_t>(std::min(jobs, 3)))
        << "jobs=" << jobs;
  }
}

TEST(ServiceIdentity, HashConditionerStreamIsPinnedAndJobsInvariant) {
  for (const int jobs : {1, 2}) {
    const auto r = run_service(jobs, service::ConditionerKind::hash);
    EXPECT_EQ(r.bytes_delivered, 3072u) << "jobs=" << jobs;
    EXPECT_EQ(r.stream_fnv, 0x91B719D375343966ull) << "jobs=" << jobs;
  }
}

}  // namespace
