// Unit tests for the attack-resilience subsystem's pieces in isolation:
// the degradation state machine (trng/resilient.hpp) against synthetic
// deterministic bit sources, and the fault-scenario schedule algebra
// (noise/fault.hpp). The full physics pipeline (simulated ring under a
// scripted attack) is pinned by the tier-2 golden suite in test_attack.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/ring_source.hpp"
#include "noise/fault.hpp"
#include "sim/telemetry.hpp"
#include "trng/health.hpp"
#include "trng/resilient.hpp"
#include "trng/telemetry.hpp"

using namespace ringent;
using namespace ringent::trng;
using noise::FaultEvent;
using noise::FaultKind;
using noise::FaultScenario;

namespace {

/// Unbiased pseudo-random bits; restart() reseeds deterministically.
class RandomSource final : public BitSource {
 public:
  explicit RandomSource(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  std::uint8_t next_bit() override {
    return static_cast<std::uint8_t>(rng_.next() >> 63);
  }
  void restart(std::uint64_t attempt) override {
    rng_ = Xoshiro256(seed_ + attempt);
  }

 private:
  std::uint64_t seed_;
  Xoshiro256 rng_;
};

/// Constant output: the classic dead-source failure mode.
class StuckSource final : public BitSource {
 public:
  std::uint8_t next_bit() override { return 1; }
};

/// Ones with probability `p` — biased but not stuck (the APT's target).
class BiasedSource final : public BitSource {
 public:
  BiasedSource(double p, std::uint64_t seed) : p_(p), rng_(seed) {}
  std::uint8_t next_bit() override {
    return static_cast<std::uint8_t>(rng_.uniform01() < p_);
  }

 private:
  double p_;
  Xoshiro256 rng_;
};

/// A deterministic script over the raw-bit index: alternating 0101...
/// everywhere except [stuck_from, stuck_to), which is all-ones. restart()
/// keeps the index running — a power-cycle does not rewind the fault.
class ScriptSource final : public BitSource {
 public:
  ScriptSource(std::uint64_t stuck_from, std::uint64_t stuck_to)
      : stuck_from_(stuck_from), stuck_to_(stuck_to) {}
  std::uint8_t next_bit() override {
    const std::uint64_t i = index_++;
    if (i >= stuck_from_ && i < stuck_to_) return 1;
    return static_cast<std::uint8_t>(i & 1);
  }

 private:
  std::uint64_t stuck_from_;
  std::uint64_t stuck_to_;
  std::uint64_t index_ = 0;
};

DegradationPolicy test_policy() {
  DegradationPolicy policy;
  policy.claimed_min_entropy = 0.3;
  return policy;
}

}  // namespace

TEST(Resilient, HealthyUnbiasedSourceRunsCleanOverAMillionBits) {
  // The false-positive budget: alpha_log2 = 20 puts the per-window alarm
  // probability at ~2^-20, so a clean source must cross 10^6 bits with no
  // alarm and no muting. The advisory suspect state may flicker (it sits
  // only ~0.6 of the way to the cutoffs by design) but never costs a bit
  // and never escalates.
  RandomSource source(12345);
  ResilientGenerator gen(source, nullptr, test_policy());
  const auto out = gen.generate(1'000'000);

  EXPECT_EQ(out.size(), 1'000'000u);
  const ResilientStats& stats = gen.stats();
  EXPECT_EQ(stats.bits_in, 1'000'000u);
  EXPECT_EQ(stats.bits_out, 1'000'000u);
  EXPECT_EQ(stats.bits_muted, 0u);
  EXPECT_EQ(stats.rct_alarms, 0u);
  EXPECT_EQ(stats.apt_alarms, 0u);
  EXPECT_FALSE(stats.alarmed);
  for (const auto& t : gen.transitions()) {
    EXPECT_TRUE(t.to == DegradationState::healthy ||
                t.to == DegradationState::suspect)
        << to_string(t.to) << " at bit " << t.at_bit;
  }
}

TEST(Resilient, StuckSourceIsDetectedAndLatchesFailed) {
  // A dead source repeats forever: the RCT must fire at exactly its cutoff,
  // every re-lock must alarm again, and the strike budget must latch the
  // generator `failed` so it stops emitting for good.
  StuckSource source;
  const DegradationPolicy policy = test_policy();
  ResilientGenerator gen(source, nullptr, policy);
  const auto out = gen.generate(50'000);

  const ResilientStats& stats = gen.stats();
  EXPECT_TRUE(stats.alarmed);
  // Detection latency is the RCT cutoff itself — fully deterministic.
  EXPECT_EQ(stats.first_alarm_bit, trng::rct_cutoff(0.3));
  EXPECT_EQ(gen.state(), DegradationState::failed);
  EXPECT_EQ(stats.strikes, policy.max_strikes);
  EXPECT_GE(stats.rct_alarms, policy.max_strikes);
  EXPECT_FALSE(stats.recovered);
  // Only the pre-detection bits ever escaped.
  EXPECT_LT(stats.bits_out, trng::rct_cutoff(0.3));
  // generate() gives up early once failed, and stays that way.
  EXPECT_LT(out.size() + stats.bits_muted, 50'000u);
  EXPECT_TRUE(gen.generate(1'000).empty());

  // Determinism: an identical run replays the identical transition log.
  StuckSource source2;
  ResilientGenerator gen2(source2, nullptr, policy);
  (void)gen2.generate(50'000);
  ASSERT_EQ(gen2.transitions().size(), gen.transitions().size());
  for (std::size_t i = 0; i < gen.transitions().size(); ++i) {
    EXPECT_EQ(gen2.transitions()[i].from, gen.transitions()[i].from);
    EXPECT_EQ(gen2.transitions()[i].to, gen.transitions()[i].to);
    EXPECT_EQ(gen2.transitions()[i].at_bit, gen.transitions()[i].at_bit);
    EXPECT_EQ(gen2.transitions()[i].reason, gen.transitions()[i].reason);
  }
}

TEST(Resilient, BiasedSourceTripsTheAdaptiveProportionTest) {
  // 90% ones is far beyond a 0.3-bit min-entropy claim (p_max ~ 0.81) but
  // almost never repeats 68 times — the APT, not the RCT, must catch it.
  BiasedSource source(0.9, 99);
  ResilientGenerator gen(source, nullptr, test_policy());
  (void)gen.generate(20'000);

  const ResilientStats& stats = gen.stats();
  EXPECT_TRUE(stats.alarmed);
  EXPECT_GE(stats.apt_alarms, 1u);
  // Caught within the first couple of APT windows.
  EXPECT_LT(stats.first_alarm_bit, 3u * 1024u);
  EXPECT_NE(gen.state(), DegradationState::healthy);
}

TEST(Resilient, NearThresholdRunRaisesSuspectThenRecedes) {
  // A 30-bit run against a cutoff of 41 (claim 0.5) crosses the 0.7
  // suspect fraction but never alarms: the machine must flag the early
  // warning, keep emitting, and drop back to healthy when the run ends.
  ScriptSource source(100, 130);
  DegradationPolicy policy;
  policy.claimed_min_entropy = 0.5;
  policy.suspect_fraction = 0.7;
  ResilientGenerator gen(source, nullptr, policy);
  ASSERT_EQ(gen.rct_cutoff_used(), 41u);

  const auto out = gen.generate(4'096);
  EXPECT_EQ(out.size(), 4'096u);  // suspect still emits
  EXPECT_EQ(gen.state(), DegradationState::healthy);
  EXPECT_FALSE(gen.stats().alarmed);
  ASSERT_EQ(gen.transitions().size(), 2u);
  EXPECT_EQ(gen.transitions()[0].from, DegradationState::healthy);
  EXPECT_EQ(gen.transitions()[0].to, DegradationState::suspect);
  EXPECT_EQ(gen.transitions()[0].reason, "near-threshold");
  EXPECT_EQ(gen.transitions()[1].from, DegradationState::suspect);
  EXPECT_EQ(gen.transitions()[1].to, DegradationState::healthy);
}

TEST(Resilient, TransientFaultMutesThenRecoversThroughProbation) {
  // Source goes dead for a window, then comes back: mute on the alarm,
  // re-lock after the backoff, survive probation, return to healthy —
  // and the stats must record the full detection/recovery timeline.
  ScriptSource source(500, 700);
  DegradationPolicy policy;
  policy.claimed_min_entropy = 0.5;
  policy.suspect_fraction = 1.0;  // isolate the alarm path from suspect noise
  ResilientGenerator gen(source, nullptr, policy);
  const auto out = gen.generate(4'000);

  const ResilientStats& stats = gen.stats();
  EXPECT_TRUE(stats.alarmed);
  EXPECT_EQ(stats.first_alarm_bit, 500u + trng::rct_cutoff(0.5) - 1);
  EXPECT_TRUE(stats.recovered);
  EXPECT_GT(stats.recovered_bit, stats.first_alarm_bit);
  EXPECT_EQ(gen.state(), DegradationState::healthy);
  EXPECT_EQ(stats.strikes, 1u);
  EXPECT_EQ(stats.relock_attempts, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  // Muted exactly the alarming bit + backoff + probation raw bits.
  EXPECT_EQ(stats.bits_muted,
            1u + policy.backoff_bits + policy.probation_bits);
  EXPECT_EQ(out.size() + stats.bits_muted, 4'000u);

  // The recorded edges spell out the canonical recovery path.
  std::vector<DegradationState> path;
  for (const auto& t : gen.transitions()) path.push_back(t.to);
  EXPECT_EQ(path, (std::vector<DegradationState>{
                      DegradationState::muted, DegradationState::relocking,
                      DegradationState::healthy}));
}

TEST(Resilient, FailoverHandsTheStreamToTheBackupSource) {
  // Primary is permanently dead; after `failover_after_strikes` re-locks
  // the machine must switch to the (healthy) backup and fully recover.
  StuckSource primary;
  RandomSource backup(4242);
  DegradationPolicy policy = test_policy();
  policy.max_strikes = 6;  // leave room to recover after the failover
  ResilientGenerator gen(primary, &backup, policy);
  const auto out = gen.generate(30'000);

  const ResilientStats& stats = gen.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_TRUE(gen.using_backup());
  EXPECT_EQ(gen.state(), DegradationState::healthy);
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(stats.strikes, policy.failover_after_strikes);
  // After the failover the stream flows again.
  EXPECT_GT(out.size(), 10'000u);
}

TEST(Resilient, ConstructorRejectsAliasedSources) {
  RandomSource source(1);
  EXPECT_THROW(ResilientGenerator(source, &source), PreconditionError);
}

TEST(Resilient, BackoffForStrikeDoublesThenSaturates) {
  // Normal doubling: base << (strike - 1).
  EXPECT_EQ(backoff_for_strike(256, 1), 256u);
  EXPECT_EQ(backoff_for_strike(256, 2), 512u);
  EXPECT_EQ(backoff_for_strike(256, 9), 256u << 8);
  // Strike 0 (defensive): the base itself.
  EXPECT_EQ(backoff_for_strike(256, 0), 256u);

  // Regression: the pre-fix expression `base << (strike - 1)` wraps. The
  // exact overflow boundary for base = 2^62: strike 2 (shift 1) still fits
  // in 63 bits, strike 3 (shift 2) would be 2^64 -> wrapped to 0 and
  // silently un-muted the generator. It must saturate instead.
  const std::uint64_t base = std::uint64_t{1} << 62;
  EXPECT_EQ(backoff_for_strike(base, 2), std::uint64_t{1} << 63);
  EXPECT_EQ(backoff_for_strike(base, 3), UINT64_MAX);

  // A base with high bits set wraps to a small nonzero value pre-fix
  // (e.g. (2^63 + 2) << 1 = 4); saturation is required, not just "nonzero".
  EXPECT_EQ(backoff_for_strike((std::uint64_t{1} << 63) + 2, 2), UINT64_MAX);

  // shift >= 64 is outright UB pre-fix (max_strikes admits strike counts
  // past 64); the saturated value must come back even for huge strikes.
  EXPECT_EQ(backoff_for_strike(1, 65), UINT64_MAX);
  EXPECT_EQ(backoff_for_strike(256, 1000), UINT64_MAX);

  // Monotonicity across the boundary: more strikes never shorten the wait.
  std::uint64_t previous = 0;
  for (std::uint32_t strike = 1; strike <= 70; ++strike) {
    const std::uint64_t backoff = backoff_for_strike(1u << 20, strike);
    EXPECT_GE(backoff, previous) << "strike " << strike;
    previous = backoff;
  }
}

TEST(Resilient, SaturatedBackoffKeepsAlarmedGeneratorMuted) {
  // End-to-end regression at the integration boundary: a policy whose
  // backoff_bits sits at the top of the range used to wrap to zero on the
  // second strike (backoff << 1 == 0), un-muting instantly. With the
  // saturation fix the generator must still be muted after the second
  // alarm, with the full (saturated) backoff outstanding.
  StuckSource source;
  DegradationPolicy policy = test_policy();
  policy.backoff_bits = std::uint64_t{1} << 63;
  policy.max_strikes = 10;
  ResilientGenerator gen(source, nullptr, policy);

  // First alarm -> muted with backoff = 2^63. Burn a few muted bits: the
  // generator must not come anywhere near a relock.
  (void)gen.generate(rct_cutoff(0.3) + 1000);
  EXPECT_EQ(gen.state(), DegradationState::muted);
  EXPECT_EQ(gen.stats().strikes, 1u);
  EXPECT_EQ(gen.stats().relock_attempts, 0u);

  // Pre-fix, strike 2's backoff (2^63 << 1) wrapped to 0 and the next
  // muted bit triggered begin_relock immediately. We cannot reach strike 2
  // by serving 2^63 bits, so pin the arithmetic the state machine now
  // uses for that exact case instead.
  EXPECT_EQ(backoff_for_strike(policy.backoff_bits, 2), UINT64_MAX);
}

TEST(Resilient, FillBytesPacksLsbFirstAndMatchesGenerate) {
  // fill_bytes must be a pure re-chunking of generate()'s bit stream:
  // identical source + policy, LSB-first packing, no bits lost at any call
  // boundary.
  RandomSource bit_source(777);
  ResilientGenerator bit_gen(bit_source, nullptr, test_policy());
  const auto bits = bit_gen.generate(4096);
  ASSERT_EQ(bits.size(), 4096u);

  RandomSource byte_source(777);
  ResilientGenerator byte_gen(byte_source, nullptr, test_policy());
  // Deliberately awkward chunking: 7, then 13, then 64, ... byte buffers.
  std::vector<std::uint8_t> bytes;
  const std::size_t chunks[] = {7, 13, 64, 1, 256, 171};
  std::size_t chunk_index = 0;
  while (bytes.size() < 512) {
    std::uint8_t buffer[256];
    const std::size_t ask = chunks[chunk_index++ % 6];
    const std::size_t got = byte_gen.fill_bytes(
        std::span<std::uint8_t>(buffer, ask), 4096);
    bytes.insert(bytes.end(), buffer, buffer + got);
  }
  ASSERT_GE(bytes.size(), 512u);
  for (std::size_t i = 0; i < 512; ++i) {
    std::uint8_t expected = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      expected |= static_cast<std::uint8_t>(bits[i * 8 + b] << b);
    }
    ASSERT_EQ(bytes[i], expected) << "byte " << i;
  }
}

TEST(Resilient, FillBytesRespectsRawBudgetAndCarriesRemainder) {
  RandomSource source(42);
  ResilientGenerator gen(source, nullptr, test_policy());
  std::uint8_t buffer[64];
  // A 12-bit raw budget on a healthy source emits 12 bits = 1 byte + 4
  // carried bits.
  const std::size_t got =
      gen.fill_bytes(std::span<std::uint8_t>(buffer, sizeof buffer), 12);
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(gen.stats().bits_in, 12u);
  EXPECT_EQ(gen.pending_bits(), 4u);
  // The carry completes on the next call: 4 more raw bits -> one byte out.
  const std::size_t more =
      gen.fill_bytes(std::span<std::uint8_t>(buffer + 1, 1), 4);
  EXPECT_EQ(more, 1u);
  EXPECT_EQ(gen.stats().bits_in, 16u);
  EXPECT_EQ(gen.pending_bits(), 0u);
}

TEST(Resilient, FillBytesStopsEarlyOnFailedGenerator) {
  StuckSource source;
  ResilientGenerator gen(source, nullptr, test_policy());
  std::uint8_t buffer[4096];
  const std::size_t got = gen.fill_bytes(
      std::span<std::uint8_t>(buffer, sizeof buffer), 1u << 30);
  // The stuck source alarms long before a byte completes and eventually
  // latches failed; whatever escaped pre-detection is less than the cutoff.
  EXPECT_LT(got * 8 + gen.pending_bits(), rct_cutoff(0.3));
  EXPECT_EQ(gen.state(), DegradationState::failed);
  EXPECT_LT(gen.stats().bits_in, std::uint64_t{1} << 30);
  // Once failed, further calls produce nothing.
  EXPECT_EQ(gen.fill_bytes(std::span<std::uint8_t>(buffer, 16), 1024), 0u);
}

// --- Word path against bit path ---------------------------------------------
//
// generate()/fill_bytes() take a healthy generator's raw bits 64 at a time;
// generate(1) never has 64 raw bits left and so is the per-bit reference.
// Each case drives one stream four ways and demands identical emitted bits,
// stats, transition logs, health histogram bins, streaming observables and
// bits pulled from each source.

namespace {

/// A stream over (restart attempt, raw-bit index) that counts the bits it
/// hands out. The index keeps running across restarts, so a scripted fault
/// stays put in absolute bit time.
using Script = std::function<std::uint8_t(std::uint64_t, std::uint64_t)>;

class CountingSource final : public BitSource {
 public:
  /// `own_words`: fill_words() reads the script directly instead of the
  /// base class's one next_bit() per bit (what RingBitSource keeps).
  CountingSource(Script script, bool own_words)
      : script_(std::move(script)), own_words_(own_words) {}
  std::uint8_t next_bit() override { return script_(attempt_, index_++); }
  void fill_words(std::span<std::uint64_t> words) override {
    largest_batch_ = std::max(largest_batch_, words.size());
    if (!own_words_) {
      BitSource::fill_words(words);
      return;
    }
    for (std::uint64_t& word : words) {
      word = 0;
      for (unsigned i = 0; i < 64; ++i) {
        word |= std::uint64_t{script_(attempt_, index_++)} << i;
      }
    }
  }
  void restart(std::uint64_t attempt) override { attempt_ = attempt; }
  std::uint64_t pulled() const { return index_; }
  /// Most words pulled by one fill_words() call.
  std::size_t largest_batch() const { return largest_batch_; }

 private:
  Script script_;
  bool own_words_;
  std::uint64_t attempt_ = 0;
  std::uint64_t index_ = 0;
  std::size_t largest_batch_ = 0;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t attempt,
                  std::uint64_t index) {
  return SplitMix64(seed ^ (attempt * 0xA24BAED4963EE407ull) ^
                    (index * 0x9FB21C651E98DF25ull))
      .next();
}

Script random_script(std::uint64_t seed) {
  return [seed](std::uint64_t attempt, std::uint64_t index) {
    return static_cast<std::uint8_t>(mix(seed, attempt, index / 64) >>
                                     (index % 64) & 1u);
  };
}

Script biased_script(double p_one, std::uint64_t seed) {
  return [p_one, seed](std::uint64_t attempt, std::uint64_t index) {
    const double u =
        static_cast<double>(mix(seed, attempt, index) >> 11) * 0x1p-53;
    return static_cast<std::uint8_t>(u < p_one);
  };
}

/// `base` everywhere except [from, to), which is stuck at `value`.
Script stuck_script(Script base, std::uint64_t from, std::uint64_t to,
                    std::uint8_t value = 1) {
  return [base = std::move(base), from, to, value](std::uint64_t attempt,
                                                   std::uint64_t index) {
    return index >= from && index < to ? value : base(attempt, index);
  };
}

/// A fixed bit vector (0101... past its end), the same after any restart.
Script vector_script(std::vector<std::uint8_t> bits) {
  return [bits = std::move(bits)](std::uint64_t, std::uint64_t index) {
    return index < bits.size() ? bits[index]
                               : static_cast<std::uint8_t>(index & 1u);
  };
}

/// Alternating background with a run of `length` ones whose last bit is at
/// `end`; the background next to the run is zero, so the run is exact.
std::vector<std::uint8_t> alternating_with_runs(
    std::size_t size,
    const std::vector<std::pair<std::size_t, std::size_t>>& end_and_length) {
  std::vector<std::uint8_t> bits(size);
  for (std::size_t i = 0; i < size; ++i) bits[i] = i & 1u;
  for (const auto& [end, length] : end_and_length) {
    for (std::size_t i = end + 1 - length; i <= end; ++i) bits[i] = 1;
    bits[end - length] = 0;
    bits[end + 1] = 0;
  }
  return bits;
}

/// fill_bytes() calls as (buffer bytes, raw budget), taken in turn.
using FillSchedule = std::vector<std::pair<std::size_t, std::size_t>>;

struct WordCase {
  DegradationPolicy policy;
  Script primary;
  Script backup;  ///< empty: no backup source
  std::size_t raw_bits = 0;
  bool own_words = false;  ///< sources override fill_words()
  FillSchedule fill_schedule{};  ///< empty: drive()'s awkward default
};

enum class Drive { per_bit, generate_whole, generate_chunked, fill_bytes };

struct Observed {
  std::vector<std::uint8_t> bits;
  ResilientStats stats;
  std::vector<StateTransition> transitions;
  DegradationState state = DegradationState::healthy;
  std::uint64_t primary_pulled = 0;
  std::uint64_t backup_pulled = 0;
  std::size_t largest_batch = 0;
  sim::telemetry::Snapshot histograms;
  std::uint64_t stream_bits = 0;
  double stream_bias = 0.0;
  double stream_markov = 0.0;
  std::vector<double> stream_autocorrelation;
};

void append(std::vector<std::uint8_t>& to,
            const std::vector<std::uint8_t>& bits) {
  to.insert(to.end(), bits.begin(), bits.end());
}

Observed drive(const WordCase& word_case, Drive how) {
  namespace histo = sim::telemetry;
  CountingSource primary(word_case.primary, word_case.own_words);
  CountingSource backup(
      word_case.backup ? word_case.backup : random_script(0),
      word_case.own_words);
  ResilientGenerator gen(primary, word_case.backup ? &backup : nullptr,
                         word_case.policy);
  telemetry::StreamingEntropy stream;
  gen.attach_telemetry(&stream);
  const bool was_enabled = histo::enabled();
  histo::set_enabled(true);
  const histo::Snapshot before = histo::snapshot();

  Observed seen;
  const std::size_t total = word_case.raw_bits;
  const auto spent = [&] {
    return gen.stats().bits_in >= total ||
           gen.state() == DegradationState::failed;
  };
  switch (how) {
    case Drive::per_bit:
      for (std::size_t i = 0; i < total; ++i) append(seen.bits, gen.generate(1));
      break;
    case Drive::generate_whole:
      seen.bits = gen.generate(total);
      break;
    case Drive::generate_chunked: {
      const std::size_t chunks[] = {64, 1000, 63, 1, 129, 4096, 65};
      for (std::size_t k = 0; !spent(); ++k) {
        const std::size_t left = total - gen.stats().bits_in;
        append(seen.bits, gen.generate(std::min(chunks[k % 7], left)));
      }
      break;
    }
    case Drive::fill_bytes: {
      FillSchedule schedule = word_case.fill_schedule;
      if (schedule.empty()) {
        // Awkward buffers and raw budgets, so calls end on a full buffer, a
        // spent budget and a partial byte in turn.
        const std::size_t buffers[] = {1, 9, 64, 3, 200, 8};
        const std::size_t budgets[] = {4096, 63, 64, 1, 65, 777, 500};
        for (std::size_t k = 0; k < 6 * 7; ++k) {
          schedule.emplace_back(buffers[k % 6], budgets[k % 7]);
        }
      }
      std::vector<std::uint8_t> bytes;
      for (std::size_t k = 0; !spent(); ++k) {
        const auto [buffer_size, budget] = schedule[k % schedule.size()];
        std::vector<std::uint8_t> buffer(buffer_size);
        const std::size_t left = total - gen.stats().bits_in;
        const std::size_t got =
            gen.fill_bytes(buffer, std::min(budget, left));
        bytes.insert(bytes.end(), buffer.begin(), buffer.begin() + got);
      }
      for (const std::uint8_t byte : bytes) {
        for (std::size_t b = 0; b < 8; ++b) {
          seen.bits.push_back(static_cast<std::uint8_t>(byte >> b & 1u));
        }
      }
      // The carried bits are not observable yet; the reference has them.
      seen.bits.resize(seen.bits.size() + gen.pending_bits(), 2);
      break;
    }
  }

  seen.histograms = histo::snapshot().delta_since(before);
  histo::set_enabled(was_enabled);
  seen.stats = gen.stats();
  seen.transitions = gen.transitions();
  seen.state = gen.state();
  seen.primary_pulled = primary.pulled();
  seen.backup_pulled = backup.pulled();
  seen.largest_batch =
      std::max(primary.largest_batch(), backup.largest_batch());
  seen.stream_bits = stream.bits();
  seen.stream_bias = stream.bias();
  seen.stream_markov = stream.markov_min_entropy();
  seen.stream_autocorrelation = stream.window_autocorrelation();
  return seen;
}

void expect_same_stats(const ResilientStats& a, const ResilientStats& b) {
  EXPECT_EQ(a.bits_in, b.bits_in);
  EXPECT_EQ(a.bits_out, b.bits_out);
  EXPECT_EQ(a.bits_muted, b.bits_muted);
  EXPECT_EQ(a.rct_alarms, b.rct_alarms);
  EXPECT_EQ(a.apt_alarms, b.apt_alarms);
  EXPECT_EQ(a.relock_attempts, b.relock_attempts);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.alarmed, b.alarmed);
  EXPECT_EQ(a.first_alarm_bit, b.first_alarm_bit);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.recovered_bit, b.recovered_bit);
}

/// Drives `word_case` every way and checks each against the per-bit
/// reference, which it returns for case-specific coverage checks.
Observed expect_word_path_matches_bit_path(const WordCase& word_case) {
  namespace histo = sim::telemetry;
  const Observed ref = drive(word_case, Drive::per_bit);
  for (const Drive how : {Drive::generate_whole, Drive::generate_chunked,
                          Drive::fill_bytes}) {
    SCOPED_TRACE("drive " + std::to_string(static_cast<int>(how)));
    const Observed seen = drive(word_case, how);
    EXPECT_EQ(seen.bits.size(), ref.bits.size());
    std::size_t differs = ref.bits.size();
    for (std::size_t i = 0; i < std::min(seen.bits.size(), differs); ++i) {
      // 2 marks a bit fill_bytes still carries, not yet packed.
      if (seen.bits[i] != 2 && seen.bits[i] != ref.bits[i]) differs = i;
    }
    EXPECT_EQ(differs, ref.bits.size()) << "first differing emitted bit";
    expect_same_stats(seen.stats, ref.stats);
    EXPECT_EQ(seen.state, ref.state);
    EXPECT_EQ(seen.transitions.size(), ref.transitions.size());
    for (std::size_t i = 0;
         i < std::min(seen.transitions.size(), ref.transitions.size()); ++i) {
      EXPECT_EQ(seen.transitions[i].from, ref.transitions[i].from) << i;
      EXPECT_EQ(seen.transitions[i].to, ref.transitions[i].to) << i;
      EXPECT_EQ(seen.transitions[i].at_bit, ref.transitions[i].at_bit) << i;
      EXPECT_EQ(seen.transitions[i].reason, ref.transitions[i].reason) << i;
    }
    EXPECT_EQ(seen.primary_pulled, ref.primary_pulled);
    EXPECT_EQ(seen.backup_pulled, ref.backup_pulled);
    for (const histo::Histogram h :
         {histo::Histogram::rct_run_length, histo::Histogram::apt_window_ones,
          histo::Histogram::bits_between_alarms,
          histo::Histogram::relock_duration_bits}) {
      const std::size_t i = static_cast<std::size_t>(h);
      EXPECT_EQ(seen.histograms.buckets[i], ref.histograms.buckets[i])
          << histo::histogram_name(h);
      EXPECT_EQ(seen.histograms.counts[i], ref.histograms.counts[i])
          << histo::histogram_name(h);
      EXPECT_EQ(seen.histograms.sums[i], ref.histograms.sums[i])
          << histo::histogram_name(h);
    }
    EXPECT_EQ(seen.stream_bits, ref.stream_bits);
    EXPECT_EQ(seen.stream_bias, ref.stream_bias);
    EXPECT_EQ(seen.stream_markov, ref.stream_markov);
    EXPECT_EQ(seen.stream_autocorrelation, ref.stream_autocorrelation);
  }
  return ref;
}

}  // namespace

TEST(ResilientWordPath, RandomStreamMatchesBitPath) {
  WordCase word_case{test_policy(), random_script(11), {}, 40'000};
  const Observed ref = expect_word_path_matches_bit_path(word_case);
  EXPECT_EQ(ref.stats.bits_out, 40'000u);  // clean: nothing muted
  // The advisory suspect state still flickers on APT counts, which sends
  // those stretches through step().
  EXPECT_FALSE(ref.transitions.empty());
}

TEST(ResilientWordPath, BiasedStreamWithFailoverMatchesBitPath) {
  // Ones at 0.9 trip the APT; strikes escalate to a failover onto the
  // random backup, which then serves words again.
  WordCase word_case{test_policy(), biased_script(0.9, 3), random_script(4),
                     60'000};
  const Observed ref = expect_word_path_matches_bit_path(word_case);
  EXPECT_GE(ref.stats.apt_alarms, 2u);
  EXPECT_EQ(ref.stats.failovers, 1u);
  EXPECT_GT(ref.backup_pulled, 10'000u);
}

TEST(ResilientWordPath, StuckStreamsMatchBitPath) {
  // Stuck from the first bit: every relock fails until the latch.
  {
    WordCase word_case{test_policy(), stuck_script(random_script(5), 0, ~0ull),
                       {}, 20'000};
    const Observed ref = expect_word_path_matches_bit_path(word_case);
    EXPECT_EQ(ref.state, DegradationState::failed);
  }
  // A transient stuck-at fault, muted, relocked and recovered.
  {
    WordCase word_case{test_policy(),
                       stuck_script(random_script(6), 3000, 3300, 0), {},
                       20'000};
    const Observed ref = expect_word_path_matches_bit_path(word_case);
    EXPECT_EQ(ref.stats.rct_alarms, 1u);
    EXPECT_TRUE(ref.stats.recovered);
  }
}

TEST(ResilientWordPath, RunsAcrossWordBoundariesMatchBitPath) {
  // H = 1: RCT cutoff 21, suspect at run 13. Runs one short of and at
  // each level, inside a word and straddling word edges.
  DegradationPolicy policy;
  policy.claimed_min_entropy = 1.0;
  ASSERT_EQ(rct_cutoff(1.0), 21u);
  const std::vector<std::pair<std::size_t, std::size_t>> runs = {
      {140, 12}, {300, 12}, {390, 13}, {700, 13}, {1000, 20}, {1290, 20},
      {5000, 21}, {9000, 12}, {9500, 64}};
  const std::vector<std::uint8_t> bits = alternating_with_runs(12'000, runs);
  for (const double suspect : {0.6, 1.0}) {
    SCOPED_TRACE(suspect);
    policy.suspect_fraction = suspect;
    WordCase word_case{policy, vector_script(bits), {}, 12'000};
    const Observed ref = expect_word_path_matches_bit_path(word_case);
    EXPECT_EQ(ref.stats.first_alarm_bit, 5001u);
  }
  // H = 0.3 (cutoff 68): runs longer than a word, across two boundaries.
  const std::vector<std::uint8_t> long_runs =
      alternating_with_runs(8000, {{1100, 40}, {2000, 67}, {4000, 68}});
  WordCase word_case{test_policy(), vector_script(long_runs), {}, 8000};
  const Observed ref = expect_word_path_matches_bit_path(word_case);
  EXPECT_EQ(ref.stats.first_alarm_bit, 4001u);
}

TEST(ResilientWordPath, AlarmOnFirstAndLastBitOfAWordMatchesBitPath) {
  // suspect_fraction 1 keeps the generator healthy up to the alarm, so the
  // alarming word is pulled whole and must fall back to step().
  DegradationPolicy policy = test_policy();
  policy.suspect_fraction = 1.0;
  const std::size_t cutoff = rct_cutoff(0.3);
  for (const std::size_t end : {std::size_t{64 * 40}, std::size_t{64 * 40 + 63}}) {
    SCOPED_TRACE(end);
    WordCase word_case{policy,
                       vector_script(alternating_with_runs(
                           10'000, {{end, cutoff}})),
                       {},
                       10'000};
    const Observed ref = expect_word_path_matches_bit_path(word_case);
    EXPECT_EQ(ref.stats.rct_alarms, 1u);
    EXPECT_EQ(ref.stats.first_alarm_bit, end + 1);
  }
}

TEST(ResilientWordPath, AptAlarmAtAWindowEdgeMatchesBitPath) {
  // Window 0 holds exactly `cutoff` ones (reference included) in its first
  // 1023 samples and a one in its last: the alarm fires on the window's
  // final bit. Ones are spread so no run nears the RCT cutoff.
  DegradationPolicy policy = test_policy();
  policy.suspect_fraction = 1.0;
  const std::size_t window = policy.apt_window;
  const std::size_t cutoff = apt_cutoff(0.3, window);
  const std::size_t zeros = window - 1 - cutoff;
  std::vector<std::uint8_t> bits(8000);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = i & 1u;
  std::fill(bits.begin(), bits.begin() + window, 1);
  for (std::size_t k = 0; k < zeros; ++k) bits[1 + k * (window - 2) / zeros] = 0;
  bits[window - 1] = 1;
  ASSERT_EQ(std::count(bits.begin(), bits.begin() + window - 1, 1), cutoff);
  WordCase word_case{policy, vector_script(bits), {}, 8000};
  const Observed ref = expect_word_path_matches_bit_path(word_case);
  EXPECT_EQ(ref.stats.apt_alarms, 1u);
  EXPECT_EQ(ref.stats.first_alarm_bit, window);
}

TEST(ResilientWordPath, AptWindowsOffTheWordGridMatchBitPath) {
  for (const std::size_t window : {std::size_t{100}, std::size_t{1000}}) {
    SCOPED_TRACE(window);
    DegradationPolicy policy = test_policy();
    policy.apt_window = window;
    WordCase random_case{policy, random_script(21), {}, 30'000};
    expect_word_path_matches_bit_path(random_case);
    WordCase biased_case{policy, biased_script(0.9, 22), random_script(23),
                         30'000};
    const Observed ref = expect_word_path_matches_bit_path(biased_case);
    // A 100-sample window clamps the cutoff to the window: it cannot alarm.
    if (window == 1000) {
      EXPECT_GE(ref.stats.apt_alarms, 1u);
    }
  }
}

TEST(ResilientWordPath, ShortBackoffAndSingleStrikeMatchBitPath) {
  // backoff_bits 16 doubles to >= 64 only at the third strike: the word
  // path stays shut until then and opens after.
  DegradationPolicy short_backoff = test_policy();
  short_backoff.backoff_bits = 16;
  short_backoff.max_strikes = 5;
  short_backoff.probation_bits = 128;
  Script faults = stuck_script(
      stuck_script(stuck_script(random_script(31), 2000, 2100), 6000, 6100),
      10'000, 10'100);
  WordCase backoff_case{short_backoff, faults, {}, 20'000};
  const Observed backoff_ref = expect_word_path_matches_bit_path(backoff_case);
  EXPECT_EQ(backoff_ref.stats.rct_alarms, 3u);
  EXPECT_EQ(backoff_ref.state, DegradationState::healthy);

  // max_strikes 1: the first alarm latches `failed`, so no word is pulled
  // ahead of it.
  DegradationPolicy one_strike = test_policy();
  one_strike.max_strikes = 1;
  WordCase strike_case{one_strike, stuck_script(random_script(32), 3000, ~0ull),
                       random_script(33), 20'000};
  const Observed strike_ref = expect_word_path_matches_bit_path(strike_case);
  EXPECT_EQ(strike_ref.state, DegradationState::failed);
  EXPECT_EQ(strike_ref.backup_pulled, 0u);
}

TEST(FaultScenario, ValidateRejectsMalformedWindows) {
  FaultScenario scenario;
  scenario.events.push_back(
      FaultEvent::tone(Time::from_us(2.0), Time::from_us(1.0), 0.1, 1e3));
  EXPECT_THROW(scenario.validate(), PreconditionError);  // stop <= start

  scenario.events.clear();
  scenario.events.push_back(
      FaultEvent::tone(Time::from_us(1.0), Time::from_us(2.0), 0.1, 0.0));
  EXPECT_THROW(scenario.validate(), PreconditionError);  // tone w/o frequency

  scenario.events.clear();
  scenario.events.push_back(
      FaultEvent::drift(Time::from_us(-1.0), Time::from_us(2.0), 10.0));
  EXPECT_THROW(scenario.validate(), PreconditionError);  // negative start

  scenario.events.clear();
  scenario.events.push_back(
      FaultEvent::brownout(Time::from_us(1.0), Time::from_us(2.0), 0.1));
  EXPECT_NO_THROW(scenario.validate());
}

TEST(FaultScenario, EndAndSupplyOnlyProjection) {
  FaultScenario scenario;
  scenario.name = "mixed";
  scenario.events.push_back(
      FaultEvent::tone(Time::from_us(1.0), Time::from_us(5.0), 0.1, 2e3));
  scenario.events.push_back(
      FaultEvent::stuck(Time::from_us(2.0), Time::from_us(9.0), 3));
  scenario.events.push_back(
      FaultEvent::kick(Time::from_us(3.0), Time::from_us(4.0), 50.0, 8));
  EXPECT_EQ(scenario.end(), Time::from_us(9.0));
  EXPECT_TRUE(scenario.has_supply_faults());
  EXPECT_TRUE(scenario.has_delay_faults());

  // The backup ring on the same die sees the rail, not the stage defects.
  const FaultScenario shared = scenario.supply_only();
  ASSERT_EQ(shared.events.size(), 1u);
  EXPECT_EQ(shared.events[0].kind, FaultKind::supply_tone);
  EXPECT_EQ(shared.name, "mixed/supply-only");
  EXPECT_FALSE(shared.has_delay_faults());

  const FaultScenario quiet;
  EXPECT_EQ(quiet.end(), Time::zero());
  EXPECT_EQ(quiet.name, "quiet");
  EXPECT_NO_THROW(quiet.validate());
}

TEST(FaultScenario, BrownoutIsANegativeSupplyStep) {
  const FaultEvent e =
      FaultEvent::brownout(Time::from_us(1.0), Time::from_us(2.0), 0.15);
  EXPECT_EQ(e.kind, FaultKind::supply_step);
  EXPECT_DOUBLE_EQ(e.magnitude, -0.15);
  EXPECT_TRUE(noise::is_supply_fault(e.kind));
  EXPECT_FALSE(noise::is_supply_fault(FaultKind::stuck_stage));
  EXPECT_TRUE(e.active_at(Time::from_us(1.5)));
  EXPECT_FALSE(e.active_at(Time::from_us(2.0)));  // [start, stop)
}

TEST(RingBitSource, IdenticalConfigsReplayIdenticalBits) {
  // The physics adapter inherits the simulator's determinism contract:
  // same spec, same seed, same scenario => the same sampled bit stream.
  core::RingSourceConfig config;
  config.spec = core::RingSpec::iro(9);
  config.chunk_bits = 64;
  config.seed = 7;
  FaultScenario scenario;
  scenario.name = "step";
  scenario.events.push_back(
      FaultEvent::delay_step(Time::from_us(10.0), Time::from_us(20.0), 40.0));

  core::RingBitSource a(config, core::cyclone_iii(), scenario);
  core::RingBitSource b(config, core::cyclone_iii(), scenario);
  std::vector<std::uint8_t> bits_a, bits_b;
  for (int i = 0; i < 200; ++i) bits_a.push_back(a.next_bit());
  for (int i = 0; i < 200; ++i) bits_b.push_back(b.next_bit());
  EXPECT_EQ(bits_a, bits_b);
  // 200 bits x 250 ns crosses the window start: the activation is counted.
  EXPECT_EQ(a.injector().activations(), 1u);
  EXPECT_EQ(b.injector().activations(), 1u);

  // A restart re-locks with fresh noise: the stream may differ, but the
  // adapter must keep serving bits and keep absolute time moving forward.
  const Time before = a.now();
  a.restart(1);
  for (int i = 0; i < 16; ++i) (void)a.next_bit();
  EXPECT_GT(a.now(), before);
}

// --- Batched pulls ----------------------------------------------------------
//
// A healthy generator pulls k = min(backoff after one more strike / 64,
// raw budget left / 64, output room / 64, 8) words per fill_words() call.
// Each case runs with sources that keep the base class's per-bit
// fill_words() (as RingBitSource does) and with sources that override it.

TEST(ResilientWordPath, BatchOfBackoffWordsMatchesBitPath) {
  for (const std::uint64_t backoff : {64u, 128u, 192u, 256u}) {
    for (const bool own_words : {false, true}) {
      SCOPED_TRACE("backoff " + std::to_string(backoff) +
                   (own_words ? " own words" : " per-bit words"));
      DegradationPolicy policy = test_policy();
      policy.backoff_bits = backoff;
      policy.max_strikes = 4;
      policy.probation_bits = 256;
      // Two stuck-at faults: the second relock fails over to the backup.
      const Script faults = stuck_script(
          stuck_script(random_script(41), 3000, 3100), 9000, 9100, 0);
      const WordCase fault_case{policy, faults, random_script(42), 20'000,
                                own_words};
      const Observed ref = expect_word_path_matches_bit_path(fault_case);
      EXPECT_EQ(ref.stats.rct_alarms, 2u);
      EXPECT_EQ(ref.stats.failovers, 1u);
      EXPECT_GT(ref.backup_pulled, 0u);

      const WordCase clean_case{policy, random_script(43), {}, 20'000,
                                own_words};
      expect_word_path_matches_bit_path(clean_case);
      EXPECT_EQ(drive(clean_case, Drive::generate_whole).largest_batch,
                backoff / 64);
    }
  }
}

TEST(ResilientWordPath, AlarmInTheFirstAndLastWordOfABatchMatchesBitPath) {
  // Backoff 256: while healthy from bit 0, generate() pulls 4-word batches
  // on a 256-bit grid. suspect_fraction 1 keeps the generator healthy up to
  // the alarm. After the restart the source serves a different stream, so
  // a restart placed a bit early or late changes the bits.
  DegradationPolicy policy = test_policy();
  policy.suspect_fraction = 1.0;
  ASSERT_EQ(policy.backoff_bits, 256u);
  const std::size_t cutoff = rct_cutoff(0.3);
  const std::size_t batch_start = 256 * 20;
  for (const std::size_t end :
       {batch_start, batch_start + 10, batch_start + 64 * 3 + 50,
        batch_start + 255}) {
    for (const bool own_words : {false, true}) {
      SCOPED_TRACE("run end " + std::to_string(end) +
                   (own_words ? " own words" : " per-bit words"));
      const Script before = vector_script(
          alternating_with_runs(batch_start + 1024, {{end, cutoff}}));
      const Script after = random_script(51);
      const Script script = [before, after](std::uint64_t attempt,
                                            std::uint64_t index) {
        return attempt == 0 ? before(attempt, index) : after(attempt, index);
      };
      const WordCase word_case{policy, script, {}, 12'000, own_words};
      const Observed ref = expect_word_path_matches_bit_path(word_case);
      EXPECT_EQ(ref.stats.rct_alarms, 1u);
      EXPECT_EQ(ref.stats.first_alarm_bit, end + 1);
      // The relock comes 256 muted bits after the alarming bit: for an
      // alarm on a batch's first bit, on the first bit after the batch.
      ASSERT_GE(ref.transitions.size(), 2u);
      EXPECT_EQ(ref.transitions[1].to, DegradationState::relocking);
      EXPECT_EQ(ref.transitions[1].at_bit, end + 1 + 256);
      EXPECT_TRUE(ref.stats.recovered);
    }
  }
}

TEST(ResilientWordPath, BudgetAndRoomEndingMidBatchMatchBitPath) {
  // fill_bytes() calls whose raw budget (389 = 6 words + 5 bits, 130) or
  // output room (20 and 13 bytes) ends inside a 4-word batch.
  const FillSchedule schedule = {
      {200, 64 * 6 + 5}, {20, 4096}, {13, 4096}, {200, 130}, {3, 4096}};
  for (const bool own_words : {false, true}) {
    SCOPED_TRACE(own_words ? "own words" : "per-bit words");
    DegradationPolicy policy = test_policy();
    policy.max_strikes = 5;
    const Script faults = stuck_script(
        stuck_script(random_script(61), 4000, 4100), 12'000, 12'100, 0);
    WordCase word_case{policy, faults, random_script(62), 30'000, own_words,
                       schedule};
    const Observed ref = expect_word_path_matches_bit_path(word_case);
    EXPECT_EQ(ref.stats.rct_alarms, 2u);
    EXPECT_TRUE(ref.stats.recovered);
    EXPECT_GT(drive(word_case, Drive::fill_bytes).largest_batch, 1u);
  }
}
