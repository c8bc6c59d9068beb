// Hand-counted boundary vectors for the SP 800-90B online health tests —
// the window/off-by-one audit the resilience layer depends on. Each test
// spells out the exact sample-by-sample count so the cutoff conventions
// documented in trng/health.hpp cannot drift silently:
//
//  * RCT (§4.4.1): a run of exactly `cutoff` identical bits alarms on its
//    last bit; `cutoff - 1` never alarms.
//  * APT (§4.4.2): the alarm fires at `cutoff + 1` occurrences of the
//    window's reference bit (the stored cutoff is 90B's C - 1; the strict
//    comparison supplies the +1); a window is exactly `window` samples; and
//    reset() after an alarm discards the triggering bit so it is never
//    double-counted in the next window.
//
// The word-wide word_clear()/feed_word() pair is checked against 64 feed()
// calls on run-heavy random streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "trng/health.hpp"

using namespace ringent::trng;
using ringent::Xoshiro256;

namespace {

TEST(HealthBoundary, RctRunOfCutoffMinusOneNeverAlarms) {
  // cutoff = 4: runs of 3 equal bits, then a flip, forever.
  RepetitionCountTest rct(4);
  for (int block = 0; block < 32; ++block) {
    const std::uint8_t bit = static_cast<std::uint8_t>(block & 1);
    EXPECT_TRUE(rct.feed(bit));
    EXPECT_TRUE(rct.feed(bit));
    EXPECT_TRUE(rct.feed(bit));  // run_ == 3 == cutoff - 1
    EXPECT_EQ(rct.current_run(), 3u);
  }
  EXPECT_FALSE(rct.alarmed());
}

TEST(HealthBoundary, RctRunOfExactlyCutoffAlarmsOnLastBit) {
  // Hand count, cutoff = 4: feed 0 (run 1), 0 (2), 0 (3) — all pass —
  // then the 4th 0 reaches the cutoff and must alarm.
  RepetitionCountTest rct(4);
  EXPECT_TRUE(rct.feed(0));
  EXPECT_TRUE(rct.feed(0));
  EXPECT_TRUE(rct.feed(0));
  EXPECT_FALSE(rct.alarmed());
  EXPECT_FALSE(rct.feed(0));  // bit #4 of the run: alarm, not one later
  EXPECT_TRUE(rct.alarmed());
  // Latched: even a flip keeps reporting failure until reset().
  EXPECT_FALSE(rct.feed(1));
  rct.reset();
  EXPECT_TRUE(rct.feed(0));
  EXPECT_EQ(rct.current_run(), 1u);
}

TEST(HealthBoundary, RctRunInterruptedJustBeforeCutoffRestartsCount) {
  RepetitionCountTest rct(3);
  EXPECT_TRUE(rct.feed(1));
  EXPECT_TRUE(rct.feed(1));        // run 2 == cutoff - 1
  EXPECT_TRUE(rct.feed(0));        // flip: run restarts at 1
  EXPECT_TRUE(rct.feed(1));        // run 1 again
  EXPECT_TRUE(rct.feed(1));        // run 2
  EXPECT_FALSE(rct.feed(1));       // run 3 == cutoff: alarm
}

TEST(HealthBoundary, AptAlarmsAtCutoffPlusOneOccurrences) {
  // window = 64, cutoff = 40. Reference bit = first sample (1, count 1).
  // Feed 39 more ones -> count 40 == cutoff: still passing. The 41st
  // occurrence must be the alarm.
  AdaptiveProportionTest apt(40, 64);
  EXPECT_TRUE(apt.feed(1));  // opens window, count = 1
  for (int i = 0; i < 39; ++i) {
    EXPECT_TRUE(apt.feed(1)) << "occurrence " << (i + 2);
  }
  EXPECT_EQ(apt.current_count(), 40u);
  EXPECT_FALSE(apt.alarmed());
  EXPECT_FALSE(apt.feed(1));  // occurrence 41 = cutoff + 1: alarm
  EXPECT_TRUE(apt.alarmed());
}

TEST(HealthBoundary, AptExactlyCutoffInFullWindowPasses) {
  // window = 64, cutoff = 40: 40 ones (reference) interleaved with 24
  // zeros — a full window carrying exactly `cutoff` occurrences — then a
  // fresh window. No alarm at any point.
  AdaptiveProportionTest apt(40, 64);
  EXPECT_TRUE(apt.feed(1));  // reference = 1, count 1, index 1
  for (int i = 0; i < 39; ++i) EXPECT_TRUE(apt.feed(1));
  for (int i = 0; i < 24; ++i) EXPECT_TRUE(apt.feed(0));
  EXPECT_EQ(apt.window_index(), 0u);  // 64 samples consumed: window closed
  EXPECT_FALSE(apt.alarmed());
  // Next sample opens a new window with a new reference.
  EXPECT_TRUE(apt.feed(0));
  EXPECT_EQ(apt.current_count(), 1u);
  EXPECT_EQ(apt.window_index(), 1u);
}

TEST(HealthBoundary, AptWindowIsExactlyWindowSamples) {
  // Count window positions across two windows: indices run 1..63 then wrap
  // to 0, and the 65th sample is position 1 of window two.
  AdaptiveProportionTest apt(64, 64);  // cutoff = window: alarm unreachable
  apt.feed(1);
  for (int i = 1; i < 64; ++i) apt.feed(0);
  EXPECT_EQ(apt.window_index(), 0u);
  apt.feed(0);  // window 2, sample 1 (new reference 0)
  EXPECT_EQ(apt.window_index(), 1u);
  EXPECT_EQ(apt.current_count(), 1u);
}

TEST(HealthBoundary, AptResetDoesNotDoubleCountTriggeringBit) {
  // Drive to an alarm, reset (what ResilientGenerator::begin_relock does),
  // and verify the next window starts from scratch: the triggering bit is
  // gone, the new window's count is 1 after its first sample.
  AdaptiveProportionTest apt(40, 64);
  apt.feed(1);
  for (int i = 0; i < 39; ++i) apt.feed(1);
  EXPECT_FALSE(apt.feed(1));  // alarm at occurrence 41
  apt.reset();
  EXPECT_FALSE(apt.alarmed());
  EXPECT_EQ(apt.current_count(), 0u);
  EXPECT_EQ(apt.window_index(), 0u);
  EXPECT_TRUE(apt.feed(1));
  EXPECT_EQ(apt.current_count(), 1u);  // not 2: no carry-over
}

TEST(HealthBoundary, CutoffFormulasMatchHandComputation) {
  // rct_cutoff: C = 1 + ceil(alpha / H). H = 0.5, alpha = 20 -> 1 + 40.
  EXPECT_EQ(rct_cutoff(0.5, 20.0), 41u);
  // H = 1 (ideal source): 1 + 20.
  EXPECT_EQ(rct_cutoff(1.0, 20.0), 21u);
  // apt cutoff is clamped into [window/2, window].
  const std::uint32_t cutoff = apt_cutoff(1.0, 1024, 20.0);
  EXPECT_GE(cutoff, 512u);
  EXPECT_LE(cutoff, 1024u);
}

/// Bits in runs of 1..max_run identical values, so runs cross word edges.
class RunnyBits {
 public:
  RunnyBits(std::uint64_t seed, std::uint32_t max_run)
      : rng_(seed), max_run_(max_run) {}
  std::uint8_t next() {
    if (left_ == 0) {
      value_ ^= 1u;
      left_ = 1 + static_cast<std::uint32_t>(rng_.next() % max_run_);
    }
    --left_;
    return value_;
  }
  std::uint64_t word() {
    std::uint64_t w = 0;
    for (unsigned i = 0; i < 64; ++i) w |= std::uint64_t{next()} << i;
    return w;
  }

 private:
  Xoshiro256 rng_;
  std::uint32_t max_run_;
  std::uint32_t left_ = 0;
  std::uint8_t value_ = 0;
};

TEST(HealthWords, SwarPopcountMatchesStdPopcount) {
  // The APT word count; a caller built for POPCNT compiles it to one
  // instruction, a baseline caller runs this code.
  Xoshiro256 rng(0x9C7);
  for (const std::uint64_t word : {std::uint64_t{0}, ~std::uint64_t{0},
                                   std::uint64_t{1} << 63, std::uint64_t{1}}) {
    EXPECT_EQ(detail::word_popcount(word),
              static_cast<std::uint32_t>(std::popcount(word)));
  }
  for (int trial = 0; trial < 10'000; ++trial) {
    // Sparse, dense and uniform words.
    const std::uint64_t a = rng.next(), b = rng.next();
    for (const std::uint64_t word : {a, a & b, a | b}) {
      ASSERT_EQ(detail::word_popcount(word),
                static_cast<std::uint32_t>(std::popcount(word)))
          << word;
    }
  }
}

TEST(HealthWords, RctWordClearAndFeedWordMatchSixtyFourFeeds) {
  Xoshiro256 rng(0x5C7);
  int committed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto cutoff = static_cast<std::uint32_t>(2 + rng.next() % 120);
    RunnyBits stream(rng.next(), 1 + static_cast<std::uint32_t>(rng.next() % 90));
    RepetitionCountTest by_bit(cutoff);
    for (std::uint64_t n = rng.next() % 200; n > 0; --n) by_bit.feed(stream.next());
    if (by_bit.alarmed()) continue;
    RepetitionCountTest by_word = by_bit;
    const std::uint64_t word = stream.word();
    const auto limit = static_cast<std::uint32_t>(1 + rng.next() % cutoff);
    std::uint32_t peak = 0;
    for (unsigned i = 0; i < 64; ++i) {
      by_bit.feed(static_cast<std::uint8_t>(word >> i & 1u));
      peak = std::max(peak, by_bit.current_run());
    }
    ASSERT_EQ(by_word.word_clear(word, limit), peak < limit)
        << "trial " << trial;
    if (peak >= limit) continue;
    ++committed;
    by_word.feed_word(word);
    // Same run now, and the same last value: the next bits agree.
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(by_word.current_run(), by_bit.current_run()) << trial;
      const std::uint8_t bit = stream.next();
      ASSERT_EQ(by_word.feed(bit), by_bit.feed(bit)) << trial;
    }
  }
  EXPECT_GT(committed, 500);
}

TEST(HealthWords, AptWordClearAndFeedWordMatchSixtyFourFeeds) {
  Xoshiro256 rng(0xA97);
  const std::size_t windows[] = {64, 100, 128, 1000, 1024};
  int committed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t window = windows[rng.next() % 5];
    const auto cutoff =
        static_cast<std::uint32_t>(window / 2 + rng.next() % (window / 2 + 1));
    RunnyBits stream(rng.next(), 1 + static_cast<std::uint32_t>(rng.next() % 8));
    AdaptiveProportionTest by_bit(cutoff, window);
    for (std::uint64_t n = rng.next() % 3000; n > 0; --n) by_bit.feed(stream.next());
    if (by_bit.alarmed()) continue;
    AdaptiveProportionTest by_word = by_bit;
    const std::uint64_t word = stream.word();
    const auto limit = static_cast<std::uint32_t>(1 + rng.next() % (cutoff + 1));
    const bool inside = by_bit.window_index() + 64 <= window;
    std::uint32_t peak = 0;
    for (unsigned i = 0; i < 64; ++i) {
      by_bit.feed(static_cast<std::uint8_t>(word >> i & 1u));
      peak = std::max(peak, by_bit.current_count());
    }
    ASSERT_EQ(by_word.word_clear(word, limit), inside && peak < limit)
        << "trial " << trial;
    if (!inside || peak >= limit) continue;
    ++committed;
    by_word.feed_word(word);
    for (int i = 0; i < 300; ++i) {
      ASSERT_EQ(by_word.current_count(), by_bit.current_count()) << trial;
      ASSERT_EQ(by_word.window_index(), by_bit.window_index()) << trial;
      const std::uint8_t bit = stream.next();
      ASSERT_EQ(by_word.feed(bit), by_bit.feed(bit)) << trial;
    }
  }
  EXPECT_GT(committed, 500);
}

}  // namespace
