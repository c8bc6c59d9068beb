// On-line health tests for an operating entropy source (NIST SP 800-90B
// §4.4 style): the continuous checks a fielded TRNG runs on every raw bit,
// as opposed to the off-line batteries in trng/fips.hpp and trng/nist.hpp.
//
//  * Repetition Count Test (RCT): alarm when the same value repeats C times,
//    C chosen from the claimed min-entropy H so that a healthy source
//    false-alarms with probability ~2^-W per sample window.
//  * Adaptive Proportion Test (APT): alarm when one value occupies more than
//    C slots of a W-sample window.
//
// Both are cheap enough for per-sample hardware and catch the failure modes
// the paper's attack discussion worries about: a ring locking to a supply
// tone (long repeats / skewed proportions) or dying entirely (constant
// output). examples/attack_demo and the TRNG examples use them as the
// "would a fielded generator notice?" check.
//
// Each test also takes 64 samples at a time (word_clear() then feed_word(),
// the healthy fast path of trng/resilient.hpp). Those word methods are
// defined inline below so the caller's word loop makes no calls per word.
// The APT's word count is a SWAR popcount: a caller compiled with POPCNT
// gets one instruction, a baseline caller inline code (ResilientGenerator
// keeps both and chooses once per process).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

namespace ringent::trng {

/// SP 800-90B cutoff for the repetition count test: the smallest C with
/// 2^(-H (C-1)) <= 2^-alpha_log2, i.e. C = 1 + ceil(alpha_log2 / H).
std::uint32_t rct_cutoff(double min_entropy_per_bit, double alpha_log2 = 20.0);

class RepetitionCountTest {
 public:
  /// `cutoff` >= 2, e.g. from rct_cutoff().
  explicit RepetitionCountTest(std::uint32_t cutoff);

  /// Feed one bit; returns false when the alarm fires (and stays latched).
  ///
  /// Boundary convention (pinned by tests/test_health.cpp hand-counted
  /// vectors): a run of exactly `cutoff` identical samples alarms on its
  /// last sample; a run of `cutoff - 1` never alarms. This matches SP
  /// 800-90B §4.4.1, where the counter B starts at 1 on the first sample
  /// and the test fails as soon as B >= C.
  bool feed(std::uint8_t bit);

  /// Word-wide check for the healthy fast path: true when feeding the 64
  /// bits of `word` (LSB first) would keep the run below `limit` at every
  /// one of them, so no alarm (limit <= cutoff) can fire inside the word.
  /// Runs that continue from the previous word are counted from
  /// current_run(); runs inside the word are found by shift-and doubling.
  bool word_clear(std::uint64_t word, std::uint32_t limit) const;

  /// Commit a word word_clear() accepted: leaves the test exactly as 64
  /// feed() calls would.
  void feed_word(std::uint64_t word);

  bool alarmed() const { return alarmed_; }
  std::uint32_t current_run() const { return run_; }
  std::uint32_t cutoff() const { return cutoff_; }
  void reset();

 private:
  std::uint32_t cutoff_;
  std::uint32_t run_ = 0;
  std::uint8_t last_ = 2;  // sentinel: no sample yet
  bool alarmed_ = false;
};

/// SP 800-90B binary APT cutoff (critical binomial value at 2^-alpha_log2)
/// computed from the claimed per-bit min-entropy; conservative normal
/// approximation with continuity correction, clamped to [W/2, W].
std::uint32_t apt_cutoff(double min_entropy_per_bit, std::size_t window = 1024,
                         double alpha_log2 = 20.0);

class AdaptiveProportionTest {
 public:
  AdaptiveProportionTest(std::uint32_t cutoff, std::size_t window = 1024);

  /// Feed one bit; returns false once alarmed (latched).
  ///
  /// Boundary conventions (pinned by tests/test_health.cpp):
  ///  * A window is exactly `window` samples: the sample at index 0 becomes
  ///    the reference (count = 1) and samples 1..window-1 are compared
  ///    against it; the sample after that opens a fresh window with a new
  ///    reference.
  ///  * The alarm fires when the reference count EXCEEDS `cutoff`, i.e. at
  ///    `cutoff + 1` occurrences. SP 800-90B §4.4.2 stores C = 1 +
  ///    critbinom(W, p, 1 - alpha) and fails at count >= C; here the "+1"
  ///    lives in the strict comparison instead of the stored cutoff — the
  ///    two formulations alarm on exactly the same sample.
  ///  * After an alarm the test is latched; callers restart via reset(),
  ///    which discards the triggering bit's window entirely, so that bit is
  ///    never double-counted in the next window (the resilience layer
  ///    relies on this when it re-arms after a relock).
  bool feed(std::uint8_t bit);

  /// Word-wide check for the healthy fast path: true when the 64 bits of
  /// `word` (LSB first) lie inside one window (a word may open or close a
  /// window but not straddle an edge) and the reference count after them,
  /// its maximum over the word, stays below `limit`.
  bool word_clear(std::uint64_t word, std::uint32_t limit) const;

  /// Commit a word word_clear() accepted: leaves the test exactly as 64
  /// feed() calls would (popcount against the window's reference value).
  void feed_word(std::uint64_t word);

  bool alarmed() const { return alarmed_; }
  /// Occurrences of the window's reference value so far (degradation
  /// policies compare this against the cutoff for an early warning).
  std::uint32_t current_count() const { return count_; }
  /// Position within the current window [0, window).
  std::size_t window_index() const { return index_; }
  std::uint32_t cutoff() const { return cutoff_; }
  void reset();

 private:
  std::uint32_t cutoff_;
  std::size_t window_;
  std::size_t index_ = 0;   // position within the current window
  std::uint8_t ref_ = 2;    // first sample of the window
  std::uint32_t count_ = 0;
  bool alarmed_ = false;
};

struct HealthReport {
  bool rct_pass = false;
  bool apt_pass = false;
  std::uint32_t rct_cutoff_used = 0;
  std::uint32_t apt_cutoff_used = 0;
  bool pass() const { return rct_pass && apt_pass; }
};

/// Run both tests over a recorded sequence with cutoffs derived from the
/// claimed min-entropy (the value an entropy-source datasheet would state).
HealthReport run_health_tests(std::span<const std::uint8_t> bits,
                              double claimed_min_entropy_per_bit);

namespace detail {

/// True when `bits` holds `length` (1..64) consecutive set bits.
inline bool has_run_of_ones(std::uint64_t bits, std::uint32_t length) {
  // After each step bit i is set iff bits i..i+covered-1 all are; the zeros
  // shifted in at the top keep runs from wrapping past bit 63.
  for (std::uint32_t covered = 1; covered < length && bits != 0;) {
    const std::uint32_t shift = std::min(covered, length - covered);
    bits &= bits >> shift;
    covered += shift;
  }
  return bits != 0;
}

/// Set bits of `x` as the SWAR sum: inline code and no libgcc call on a
/// baseline x86-64 build, and one POPCNT instruction in a caller compiled
/// for it (GCC and Clang recognise the idiom).
constexpr std::uint32_t word_popcount(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ull) >> 56);
}

/// Samples of `word` equal to `ref`.
inline std::uint32_t matches(std::uint64_t word, std::uint8_t ref) {
  return word_popcount(ref == 1 ? word : ~word);
}

}  // namespace detail

inline bool RepetitionCountTest::word_clear(std::uint64_t word,
                                            std::uint32_t limit) const {
  if (alarmed_ || limit <= 1) return false;
  if (last_ <= 1) {
    // The leading bits that repeat the last sample extend the current run.
    const auto lead = static_cast<std::uint32_t>(
        std::countr_one(last_ == 1 ? word : ~word));
    if (lead > 0 && std::uint64_t{run_} + lead >= limit) return false;
    if (lead == 64) return true;
  }
  // Every other run starts inside the word and is at most 64 long. Bit i
  // of `same` (i < 63) says samples i and i + 1 are equal, so a run of
  // `limit` equal samples is a run of limit - 1 set bits in it.
  if (limit > 64) return true;
  const std::uint64_t same = ~(word ^ (word >> 1)) & (~std::uint64_t{0} >> 1);
  return !detail::has_run_of_ones(same, limit - 1);
}

inline void RepetitionCountTest::feed_word(std::uint64_t word) {
  const auto top = static_cast<std::uint8_t>(word >> 63);
  const auto tail =
      static_cast<std::uint32_t>(std::countl_one(top == 1 ? word : ~word));
  run_ = tail == 64 && last_ == top ? run_ + 64 : tail;
  last_ = top;
}

inline bool AdaptiveProportionTest::word_clear(std::uint64_t word,
                                               std::uint32_t limit) const {
  if (alarmed_ || index_ + 64 > window_) return false;
  // A word that opens the window takes its first bit as the reference.
  const std::uint32_t count =
      index_ == 0
          ? detail::matches(word, static_cast<std::uint8_t>(word & 1u))
          : count_ + detail::matches(word, ref_);
  return count < limit;
}

inline void AdaptiveProportionTest::feed_word(std::uint64_t word) {
  if (index_ == 0) {
    ref_ = static_cast<std::uint8_t>(word & 1u);
    count_ = detail::matches(word, ref_);
  } else {
    count_ += detail::matches(word, ref_);
  }
  index_ += 64;
  if (index_ >= window_) index_ = 0;  // the word closed its window
}

}  // namespace ringent::trng
