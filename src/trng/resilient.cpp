#include "trng/resilient.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/require.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__POPCNT__)
#define RINGENT_POPCNT_DISPATCH 1
#include <cpuid.h>
#endif

namespace ringent::trng {

namespace metrics = sim::metrics;
namespace histo = sim::telemetry;

void BitSource::fill_words(std::span<std::uint64_t> words) {
  for (std::uint64_t& word : words) {
    word = 0;
    for (unsigned i = 0; i < 64; ++i) {
      word |= std::uint64_t{next_bit() & 1u} << i;
    }
  }
}

std::uint64_t backoff_for_strike(std::uint64_t base, std::uint32_t strike) {
  const std::uint32_t shift = strike > 0 ? strike - 1 : 0;
  // `base << shift` is UB for shift >= 64 and wraps (to as little as zero)
  // whenever base has a set bit in the top `shift` positions; either way a
  // muted generator would come back almost immediately. Saturate instead.
  if (shift >= 64) return UINT64_MAX;
  if (base > (UINT64_MAX >> shift)) return UINT64_MAX;
  return base << shift;
}

Json DegradationPolicy::to_json() const {
  Json json = Json::object();
  json.set("claimed_min_entropy", claimed_min_entropy);
  json.set("apt_window", static_cast<std::uint64_t>(apt_window));
  json.set("alpha_log2", alpha_log2);
  json.set("suspect_fraction", suspect_fraction);
  json.set("backoff_bits", backoff_bits);
  json.set("probation_bits", probation_bits);
  json.set("max_strikes", max_strikes);
  json.set("failover_after_strikes", failover_after_strikes);
  return json;
}

DegradationPolicy DegradationPolicy::from_json(const Json& json) {
  if (!json.is_object()) {
    throw Error("degradation policy must be a JSON object");
  }
  const auto unsigned_field = [](const Json& value, const char* what) {
    const std::int64_t v = value.as_integer();
    if (v < 0) {
      throw Error(std::string("policy field '") + what +
                  "' must be non-negative");
    }
    return static_cast<std::uint64_t>(v);
  };
  DegradationPolicy policy;
  for (const auto& [key, value] : json.items()) {
    if (key == "claimed_min_entropy") {
      policy.claimed_min_entropy = value.as_number();
    } else if (key == "apt_window") {
      policy.apt_window =
          static_cast<std::size_t>(unsigned_field(value, "apt_window"));
    } else if (key == "alpha_log2") {
      policy.alpha_log2 = value.as_number();
    } else if (key == "suspect_fraction") {
      policy.suspect_fraction = value.as_number();
    } else if (key == "backoff_bits") {
      policy.backoff_bits = unsigned_field(value, "backoff_bits");
    } else if (key == "probation_bits") {
      policy.probation_bits = unsigned_field(value, "probation_bits");
    } else if (key == "max_strikes") {
      const std::uint64_t v = unsigned_field(value, "max_strikes");
      if (v > UINT32_MAX) throw Error("max_strikes out of range");
      policy.max_strikes = static_cast<std::uint32_t>(v);
    } else if (key == "failover_after_strikes") {
      const std::uint64_t v = unsigned_field(value, "failover_after_strikes");
      if (v > UINT32_MAX) throw Error("failover_after_strikes out of range");
      policy.failover_after_strikes = static_cast<std::uint32_t>(v);
    } else {
      throw Error("unknown degradation policy key \"" + key + "\"");
    }
  }
  if (!(policy.claimed_min_entropy > 0.0 &&
        policy.claimed_min_entropy <= 1.0)) {
    throw Error("claimed_min_entropy must be in (0, 1]");
  }
  if (policy.apt_window < 2) throw Error("apt_window must be at least 2");
  if (!(policy.alpha_log2 > 0.0)) throw Error("alpha_log2 must be positive");
  if (!(policy.suspect_fraction >= 0.0 && policy.suspect_fraction <= 1.0)) {
    throw Error("suspect_fraction must be in [0, 1]");
  }
  return policy;
}

namespace {

#ifdef RINGENT_POPCNT_DISPATCH
bool cpu_has_popcnt() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  return __get_cpuid(1, &a, &b, &c, &d) != 0 && (c & bit_POPCNT) != 0;
}
#endif

/// Most words produce() pulls with one fill_words() call.
constexpr std::uint64_t kMaxBatchWords = 8;

/// The smallest count c with `c >= level` (near_threshold()'s comparison),
/// or `cap` when no count below it qualifies.
std::uint32_t first_count_at(double level, std::uint32_t cap) {
  if (!(level < cap)) return cap;
  if (!(level > 0.0)) return 0;
  return static_cast<std::uint32_t>(std::ceil(level));
}

}  // namespace

const char* to_string(DegradationState state) {
  switch (state) {
    case DegradationState::healthy: return "healthy";
    case DegradationState::suspect: return "suspect";
    case DegradationState::muted: return "muted";
    case DegradationState::relocking: return "relocking";
    case DegradationState::failed: return "failed";
  }
  return "?";
}

ResilientGenerator::ResilientGenerator(BitSource& primary, BitSource* backup,
                                       const DegradationPolicy& policy)
    : policy_(policy),
      primary_(&primary),
      backup_(backup),
      active_(&primary),
      rct_(rct_cutoff(policy.claimed_min_entropy, policy.alpha_log2)),
      apt_(apt_cutoff(policy.claimed_min_entropy, policy.apt_window,
                      policy.alpha_log2),
           policy.apt_window) {
  RINGENT_REQUIRE(policy.claimed_min_entropy > 0.0 &&
                      policy.claimed_min_entropy <= 1.0,
                  "claimed min-entropy must be in (0, 1]");
  RINGENT_REQUIRE(policy.backoff_bits > 0, "backoff must cover >= 1 bit");
  RINGENT_REQUIRE(policy.max_strikes > 0, "need at least one strike");
  RINGENT_REQUIRE(backup_ != primary_, "backup must be a distinct source");
  // RCT alarms at run >= cutoff, APT at count > cutoff; near_threshold()
  // turns suspect earlier unless suspect_fraction >= 1.
  rct_word_limit_ = rct_.cutoff();
  apt_word_limit_ = apt_.cutoff() + 1;
  if (policy_.suspect_fraction < 1.0) {
    rct_word_limit_ = first_count_at(
        policy_.suspect_fraction * rct_.cutoff(), rct_word_limit_);
    apt_word_limit_ = first_count_at(
        policy_.suspect_fraction * apt_.cutoff(), apt_word_limit_);
  }
}

std::vector<std::uint8_t> ResilientGenerator::generate(std::size_t raw_bits) {
  sim::trace::Span span("resilient-generate", "axis");
  // One spare byte: at most raw_bits bits are emitted, so the buffer never
  // fills and only the raw budget or a `failed` latch ends the loop.
  std::vector<std::uint8_t> packed(raw_bits / 8 + 1);
  Carry carry;
  const std::size_t bytes = produce(packed, carry, raw_bits);
  packed[bytes] = carry.byte;
  std::vector<std::uint8_t> out(bytes * 8 + carry.count);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((packed[i / 8] >> (i % 8)) & 1u);
  }
  return out;
}

std::size_t ResilientGenerator::fill_bytes(std::span<std::uint8_t> out,
                                           std::size_t max_raw_bits) {
  sim::trace::Span span("resilient-fill-bytes", "axis");
  return produce(out, carry_, max_raw_bits);
}

// The production loop is written once and compiled twice: produce() is
// the baseline x86-64 build, produce_popcnt() lets the APT's inlined word
// count use the POPCNT instruction. The version is chosen once per process
// from CPUID, the way Sha256::compress chooses SHA-NI.
std::size_t ResilientGenerator::produce(std::span<std::uint8_t> out,
                                        Carry& carry,
                                        std::size_t max_raw_bits) {
#ifdef RINGENT_POPCNT_DISPATCH
  static const bool popcnt = cpu_has_popcnt();
  if (popcnt) return produce_popcnt(out, carry, max_raw_bits);
#endif
  return produce_words(out, carry, max_raw_bits);
}

#ifdef RINGENT_POPCNT_DISPATCH
__attribute__((target("popcnt"))) std::size_t
ResilientGenerator::produce_popcnt(std::span<std::uint8_t> out, Carry& carry,
                                   std::size_t max_raw_bits) {
  return produce_words(out, carry, max_raw_bits);
}
#endif

[[gnu::always_inline]] inline std::size_t ResilientGenerator::produce_words(
    std::span<std::uint8_t> out, Carry& carry, std::size_t max_raw_bits) {
  const std::uint64_t muted_before = stats_.bits_muted;
  std::size_t written = 0;
  std::size_t raw_used = 0;
  const auto emit = [&](std::uint8_t bit) {
    carry.byte |= static_cast<std::uint8_t>(bit << carry.count);
    if (++carry.count == 8) {
      out[written++] = carry.byte;
      carry = Carry{};
    }
  };
  // step() emits at most one bit per raw bit, so stopping once `out` is
  // full never drops an emitted bit.
  while (written < out.size() && raw_used < max_raw_bits &&
         state_ != DegradationState::failed) {
    const std::size_t room_bits = (out.size() - written) * 8 - carry.count;
    const std::size_t batch = word_batch(max_raw_bits - raw_used, room_bits);
    if (batch > 0) {
      std::array<std::uint64_t, kMaxBatchWords> words;
      const std::span<std::uint64_t> pulled(words.data(), batch);
      active_->fill_words(pulled);
      raw_used += 64 * batch;
      for (const std::uint64_t word : pulled) {
        if (state_ == DegradationState::healthy && take_word(word)) {
          // 64 emitted bits after the carry: eight whole bytes, and the
          // carry's count is unchanged.
          const std::uint64_t low = carry.byte | (word << carry.count);
          for (std::size_t k = 0; k < 8; ++k) {
            out[written + k] = static_cast<std::uint8_t>(low >> (8 * k));
          }
          written += 8;
          carry.byte =
              carry.count == 0
                  ? 0
                  : static_cast<std::uint8_t>(word >> (64 - carry.count));
        } else {
          for (unsigned i = 0; i < 64; ++i) {
            const auto bit = static_cast<std::uint8_t>((word >> i) & 1u);
            if (step(bit)) emit(bit);
          }
        }
      }
      continue;
    }
    const std::uint8_t bit = active_->next_bit();
    ++raw_used;
    if (step(bit)) emit(bit);
  }
  metrics::bump(metrics::Counter::health_bits_muted,
                stats_.bits_muted - muted_before);
  return written;
}

std::size_t ResilientGenerator::word_batch(std::size_t raw_left,
                                           std::size_t room_bits) const {
  // A healthy batch can hold at most one alarm: it must mute (not fail),
  // and its backoff must outlast the rest of the batch, so that no restart
  // falls inside it and every pulled bit is consumed from the active source
  // whatever the batch holds.
  if (state_ != DegradationState::healthy ||
      std::uint64_t{stats_.strikes} + 1 >= policy_.max_strikes) {
    return 0;
  }
  const std::uint64_t backoff =
      backoff_for_strike(policy_.backoff_bits, stats_.strikes + 1);
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      {backoff / 64, raw_left / 64, room_bits / 64, kMaxBatchWords}));
}

[[gnu::always_inline]] inline bool ResilientGenerator::take_word(
    std::uint64_t word) {
  if (!rct_.word_clear(word, rct_word_limit_) ||
      !apt_.word_clear(word, apt_word_limit_)) {
    return false;
  }
  rct_.feed_word(word);
  apt_.feed_word(word);
  stats_.bits_in += 64;
  stats_.bits_out += 64;
  if (telemetry_ != nullptr) {
    for (unsigned i = 0; i < 64; ++i) {
      telemetry_->feed(static_cast<std::uint8_t>((word >> i) & 1u));
    }
  }
  if (histo::enabled()) {
    record_runs(word);
    if (apt_.window_index() == 0) {
      histo::record(histo::Histogram::apt_window_ones, apt_.current_count());
    }
  }
  return true;
}

void ResilientGenerator::record_runs(std::uint64_t word) {
  // Bit i of `starts` marks a run starting at bit i; bit 0 compares with
  // the previous word's last bit.
  std::uint64_t starts = word ^ ((word << 1) | (tele_prev_bit_ & 1u));
  if (tele_prev_bit_ > 1) starts |= 1;  // no sample yet: nothing to close
  std::uint64_t run = tele_run_;
  unsigned from = 0;
  for (; starts != 0; starts &= starts - 1) {
    const auto at = static_cast<unsigned>(std::countr_zero(starts));
    run += at - from;
    if (run > 0) histo::record(histo::Histogram::rct_run_length, run);
    run = 0;
    from = at;
  }
  tele_run_ = run + (64 - from);
  tele_prev_bit_ = static_cast<std::uint8_t>(word >> 63);
}

bool ResilientGenerator::step(std::uint8_t bit) {
  ++stats_.bits_in;
  if (telemetry_ != nullptr) telemetry_->feed(bit);
  if (histo::enabled()) {
    // Completed same-bit run lengths of the raw stream (muted bits
    // included: the histogram describes the source, not the monitors).
    if (bit == tele_prev_bit_) {
      ++tele_run_;
    } else {
      if (tele_prev_bit_ <= 1) {
        histo::record(histo::Histogram::rct_run_length, tele_run_);
      }
      tele_prev_bit_ = bit;
      tele_run_ = 1;
    }
  }
  switch (state_) {
    case DegradationState::healthy:
    case DegradationState::suspect: {
      const bool rct_ok = rct_.feed(bit);
      const bool apt_ok = apt_.feed(bit);
      if (!rct_ok || !apt_ok) {
        ++stats_.bits_muted;  // the alarming bit itself is never emitted
        on_alarm(!rct_ok ? "rct-alarm" : "apt-alarm");
        if (!rct_ok) {
          ++stats_.rct_alarms;
          metrics::bump(metrics::Counter::health_rct_alarms);
        }
        if (!apt_ok) {
          ++stats_.apt_alarms;
          metrics::bump(metrics::Counter::health_apt_alarms);
        }
        return false;
      }
      if (histo::enabled() && apt_.window_index() == 0) {
        // index_ just wrapped: current_count() is the completed window's.
        histo::record(histo::Histogram::apt_window_ones, apt_.current_count());
      }
      ++stats_.bits_out;
      const bool near = near_threshold();
      if (near && state_ == DegradationState::healthy) {
        transition(DegradationState::suspect, "near-threshold");
      } else if (!near && state_ == DegradationState::suspect) {
        transition(DegradationState::healthy, "margin-restored");
      }
      return true;
    }
    case DegradationState::muted: {
      // Tests are latched from the alarm; bits are burned, not inspected.
      ++stats_.bits_muted;
      if (backoff_remaining_ > 0) --backoff_remaining_;
      if (backoff_remaining_ == 0) begin_relock();
      return false;
    }
    case DegradationState::relocking: {
      ++stats_.bits_muted;
      const bool rct_ok = rct_.feed(bit);
      const bool apt_ok = apt_.feed(bit);
      if (!rct_ok || !apt_ok) {
        on_alarm(!rct_ok ? "rct-alarm" : "apt-alarm");
        if (!rct_ok) {
          ++stats_.rct_alarms;
          metrics::bump(metrics::Counter::health_rct_alarms);
        }
        if (!apt_ok) {
          ++stats_.apt_alarms;
          metrics::bump(metrics::Counter::health_apt_alarms);
        }
        return false;
      }
      if (histo::enabled() && apt_.window_index() == 0) {
        histo::record(histo::Histogram::apt_window_ones, apt_.current_count());
      }
      if (probation_remaining_ > 0) --probation_remaining_;
      if (probation_remaining_ == 0) {
        histo::record(histo::Histogram::relock_duration_bits,
                      stats_.bits_in - outage_start_bit_);
        transition(DegradationState::healthy, "probation-clean");
        if (stats_.alarmed && !stats_.recovered) {
          stats_.recovered = true;
          stats_.recovered_bit = stats_.bits_in;
        }
      }
      return false;
    }
    case DegradationState::failed:
      ++stats_.bits_muted;
      return false;
  }
  return false;
}

void ResilientGenerator::on_alarm(const char* reason) {
  // First interval measures from stream start — detection latency.
  histo::record(histo::Histogram::bits_between_alarms,
                stats_.bits_in - last_alarm_bit_);
  last_alarm_bit_ = stats_.bits_in;
  outage_start_bit_ = stats_.bits_in;
  if (!stats_.alarmed) {
    stats_.alarmed = true;
    stats_.first_alarm_bit = stats_.bits_in;
  }
  ++stats_.strikes;
  if (stats_.strikes >= policy_.max_strikes) {
    transition(DegradationState::failed, reason);
    metrics::bump(metrics::Counter::health_failures);
    return;
  }
  backoff_remaining_ = backoff_for_strike(policy_.backoff_bits,
                                          stats_.strikes);
  transition(DegradationState::muted, reason);
}

void ResilientGenerator::begin_relock() {
  ++stats_.relock_attempts;
  metrics::bump(metrics::Counter::health_relock_attempts);
  if (backup_ != nullptr && policy_.failover_after_strikes > 0 &&
      stats_.strikes >= policy_.failover_after_strikes &&
      active_ != backup_) {
    active_ = backup_;
    ++stats_.failovers;
    metrics::bump(metrics::Counter::health_failovers);
  }
  active_->restart(stats_.relock_attempts);
  reset_tests();
  probation_remaining_ = policy_.probation_bits;
  transition(DegradationState::relocking,
             using_backup() ? "backoff-spent/failover" : "backoff-spent");
}

bool ResilientGenerator::near_threshold() const {
  if (policy_.suspect_fraction >= 1.0) return false;
  const double rct_level = policy_.suspect_fraction * rct_.cutoff();
  const double apt_level = policy_.suspect_fraction * apt_.cutoff();
  return rct_.current_run() >= rct_level || apt_.current_count() >= apt_level;
}

void ResilientGenerator::reset_tests() {
  rct_.reset();
  apt_.reset();
}

void ResilientGenerator::transition(DegradationState to, std::string reason) {
  StateTransition edge;
  edge.from = state_;
  edge.to = to;
  edge.at_bit = stats_.bits_in;
  edge.reason = std::move(reason);
  transitions_.push_back(std::move(edge));
  state_ = to;
  metrics::bump(metrics::Counter::health_transitions);
}

}  // namespace ringent::trng
