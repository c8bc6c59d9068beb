#include "ring/str.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

namespace ringent::ring {

Str::Str(sim::Kernel& kernel, const StrConfig& config, RingState initial,
         std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise)
    : kernel_(kernel),
      config_(config),
      charlie_model_(config.charlie, config.drafting),
      state_(std::move(initial)),
      tokens_(token_count(state_)),
      stage_noise_(std::move(stage_noise)),
      scale_cache_(config.supply, config.laws),
      observe_trace_("str_out") {
  RINGENT_REQUIRE(config_.stages >= 3, "STR needs at least three stages");
  RINGENT_REQUIRE(state_.size() == config_.stages,
                  "initial state size must match stage count");
  RINGENT_REQUIRE(can_oscillate(config_.stages, tokens_),
                  "initial pattern cannot oscillate");
  RINGENT_REQUIRE(
      config_.stage_factors.empty() ||
          config_.stage_factors.size() == config_.stages,
      "stage_factors size must match stage count");
  RINGENT_REQUIRE(stage_noise_.empty() || stage_noise_.size() == config_.stages,
                  "stage_noise size must match stage count");
  RINGENT_REQUIRE((config_.supply == nullptr) == (config_.laws == nullptr),
                  "supply and laws must be provided together");
  RINGENT_REQUIRE(config_.observe_stage < config_.stages,
                  "observe_stage out of range");
  RINGENT_REQUIRE(!config_.routing_per_hop.is_negative(),
                  "routing delay cannot be negative");
  RINGENT_REQUIRE(config_.routing_per_stage.empty() ||
                      config_.routing_per_stage.size() == config_.stages,
                  "routing_per_stage size must match stage count");
  for (Time r : config_.routing_per_stage) {
    RINGENT_REQUIRE(!r.is_negative(), "routing delay cannot be negative");
  }
  for (double f : config_.stage_factors) {
    RINGENT_REQUIRE(f > 0.0, "stage factors must be positive");
  }

  last_change_.assign(config_.stages, Time::zero());
  scheduled_.assign(config_.stages, 0);

  // Per-stage precompute for try_schedule, association order preserved.
  d_mean_nom_ps_ = config_.charlie.d_mean().ps();
  s_offset_nom_ps_ = config_.charlie.s_offset().ps();
  dch_nom_ps_ = config_.charlie.d_charlie.ps();
  factor_.reserve(config_.stages);
  routing_ps_.reserve(config_.stages);
  extra_base_.reserve(config_.stages);
  d_mean_scaled_.reserve(config_.stages);
  s_offset_scaled_.reserve(config_.stages);
  dch_scaled_.reserve(config_.stages);
  for (std::size_t i = 0; i < config_.stages; ++i) {
    const double factor =
        config_.stage_factors.empty() ? 1.0 : config_.stage_factors[i];
    const double routing_ps = config_.routing_per_stage.empty()
                                  ? config_.routing_per_hop.ps()
                                  : config_.routing_per_stage[i].ps();
    factor_.push_back(factor);
    routing_ps_.push_back(routing_ps);
    extra_base_.push_back(routing_ps * factor);
    d_mean_scaled_.push_back(d_mean_nom_ps_ * factor);
    s_offset_scaled_.push_back(s_offset_nom_ps_ * factor);
    dch_scaled_.push_back(dch_nom_ps_ * factor);
  }
  if (!stage_noise_.empty()) {
    noise_.reserve(config_.stages);
    for (auto& source : stage_noise_) noise_.emplace_back(source.get());
  }

  if (config_.trace_all_stages) {
    traces_.reserve(config_.stages);
    for (std::size_t i = 0; i < config_.stages; ++i) {
      traces_.emplace_back("C" + std::to_string(i));
    }
    output_ = &traces_[config_.observe_stage];
  } else {
    output_ = &observe_trace_;
  }
  node_ = kernel_.add_process(this);
}

bool Str::enabled(std::size_t i) const {
  // Token at i and bubble at i+1.
  return state_[i] != state_[prev(i)] && state_[next(i)] == state_[i];
}

void Str::try_schedule(std::size_t i, Time now) {
  // Each eligibility check asks "does stage i hold a token facing a
  // bubble?" — the token-collision query of the handshake protocol.
  kernel_.count(sim::metrics::Counter::token_collision_checks);
  if (scheduled_[i] || !enabled(i)) return;

  const Time tf = last_change_[prev(i)];  // token-side enabling event
  const Time tr = last_change_[next(i)];  // bubble-side enabling event

  Time fire_at;
  if (config_.supply == nullptr) {
    // Unit voltage scales: the per-stage products collapse into the
    // constructor-time precompute (multiplying by 1.0 is exact, and with
    // gamma != 0 the noise scale pow(1.0, gamma) == 1.0 exactly).
    double extra_ps = extra_base_[i];
    if (!noise_.empty()) extra_ps += noise_[i].next();
    if (config_.modulation != nullptr) {
      extra_ps += config_.modulation->offset_ps(now, i);
    }
    kernel_.count(sim::metrics::Counter::charlie_evaluations);
    fire_at = charlie_model_.fire_time_prescaled(
        tf, tr, last_change_[i], extra_ps, d_mean_scaled_[i],
        s_offset_scaled_[i], dch_scaled_[i]);
  } else {
    const fpga::SupplyScaleCache::Scales& scales = scale_cache_.at(now);
    const double static_scale = factor_[i] * scales.lut;
    const double charlie_scale = factor_[i] * scales.charlie;
    const double routing_scale = factor_[i] * scales.routing;
    double extra_ps = routing_ps_[i] * routing_scale;
    if (!noise_.empty()) {
      double noise_scale = 1.0;
      if (config_.jitter_delay_exponent != 0.0) {
        // static_scale already contains the mismatch factor; couple the noise
        // to the voltage part only (static_scale / factor). The quotient of
        // the exact product equals scales.lut only up to rounding, so memoize
        // on the quotient itself to keep the pow input bit-identical.
        const double key = static_scale / factor_[i];
        if (key != noise_scale_key_) {
          noise_scale_key_ = key;
          noise_scale_ = std::pow(key, config_.jitter_delay_exponent);
        }
        noise_scale = noise_scale_;
      }
      extra_ps += noise_[i].next() * noise_scale;
    }
    if (config_.modulation != nullptr) {
      extra_ps += config_.modulation->offset_ps(now, i);
    }
    kernel_.count(sim::metrics::Counter::charlie_evaluations);
    fire_at = charlie_model_.fire_time_prescaled(
        tf, tr, last_change_[i], extra_ps, d_mean_nom_ps_ * static_scale,
        s_offset_nom_ps_ * static_scale, dch_nom_ps_ * charlie_scale);
  }
  // The Charlie-resolved delay is the per-evaluation "cost" in the simulated
  // domain — deterministic, so its histogram is bit-exact at any jobs count.
  sim::telemetry::record(
      sim::telemetry::Histogram::charlie_delay_fs,
      fire_at > now ? static_cast<std::uint64_t>((fire_at - now).fs()) : 0);
  kernel_.schedule_at(fire_at, node_, static_cast<std::uint32_t>(i));
  scheduled_[i] = 1;
}

void Str::start() {
  RINGENT_REQUIRE(!started_, "STR already started");
  started_ = true;
  for (std::size_t i = 0; i < config_.stages; ++i) {
    try_schedule(i, kernel_.now());
  }
}

void Str::fire(sim::Kernel& kernel, std::uint32_t tag) {
  const std::size_t i = tag;
  const Time now = kernel.now();

  // The enabling conditions cannot be withdrawn between scheduling and
  // firing (neighbours of an enabled stage are themselves disabled), so the
  // event is always valid here.
  scheduled_[i] = false;
  state_[i] = state_[prev(i)];
  last_change_[i] = now;
  ++firings_;

  if (config_.trace_all_stages) {
    traces_[i].record(now, state_[i]);
  } else if (i == config_.observe_stage) {
    output_->record(now, state_[i]);
  }

  // The firing moved a token to i+1 and a bubble to i; only those two
  // neighbours can have become enabled.
  try_schedule(next(i), now);
  try_schedule(prev(i), now);
}

Time Str::nominal_period() const {
  double routing_ps = config_.routing_per_hop.ps();
  if (!config_.routing_per_stage.empty()) {
    routing_ps = 0.0;
    for (Time r : config_.routing_per_stage) routing_ps += r.ps();
    routing_ps /= static_cast<double>(config_.routing_per_stage.size());
  }
  const double hop_ps = config_.charlie.d_mean().ps() +
                        config_.charlie.d_charlie.ps() + routing_ps;
  const double period_ps = 2.0 * static_cast<double>(config_.stages) * hop_ps /
                           static_cast<double>(tokens_);
  return Time::from_ps(period_ps);
}

}  // namespace ringent::ring
