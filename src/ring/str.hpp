// Timed self-timed-ring model (paper Sec. II-B/C, III).
//
// Gate-level event-driven simulation of an L-stage STR. Stage i fires — its
// Muller gate copies C[i-1] into C[i] — when it holds a token and stage i+1
// holds a bubble (see ring/str_logic.hpp for the untimed specification). The
// firing *time* follows the Charlie model: with the token-side input event at
// tf (last change of C[i-1]) and the bubble-side event at tr (last change of
// C[i+1]), the output fires at (tf+tr)/2 + charlie((tf-tr)/2) plus noise,
// routing and modulation terms (ring/charlie.hpp).
//
// Nothing here encodes the paper's results; they emerge:
//  * tokens repel through the Charlie term, locking NT = NB rings into the
//    evenly-spaced mode from arbitrary initial patterns;
//  * clustered tokens with Dch ~ 0 stay clustered (burst mode, Fig. 5);
//  * period jitter is independent of L and ~ sqrt(2)*sigma_g (Fig. 12),
//    while static per-LUT mismatch still averages over all stages (Table II);
//  * deterministic supply modulation is strongly attenuated (Sec. IV-B).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "fpga/delay_model.hpp"
#include "fpga/op_cache.hpp"
#include "fpga/supply.hpp"
#include "noise/jitter.hpp"
#include "noise/modulation.hpp"
#include "ring/charlie.hpp"
#include "ring/str_logic.hpp"
#include "sim/kernel.hpp"
#include "sim/probe.hpp"

namespace ringent::ring {

struct StrConfig {
  std::size_t stages = 8;  ///< L >= 3

  /// Nominal per-stage Charlie parameters at the nominal operating point.
  CharlieParams charlie = CharlieParams::symmetric(Time::from_ps(260.0),
                                                   Time::from_ps(120.0));
  DraftingParams drafting = DraftingParams::disabled();

  Time routing_per_hop = Time::zero();  ///< mean routed delay per hop

  /// Optional per-stage routed delays (e.g. fpga::distribute_routing);
  /// overrides routing_per_hop when non-empty. Entry i is the delay of the
  /// nets feeding stage i. Size must equal `stages`.
  std::vector<Time> routing_per_stage;

  /// Jitter-voltage coupling exponent, as in IroConfig (0 = paper model).
  double jitter_delay_exponent = 0.0;

  /// Per-stage static process factors; size `stages` or empty (all 1.0).
  std::vector<double> stage_factors;

  /// Optional operating-point dependence (provide both or neither); the
  /// referents must outlive the ring.
  const fpga::Supply* supply = nullptr;
  const fpga::VoltageLaws* laws = nullptr;

  /// Optional direct deterministic delay modulation; must outlive the ring.
  const noise::DelayModulation* modulation = nullptr;

  /// Stage whose output is recorded in output(); default stage 0.
  std::size_t observe_stage = 0;

  /// Record every stage (for VCD dumps / token-position analysis). Memory
  /// scales with stages x transitions; keep runs short when enabled.
  bool trace_all_stages = false;
};

class Str final : public sim::Process {
 public:
  /// `initial` must be a valid oscillating pattern (see make_initial_state).
  /// `stage_noise` holds one dynamic noise source per stage, or is empty for
  /// a noise-free ring.
  Str(sim::Kernel& kernel, const StrConfig& config, RingState initial,
      std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise);

  /// Schedule the initially enabled stages; call once before running.
  void start();

  /// Trace of the observed stage.
  sim::SignalTrace& output() { return *output_; }
  const sim::SignalTrace& output() const { return *output_; }

  /// Per-stage traces; only populated when config.trace_all_stages is set.
  const std::vector<sim::SignalTrace>& stage_traces() const { return traces_; }
  std::vector<sim::SignalTrace>& stage_traces() { return traces_; }

  /// Current logical state (token/bubble snapshot), built on each call.
  RingState state() const;

  std::size_t stages() const { return config_.stages; }
  std::size_t tokens() const { return tokens_; }
  std::size_t bubbles() const { return config_.stages - tokens_; }

  /// Noise-free evenly-spaced period at the nominal operating point,
  /// T = 2 L (D_mean + Dch + routing) / NT — valid for NT = NB, where the
  /// steady-state separation is zero (paper Sec. III-B).
  Time nominal_period() const;

  void fire(sim::Kernel& kernel, std::uint32_t tag) override;

  /// Total stage firings so far.
  std::uint64_t firings() const { return firings_; }

 private:
  bool enabled(std::size_t i) const;
  void try_schedule(std::size_t i, Time now);

  sim::Kernel& kernel_;
  StrConfig config_;
  CharlieModel charlie_model_;
  std::size_t tokens_;
  std::vector<std::unique_ptr<noise::NoiseSource>> stage_noise_;
  std::vector<std::uint8_t> out_;        ///< stage outputs C_i, 0 or 1
  std::vector<std::uint32_t> prev_;      ///< i - 1 (cyclic)
  std::vector<std::uint32_t> next_;      ///< i + 1 (cyclic)
  std::vector<Time> last_change_;
  std::vector<std::uint8_t> scheduled_;

  // Hot-path precompute (see try_schedule): per-stage products hoisted out
  // of the per-event path in the exact association order of the original
  // expressions — bit-identical, pinned by tests/test_hot_path.cpp.
  std::vector<double> factor_;          ///< per-stage process factor
  std::vector<double> routing_ps_;      ///< per-stage routed delay (ps)
  std::vector<double> extra_base_;      ///< routing_ps_i * factor_i
  std::vector<double> d_mean_scaled_;   ///< D_mean.ps() * factor_i
  std::vector<double> s_offset_scaled_; ///< s0.ps() * factor_i
  std::vector<double> dch_scaled_;      ///< Dch.ps() * factor_i
  double d_mean_nom_ps_ = 0.0;          ///< D_mean.ps() (supply path)
  double s_offset_nom_ps_ = 0.0;
  double dch_nom_ps_ = 0.0;
  std::vector<noise::BlockSampler> noise_;  ///< block-buffered stage noise
  fpga::SupplyScaleCache scale_cache_;
  double noise_scale_key_ = 1.0;  ///< voltage-scale quotient of the memo
  double noise_scale_ = 1.0;      ///< pow(noise_scale_key_, gamma)
  std::vector<sim::SignalTrace> traces_;
  sim::SignalTrace* output_;
  sim::SignalTrace observe_trace_;
  sim::NodeId node_ = sim::invalid_node;
  std::uint64_t firings_ = 0;
  bool started_ = false;
};

}  // namespace ringent::ring
