// Experiment drivers: one function per paper experiment.
//
// Each driver builds oscillators through the public factory, runs them on the
// event kernel, measures through the instrument models, and returns a plain
// result struct. The bench binaries (bench/) only format these results into
// the paper's tables and figures; the test suite asserts their shapes.
//
// Every driver has the same canonical signature:
//
//   run_X(const XSpec& spec, const Calibration& calibration,
//         const ExperimentOptions& options = {});
//
// XSpec declares WHAT to run (rings, sweep axes, durations — the science);
// ExperimentOptions declares HOW to run it (seed, jobs, noise toggle — the
// execution policy). The experiment registry (core/registry.hpp) and all
// callers use the spec forms exclusively; the historical positional-knob
// signatures have been removed.
//
// Every XSpec has the same serialized form, declared once as a field table
// in core/spec_json.cpp: `spec_schema` ("ringent.spec.<experiment>/1"), a
// total `to_json` (every field emitted), a strict `from_json` (unknown and
// missing keys are named with the schema; ends in validate()), and
// `validate()`, which checks each field's floor and ceiling plus the spec's
// cross-field rules and throws PreconditionError. Every driver calls
// validate() first, so a spec that parses is a spec that runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/entropy90b.hpp"
#include "analysis/jitter.hpp"
#include "core/calibration.hpp"
#include "core/oscillator.hpp"
#include "core/spec.hpp"
#include "fpga/supply.hpp"
#include "noise/fault.hpp"
#include "ring/mode.hpp"
#include "service/frontend.hpp"
#include "trng/resilient.hpp"

namespace ringent::core {

struct RunManifest;

struct ExperimentOptions {
  std::uint64_t seed = 20120312;  ///< master seed (DATE 2012 dates)
  bool with_noise = true;         ///< dynamic Gaussian noise on/off
  std::size_t warmup_periods = 64;

  /// Worker threads for the independent axes of a sweep (supply levels,
  /// boards, stage counts, token counts, restarts). 0 = default: the
  /// RINGENT_JOBS environment variable, else hardware_concurrency().
  /// Every driver shards by task index and derives per-task RNG streams
  /// hierarchically, so results are bit-identical for any value — including
  /// 1 (see sim/parallel.hpp and docs/architecture.md).
  std::size_t jobs = 0;

  /// Which simulated board carries the ring: >= 0 selects a die from the
  /// process population (with per-LUT mismatch), -1 an ideal mismatch-free
  /// device. Jitter measurements default to board 0, like the paper's
  /// single-board oscilloscope session.
  int board_index = -1;

  /// Where the driver stores its run manifest (core/export.hpp), built from
  /// the run's own metrics context. Null = write it to a manifest file, and
  /// only when the root metrics context is collecting (the benches'
  /// --metrics path). The registry's run_spec points this at the manifest
  /// it returns.
  RunManifest* manifest_out = nullptr;
};

// --- Fig. 8 / Table I: sensitivity to voltage variations -------------------

struct VoltageSweepPoint {
  double voltage_v = 0.0;
  double frequency_mhz = 0.0;
  double normalized = 0.0;  ///< F / F_nom
};

struct VoltageSweepResult {
  RingSpec spec;
  double f_nominal_mhz = 0.0;
  double excursion = 0.0;  ///< ΔF = (F_max - F_min) / F_nom over the sweep
  std::vector<VoltageSweepPoint> points;
};

struct VoltageSweepSpec {
  RingSpec ring;
  /// Supply levels to visit; must include `calibration.nominal_voltage`
  /// (Fn's reference).
  std::vector<double> voltages;
  std::size_t periods = 400;

  static constexpr std::string_view spec_schema =
      "ringent.spec.voltage_sweep/1";
  Json to_json() const;
  static VoltageSweepSpec from_json(const Json& json);
  void validate() const;
};

/// Measure ring frequency at each supply level (Fn normalized at
/// `calibration.nominal_voltage`).
VoltageSweepResult run_voltage_sweep(const VoltageSweepSpec& spec,
                                     const Calibration& calibration,
                                     const ExperimentOptions& options = {});

// --- extension: sensitivity to temperature ----------------------------------

struct TemperatureSweepPoint {
  double temperature_c = 25.0;
  double frequency_mhz = 0.0;
  double normalized = 0.0;  ///< F / F(25 C)
};

struct TemperatureSweepResult {
  RingSpec spec;
  double f_nominal_mhz = 0.0;
  double excursion = 0.0;  ///< (F_max - F_min) / F(25 C) over the sweep
  std::vector<TemperatureSweepPoint> points;
};

struct TemperatureSweepSpec {
  RingSpec ring;
  /// Die temperatures to visit; must include 25 C (the normalization point).
  std::vector<double> temperatures;
  std::size_t periods = 400;

  static constexpr std::string_view spec_schema =
      "ringent.spec.temperature_sweep/1";
  Json to_json() const;
  static TemperatureSweepSpec from_json(const Json& json);
  void validate() const;
};

/// Frequency vs die temperature at nominal voltage (extension: the paper's
/// ref [1] attack surface).
TemperatureSweepResult run_temperature_sweep(
    const TemperatureSweepSpec& spec, const Calibration& calibration,
    const ExperimentOptions& options = {});

// --- Table II: sensitivity to process variability --------------------------

struct BoardFrequency {
  unsigned board = 0;
  double frequency_mhz = 0.0;
};

struct ProcessVariabilityResult {
  RingSpec spec;
  std::vector<BoardFrequency> boards;
  double mean_mhz = 0.0;
  double sigma_rel = 0.0;  ///< relative standard deviation across boards
};

struct ProcessVariabilitySpec {
  RingSpec ring;
  unsigned board_count = 5;
  std::size_t periods = 400;

  static constexpr std::string_view spec_schema =
      "ringent.spec.process_variability/1";
  Json to_json() const;
  static ProcessVariabilitySpec from_json(const Json& json);
  void validate() const;
};

/// Load "the same bitstream" into `board_count` simulated boards and compare
/// ring frequencies (paper Sec. V-C).
ProcessVariabilityResult run_process_variability(
    const ProcessVariabilitySpec& spec, const Calibration& calibration,
    const ExperimentOptions& options = {});

// --- Figs. 9, 11, 12: jitter -------------------------------------------------

/// Ground-truth period population (no instrument in the path).
std::vector<double> collect_periods_ps(const RingSpec& spec,
                                       const Calibration& calibration,
                                       std::size_t periods,
                                       const ExperimentOptions& options = {});

struct JitterPoint {
  std::size_t stages = 0;
  double mean_period_ps = 0.0;
  double sigma_p_ps = 0.0;    ///< recovered by the Fig. 10 method
  double sigma_g_ps = 0.0;    ///< per-gate jitter derived via Eq. 7 (IRO)
  double sigma_direct_ps = 0.0;  ///< ground-truth sigma of the periods
};

struct JitterSweepSpec {
  RingKind kind = RingKind::iro;
  std::vector<std::size_t> stage_counts;
  unsigned divider_n = 8;         ///< divide by 2^n in the measurement method
  std::size_t mes_periods = 150;  ///< osc_mes periods per point

  static constexpr std::string_view spec_schema =
      "ringent.spec.jitter_vs_stages/1";
  Json to_json() const;
  static JitterSweepSpec from_json(const Json& json);
  void validate() const;
};

/// Period jitter as a function of the number of stages, measured through the
/// full instrument chain (divider + oscilloscope + Eq. 6), one point per
/// entry of `stage_counts`. For RingKind::str, NT = NB.
std::vector<JitterPoint> run_jitter_vs_stages(
    const JitterSweepSpec& spec, const Calibration& calibration,
    const ExperimentOptions& options = {});

// --- Fig. 5 / Sec. V-A: oscillation modes -----------------------------------

struct ModeMapEntry {
  std::size_t tokens = 0;
  ring::OscillationMode mode = ring::OscillationMode::irregular;
  double interval_cv = 0.0;
  double frequency_mhz = 0.0;
};

struct ModeMapSpec {
  std::size_t stages = 32;
  std::vector<std::size_t> token_counts;
  ring::TokenPlacement placement = ring::TokenPlacement::clustered;
  /// Charlie magnitude scale (ablation knob); 1.0 = calibrated value.
  double charlie_scale = 1.0;
  std::size_t periods = 600;

  static constexpr std::string_view spec_schema =
      "ringent.spec.mode_map/1";
  Json to_json() const;
  static ModeMapSpec from_json(const Json& json);
  void validate() const;
};

/// Classify the steady-state mode for each token count of an L-stage STR
/// (paper Sec. V-A: L=32 locks evenly spaced for NT = 10..20).
std::vector<ModeMapEntry> run_mode_map(const ModeMapSpec& spec,
                                       const Calibration& calibration,
                                       const ExperimentOptions& options = {});

// --- extension: the restart technique ----------------------------------------

struct RestartPoint {
  std::size_t edge = 0;      ///< k-th rising edge after start
  double spread_ps = 0.0;    ///< stddev of t_k across restarts
};

struct RestartResult {
  RingSpec spec;
  std::vector<RestartPoint> points;
  /// Fitted per-edge diffusion: spread(k) ~ sigma_restart * sqrt(k).
  double diffusion_per_edge_ps = 0.0;
  double fit_r2 = 0.0;
  /// Control: two runs with identical seeds diverge by exactly zero.
  bool control_identical = false;
};

struct RestartSpec {
  RingSpec ring;
  unsigned restarts = 64;
  std::size_t edges = 256;

  static constexpr std::string_view spec_schema =
      "ringent.spec.restart/1";
  Json to_json() const;
  static RestartSpec from_json(const Json& json);
  void validate() const;
};

/// The restart technique (standard TRNG entropy validation): run the ring
/// `restarts` times from the SAME initial state with independent noise and
/// measure how the k-th edge time spreads across runs. True (thermal)
/// randomness gives sqrt(k) growth; a deterministic oscillator restarts
/// identically (the same-seed control). The fitted diffusion must agree
/// with the divided-clock readout of Figs. 11/12 — two entirely different
/// estimators of the same quantity.
RestartResult run_restart_experiment(const RestartSpec& spec,
                                     const Calibration& calibration,
                                     const ExperimentOptions& options = {});

// --- conclusion / ref [7]: coherent sampling across devices -----------------

struct CoherentBoardResult {
  unsigned board = 0;
  double half_beat_samples = 0.0;  ///< median run length
  double implied_detune = 0.0;     ///< 1 / (2 * half_beat)
  double lsb_bias = 0.5;
  std::size_t bits = 0;
};

struct CoherentSweepResult {
  RingSpec spec;
  double design_detune = 0.0;
  std::vector<CoherentBoardResult> boards;
  double detune_mean = 0.0;
  double detune_sigma = 0.0;
  double worst_deviation = 0.0;  ///< max |implied - design|
};

struct CoherentSweepSpec {
  RingSpec ring;
  /// The sampling ring's design slowdown (e.g. 0.01 for 1%).
  double design_detune = 0.01;
  unsigned board_count = 5;
  std::size_t periods = 60000;

  static constexpr std::string_view spec_schema =
      "ringent.spec.coherent_boards/1";
  Json to_json() const;
  static CoherentSweepSpec from_json(const Json& json);
  void validate() const;
};

/// Build a coherent-sampling pair (ring + delay_scale-detuned sampling ring
/// on different LUTs of the same board) on each of `board_count` boards and
/// measure the beat window — the Table II consequence the paper's
/// conclusion highlights.
CoherentSweepResult run_coherent_across_boards(
    const CoherentSweepSpec& spec, const Calibration& calibration,
    const ExperimentOptions& options = {});

// --- Sec. IV-B: global deterministic jitter ---------------------------------

struct DeterministicJitterPoint {
  std::size_t stages = 0;
  double mean_period_ps = 0.0;
  double tone_ps = 0.0;       ///< amplitude of the modulation tone in T(k)
  double tone_relative = 0.0; ///< tone_ps / mean_period_ps
  double random_ps = 0.0;     ///< residual white jitter per period
};

struct DeterministicJitterSpec {
  RingKind kind = RingKind::iro;
  std::vector<std::size_t> stage_counts;
  double modulation_amplitude_v = 0.05;
  double modulation_frequency_hz = 2.0e6;
  std::size_t periods = 8192;

  static constexpr std::string_view spec_schema =
      "ringent.spec.deterministic_jitter/1";
  Json to_json() const;
  static DeterministicJitterSpec from_json(const Json& json);
  void validate() const;
};

/// Apply a sinusoidal supply modulation and measure the deterministic tone
/// it leaves in the period sequence, per ring length. The paper's claim:
/// the IRO tone grows with the stage count (linear accumulation over 2k
/// crossings) while the STR tone does not.
std::vector<DeterministicJitterPoint> run_deterministic_jitter(
    const DeterministicJitterSpec& spec, const Calibration& calibration,
    const ExperimentOptions& options = {});

// --- entropy map: 90B min-entropy over sampling period x ring length ---------

struct EntropyMapSpec {
  /// Topologies to map; both paper families by default.
  std::vector<RingKind> kinds = {RingKind::iro, RingKind::str};
  std::vector<std::size_t> stage_counts;
  /// Sampling-flip-flop reference periods (the sweep's frequency axis).
  std::vector<Time> sampling_periods;
  /// DFF-sampled bits fed to the battery per cell.
  std::size_t bits_per_cell = 4096;
  /// Restart validation per cell: `restart_rows` relock cycles of
  /// `restart_cols` bits each (SP 800-90B §3.1.4, via the bit source's
  /// deterministic relock machinery). rows = 0 disables.
  std::size_t restart_rows = 0;
  std::size_t restart_cols = 0;
  analysis::Entropy90bConfig battery;

  static constexpr std::string_view spec_schema =
      "ringent.spec.entropy_map/1";
  Json to_json() const;
  static EntropyMapSpec from_json(const Json& json);
  void validate() const;
};

struct EntropyMapCell {
  RingSpec ring;
  Time sampling_period = Time::zero();
  analysis::Entropy90bResult estimate;
  bool restart_run = false;  ///< whether `restart` below carries data
  analysis::RestartValidation restart;
};

struct EntropyMapResult {
  /// kinds (outer) x stage_counts x sampling_periods (inner) order.
  std::vector<EntropyMapCell> cells;
  /// Lowest per-cell battery min-entropy, -1 if no estimator ran anywhere.
  double floor_min_entropy = -1.0;
};

/// Sweep sampling period x ring length for each topology and estimate the
/// SP 800-90B non-IID min-entropy of the sampled stream per cell, with
/// optional restart-matrix validation. Cells run in parallel (index-sharded
/// seeds), so the map is bit-identical for any `options.jobs`.
EntropyMapResult run_entropy_map(const EntropyMapSpec& spec,
                                 const Calibration& calibration,
                                 const ExperimentOptions& options = {});

// --- attack resilience: fault injection + online-health degradation ----------

struct AttackResilienceSpec {
  /// Topologies under attack; the paper comparison pairs an IRO with a
  /// matched-footprint STR on the same rail.
  std::vector<RingSpec> rings = {RingSpec::iro(25), RingSpec::str(24)};

  /// Fault schedules to sweep (noise/fault.hpp). paper_default() covers the
  /// quiet baseline, the Sec. IV-B supply-tone attack, a brown-out, a
  /// stuck-at stage, slow delay drift and an STR mode-collapse kick.
  std::vector<noise::FaultScenario> scenarios;

  /// Reference clock of the sampling flip-flop.
  Time sampling_period = Time::from_ns(250.0);

  /// Raw bits drawn through the health-monitored generator per cell.
  std::size_t total_bits = 4000;

  /// Degradation policy of the supervised generator.
  trng::DegradationPolicy policy;

  /// Regulator between the attacked rail and the core; the default
  /// pass-through models an unprotected core (the paper boards' linear
  /// regulator would attenuate the tone ~10-20x).
  fpga::Regulator regulator{};

  /// Provision a second ring (same spec, fresh noise, same rail) the policy
  /// can fail over to. It experiences the scenario's supply faults — those
  /// are common-mode across the die — but not stage-local delay faults.
  bool with_backup = true;

  /// The configuration the attack-resilience study and its golden test use.
  /// The supply-tone amplitude (103.7 mV — paper-scale) is tuned so the
  /// tone's trough parks the IRO's sampled beat f*Ts on an integer (the
  /// attacker's sweet spot); the matched STR's beat stays ~0.3 away from
  /// the nearest integer at both tone extremes and rides the attack out.
  static AttackResilienceSpec paper_default();

  static constexpr std::string_view spec_schema =
      "ringent.spec.attack_resilience/1";
  Json to_json() const;
  static AttackResilienceSpec from_json(const Json& json);
  void validate() const;
};

/// One (ring, scenario) outcome.
struct AttackResilienceCell {
  RingSpec ring;
  std::string scenario;
  trng::DegradationState final_state = trng::DegradationState::healthy;

  std::uint64_t raw_bits = 0;      ///< bits drawn from the source
  std::uint64_t emitted_bits = 0;  ///< bits that reached the consumer
  std::uint64_t muted_bits = 0;
  double muted_fraction = 0.0;     ///< muted / raw

  /// Raw bits from generator start to the first health alarm; -1 = the
  /// scenario never tripped the monitors.
  std::int64_t detection_latency_bits = -1;
  /// Raw bits from the first alarm back to the first `healthy`; -1 = never
  /// recovered within the run.
  std::int64_t recovery_bits = -1;

  std::uint64_t rct_alarms = 0;
  std::uint64_t apt_alarms = 0;
  std::uint64_t relock_attempts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t fault_activations = 0;  ///< fault windows applied (both rings)

  /// Ones-fraction of the emitted bits after the last fault window closed
  /// (0.5 when no bits were emitted there) — the post-attack health check.
  double post_attack_bias = 0.5;
  std::size_t post_attack_bits = 0;

  /// SP 800-90B non-IID battery over the bits that actually reached the
  /// consumer (the monitored stream): measured entropy loss to hold against
  /// the health events above. -1 when too few bits were emitted for any
  /// estimator to run.
  double emitted_min_entropy = -1.0;
  /// The battery's Markov component alone — directly comparable to the
  /// online markov_min_entropy the telemetry layer tracks per window.
  double emitted_h_markov = -1.0;

  std::vector<trng::StateTransition> transitions;
};

struct AttackResilienceResult {
  std::vector<AttackResilienceCell> cells;

  /// Sum over cells of recorded state transitions — matches the
  /// health_transitions counter delta in this run's manifest.
  std::uint64_t total_transitions = 0;
};

/// Sweep scenario x topology: run every fault scenario against every ring
/// through a health-monitored, degradation-managed generator
/// (trng::ResilientGenerator over a core::RingBitSource) and report
/// detection latency, muted-output fraction, recovery time and post-attack
/// bias per cell.
AttackResilienceResult run_attack_resilience(
    const AttackResilienceSpec& spec, const Calibration& calibration,
    const ExperimentOptions& options = {});

// --- entropy service: conditioned streaming server layer ---------------------

struct EntropyServiceSpec {
  std::size_t slots = 4;

  /// Raw-bit production budget per slot (the run's deterministic size).
  std::uint64_t raw_bits_per_slot = 1u << 16;

  service::ConditionerKind conditioner = service::ConditionerKind::lfsr;
  std::size_t conditioner_ratio = 2;
  std::size_t ring_capacity = 4096;  ///< bytes per slot ring (power of two)
  std::size_t block_bytes = 64;      ///< front-end interleave unit
  std::size_t request_bytes = 256;   ///< bytes per acquire() request

  /// true: PRNG-backed slot sources (saturation mode — measures the service
  /// layer, not the oscillator model). false: simulated rings below.
  bool synthetic = true;
  RingSpec ring = RingSpec::str(24);
  Time sampling_period = Time::from_ns(250.0);

  /// Front-end wait budget before an empty-but-live slot counts as starved.
  /// 0 = auto: 250 ms for synthetic slots, 10 s for simulated rings (which
  /// produce raw bits at simulation rate, ~1 ms/bit, not wire rate).
  std::uint64_t wait_budget_ms = 0;

  trng::DegradationPolicy policy;

  static constexpr std::string_view spec_schema =
      "ringent.spec.entropy_service/1";
  Json to_json() const;
  static EntropyServiceSpec from_json(const Json& json);
  void validate() const;
};

struct EntropyServiceResult {
  std::size_t workers = 0;          ///< pool worker threads actually used
  std::uint64_t requests = 0;       ///< acquire() calls served
  std::uint64_t bytes_delivered = 0;
  std::uint64_t raw_bits_in = 0;    ///< raw bits pulled across all slots
  std::uint64_t starvations = 0;    ///< StarvationError count (the drain end)
  std::uint64_t slots_failed = 0;   ///< generators that latched `failed`
  double wall_seconds = 0.0;
  double bytes_per_sec = 0.0;
  double requests_per_sec = 0.0;

  /// FNV-1a over the delivered stream plus its first bytes: the cross-jobs
  /// bit-identity witnesses (identical for any worker count).
  std::uint64_t stream_fnv = 0;
  std::vector<std::uint8_t> head;
};

/// Drive the service end to end: build a pool of `slots` supervised
/// generators, start min(resolve_jobs(options.jobs), slots) workers, and
/// drain the entire production through EntropyService::acquire in
/// `request_bytes` units until the pool reports starvation. The conditioned
/// stream content is bit-identical at any `options.jobs`; the throughput
/// numbers are wall-clock and are not.
EntropyServiceResult run_entropy_service(const EntropyServiceSpec& spec,
                                         const Calibration& calibration,
                                         const ExperimentOptions& options = {});

}  // namespace ringent::core
