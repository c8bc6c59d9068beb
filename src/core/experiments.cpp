#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <numeric>
#include <optional>
#include <string>

#include "analysis/fft.hpp"
#include "analysis/regression.hpp"
#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/stats.hpp"
#include "core/export.hpp"
#include "core/ring_source.hpp"
#include "measure/frequency.hpp"
#include "measure/method.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"
#include "trng/coherent.hpp"
#include "analysis/entropy.hpp"

namespace ringent::core {

namespace {

BuildOptions base_build_options(const ExperimentOptions& options) {
  BuildOptions build;
  build.sigma_g_ps = options.with_noise ? -1.0 : 0.0;
  build.noise_seed = options.seed;
  build.warmup_periods = options.warmup_periods;
  return build;
}

RingSpec spec_for(RingKind kind, std::size_t stages) {
  return kind == RingKind::iro ? RingSpec::iro(stages) : RingSpec::str(stages);
}

/// Observability bracket around one driver invocation: a "driver" trace span
/// for the whole call and, when anyone will read it, a fresh metrics
/// RunContext installed for the driver's duration (its pool tasks inherit
/// it), from which the run manifest is built. The manifest goes to
/// options.manifest_out when set, else — when the driver runs in the root
/// context and that is collecting — to a manifest file (write_run_manifest).
/// When a telemetry sink is configured, one "ringent.telemetry/1" snapshot
/// with the histogram delta and any stream observables the driver published
/// is appended too, and its summaries embedded in the manifest; telemetry is
/// process-wide, so the delta covers every run in flight meanwhile. All of
/// it happens in the destructor, after the result is complete; the run's
/// counts then fold into the enclosing context if that one is counting.
class DriverScope {
 public:
  DriverScope(std::string experiment, std::string spec,
              const ExperimentOptions& options, std::size_t tasks)
      : span_(experiment, "driver"),
        manifest_out_(options.manifest_out),
        parent_counting_(sim::metrics::counting()),
        write_file_(manifest_out_ == nullptr &&
                    sim::metrics::installed_context() == nullptr &&
                    parent_counting_),
        telemetry_active_(telemetry_active()) {
    if (!on()) return;
    manifest_.experiment = std::move(experiment);
    manifest_.spec = std::move(spec);
    manifest_.seed = options.seed;
    manifest_.jobs = sim::resolve_jobs(options.jobs);
    manifest_.tasks = tasks;
    if (telemetry_active_) telemetry_before_ = sim::telemetry::snapshot();
    wall_start_ = sim::metrics::wall_seconds();
    parent_ = &sim::metrics::current_context();
    scope_.emplace(&context_);
  }

  DriverScope(const DriverScope&) = delete;
  DriverScope& operator=(const DriverScope&) = delete;

  ~DriverScope() {
    if (!on()) return;
    scope_.reset();  // charges this thread's CPU time to the run
    manifest_.wall_ms = (sim::metrics::wall_seconds() - wall_start_) * 1e3;
    manifest_.cpu_ms = context_.cpu_seconds() * 1e3;
    manifest_.metrics = context_.snapshot();
    manifest_.version = std::string(version_string());
    try {
      if (parent_counting_) parent_->merge(context_);
      if (telemetry_active_) {
        const TelemetrySnapshot snapshot = collect_telemetry(
            manifest_.experiment,
            sim::telemetry::snapshot().delta_since(telemetry_before_),
            manifest_.wall_ms);
        manifest_.telemetry = snapshot.summaries();
        append_telemetry_snapshot(snapshot);
      }
      if (manifest_out_ != nullptr) {
        *manifest_out_ = manifest_;
      } else if (write_file_) {
        write_run_manifest(manifest_);
      }
    } catch (const std::exception& error) {
      // A destructor must not throw; a manifest or snapshot that cannot be
      // written is diagnostic output lost, not a failed experiment.
      std::fprintf(stderr, "ringent: dropping run observability: %s\n",
                   error.what());
    }
  }

 private:
  bool on() const {
    return manifest_out_ != nullptr || parent_counting_ || telemetry_active_;
  }

  sim::trace::Span span_;
  RunManifest* manifest_out_ = nullptr;
  bool parent_counting_ = false;
  bool write_file_ = false;
  bool telemetry_active_ = false;
  RunManifest manifest_;
  sim::metrics::RunContext context_;
  sim::metrics::RunContext* parent_ = nullptr;
  std::optional<sim::metrics::ContextScope> scope_;
  sim::telemetry::Snapshot telemetry_before_;
  double wall_start_ = 0.0;
};

std::string stage_sweep_label(RingKind kind,
                              const std::vector<std::size_t>& stage_counts) {
  std::string label = kind == RingKind::iro ? "IRO" : "STR";
  label += " stages";
  for (std::size_t stages : stage_counts) {
    label += ' ' + std::to_string(stages);
  }
  return label;
}

}  // namespace

VoltageSweepResult run_voltage_sweep(const VoltageSweepSpec& sweep,
                                     const Calibration& calibration,
                                     const ExperimentOptions& options) {
  sweep.validate();
  // Fn's reference depends on the calibration, so this rule is the
  // driver's, not the spec's; it is checked before anything is simulated.
  const auto is_nominal = [&](double v) {
    return std::abs(v - calibration.nominal_voltage) < 1e-9;
  };
  RINGENT_REQUIRE(
      std::any_of(sweep.voltages.begin(), sweep.voltages.end(), is_nominal),
      "sweep must include the nominal voltage");
  const DriverScope driver_scope("voltage_sweep", sweep.ring.name(), options,
                          sweep.voltages.size());
  VoltageSweepResult out;
  out.spec = sweep.ring;

  out.points = sim::parallel_map(sweep.voltages, options.jobs, [&](double v) {
    const sim::trace::Span span("V=" + std::to_string(v), "axis");
    fpga::Supply supply(calibration.nominal_voltage);
    supply.set_level(v);

    BuildOptions build = base_build_options(options);
    build.supply = &supply;
    Oscillator osc = Oscillator::build(sweep.ring, calibration, build);
    osc.run_periods(sweep.periods);

    VoltageSweepPoint point;
    point.voltage_v = v;
    point.frequency_mhz = measure::mean_frequency_mhz(osc.output());
    return point;
  });
  const sim::metrics::ScopedPhase analyze("analyze");
  for (const auto& point : out.points) {
    if (is_nominal(point.voltage_v)) {
      out.f_nominal_mhz = point.frequency_mhz;
    }
  }

  double f_min = out.points.front().frequency_mhz;
  double f_max = f_min;
  for (auto& point : out.points) {
    point.normalized = point.frequency_mhz / out.f_nominal_mhz;
    f_min = std::min(f_min, point.frequency_mhz);
    f_max = std::max(f_max, point.frequency_mhz);
  }
  out.excursion = (f_max - f_min) / out.f_nominal_mhz;
  return out;
}

TemperatureSweepResult run_temperature_sweep(const TemperatureSweepSpec& sweep,
                                             const Calibration& calibration,
                                             const ExperimentOptions& options) {
  sweep.validate();
  const DriverScope driver_scope("temperature_sweep", sweep.ring.name(),
                                 options, sweep.temperatures.size());
  TemperatureSweepResult out;
  out.spec = sweep.ring;

  out.points =
      sim::parallel_map(sweep.temperatures, options.jobs, [&](double t) {
        const sim::trace::Span span("T=" + std::to_string(t), "axis");
        fpga::Supply supply(calibration.nominal_voltage);
        supply.set_temperature_c(t);

        BuildOptions build = base_build_options(options);
        build.supply = &supply;
        Oscillator osc = Oscillator::build(sweep.ring, calibration, build);
        osc.run_periods(sweep.periods);

        TemperatureSweepPoint point;
        point.temperature_c = t;
        point.frequency_mhz = measure::mean_frequency_mhz(osc.output());
        return point;
      });
  const sim::metrics::ScopedPhase analyze("analyze");
  for (const auto& point : out.points) {
    if (std::abs(point.temperature_c - 25.0) < 1e-9) {
      out.f_nominal_mhz = point.frequency_mhz;
    }
  }

  double f_min = out.points.front().frequency_mhz;
  double f_max = f_min;
  for (auto& point : out.points) {
    point.normalized = point.frequency_mhz / out.f_nominal_mhz;
    f_min = std::min(f_min, point.frequency_mhz);
    f_max = std::max(f_max, point.frequency_mhz);
  }
  out.excursion = (f_max - f_min) / out.f_nominal_mhz;
  return out;
}

ProcessVariabilityResult run_process_variability(
    const ProcessVariabilitySpec& sweep, const Calibration& calibration,
    const ExperimentOptions& options) {
  sweep.validate();
  const DriverScope driver_scope("process_variability", sweep.ring.name(),
                                 options, sweep.board_count);
  ProcessVariabilityResult out;
  out.spec = sweep.ring;

  out.boards = sim::parallel_index_map(
      sweep.board_count, options.jobs, [&](std::size_t b) {
        const sim::trace::Span span("board " + std::to_string(b), "axis");
        const fpga::Board board(options.seed, static_cast<unsigned>(b),
                                calibration.process);
        BuildOptions build = base_build_options(options);
        build.board = &board;
        Oscillator osc = Oscillator::build(sweep.ring, calibration, build);
        osc.run_periods(sweep.periods);

        BoardFrequency bf;
        bf.board = static_cast<unsigned>(b);
        bf.frequency_mhz = measure::mean_frequency_mhz(osc.output());
        return bf;
      });
  const sim::metrics::ScopedPhase analyze("analyze");
  SampleStats stats;
  for (const auto& bf : out.boards) stats.add(bf.frequency_mhz);
  out.mean_mhz = stats.mean();
  out.sigma_rel = stats.relative_stddev();
  return out;
}

std::vector<double> collect_periods_ps(const RingSpec& spec,
                                       const Calibration& calibration,
                                       std::size_t periods,
                                       const ExperimentOptions& options) {
  BuildOptions build = base_build_options(options);
  std::optional<fpga::Board> board;
  if (options.board_index >= 0) {
    board.emplace(options.seed, static_cast<unsigned>(options.board_index),
                  calibration.process);
    build.board = &*board;
  }
  Oscillator osc = Oscillator::build(spec, calibration, build);
  osc.run_periods(periods);
  auto all = analysis::periods_ps(osc.output());
  if (all.size() > periods) all.resize(periods);
  return all;
}

std::vector<JitterPoint> run_jitter_vs_stages(const JitterSweepSpec& sweep,
                                              const Calibration& calibration,
                                              const ExperimentOptions& options) {
  sweep.validate();
  const std::size_t ring_periods =
      (std::size_t{1} << sweep.divider_n) * (sweep.mes_periods + 1) + 2;
  const DriverScope driver_scope(
      sweep.kind == RingKind::iro ? "jitter_vs_stages_iro"
                                  : "jitter_vs_stages_str",
      stage_sweep_label(sweep.kind, sweep.stage_counts), options,
      sweep.stage_counts.size());

  // A ring's cost is proportional to its stage count, and the pool hands out
  // indices in order, so dispatch the longest rings first: a long ring
  // started last would set the makespan. Seeds derive from the stage count,
  // so the order changes no point; the points go back into spec order.
  std::vector<std::size_t> order(sweep.stage_counts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sweep.stage_counts[a] > sweep.stage_counts[b];
                   });
  std::vector<JitterPoint> longest_first = sim::parallel_map(
      order, options.jobs, [&](std::size_t index) {
        const std::size_t stages = sweep.stage_counts[index];
        const sim::trace::Span span("k=" + std::to_string(stages), "axis");
        const RingSpec spec = spec_for(sweep.kind, stages);
        BuildOptions build = base_build_options(options);
        build.noise_seed =
            derive_seed(options.seed, "jitter-vs-stages", stages);
        std::optional<fpga::Board> board;
        if (options.board_index >= 0) {
          board.emplace(options.seed,
                        static_cast<unsigned>(options.board_index),
                        calibration.process);
          build.board = &*board;
        }
        Oscillator osc = Oscillator::build(spec, calibration, build);
        osc.run_periods(ring_periods);

        const std::vector<Time> edges = osc.output().rising_edges();

        const sim::metrics::ScopedPhase analyze("analyze");
        measure::OscilloscopeConfig scope_config = calibration.scope;
        scope_config.seed = derive_seed(options.seed, "scope", stages);
        measure::Oscilloscope scope(scope_config);
        const measure::JitterMethodResult method =
            measure::measure_sigma_p(edges, sweep.divider_n, scope);

        JitterPoint point;
        point.stages = stages;
        point.mean_period_ps = method.mean_period_ps;
        point.sigma_p_ps = method.sigma_p_ps;
        point.sigma_g_ps = measure::iro_sigma_g_ps(method.sigma_p_ps, stages);
        point.sigma_direct_ps = describe(analysis::periods_ps(edges)).stddev();
        return point;
      });
  std::vector<JitterPoint> points(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    points[order[i]] = std::move(longest_first[i]);
  }
  return points;
}

std::vector<ModeMapEntry> run_mode_map(const ModeMapSpec& map,
                                       const Calibration& calibration,
                                       const ExperimentOptions& options) {
  map.validate();
  Calibration scaled = calibration;
  scaled.str_d_charlie = calibration.str_d_charlie.scaled(map.charlie_scale);
  if (scaled.str_d_charlie.is_zero()) {
    // A strictly zero Charlie magnitude makes the delay curve piecewise
    // linear; keep a hair of smoothing for numerical sanity.
    scaled.str_d_charlie = Time::from_ps(1e-3);
  }

  const DriverScope driver_scope(
      "mode_map", "STR " + std::to_string(map.stages) + " stages", options,
      map.token_counts.size());
  return sim::parallel_map(
      map.token_counts, options.jobs, [&](std::size_t tokens) {
        const sim::trace::Span span("NT=" + std::to_string(tokens), "axis");
        const RingSpec spec = RingSpec::str(map.stages, tokens, map.placement);
        BuildOptions build = base_build_options(options);
        build.noise_seed = derive_seed(options.seed, "mode-map", tokens);
        Oscillator osc = Oscillator::build(spec, scaled, build);
        osc.run_periods(map.periods);

        const sim::metrics::ScopedPhase analyze("analyze");
        std::vector<Time> transition_times;
        transition_times.reserve(osc.output().transitions().size());
        for (const auto& tr : osc.output().transitions()) {
          transition_times.push_back(tr.at);
        }
        const ring::ModeAnalysis analysis =
            ring::classify_mode(transition_times);

        ModeMapEntry entry;
        entry.tokens = tokens;
        entry.mode = analysis.mode;
        entry.interval_cv = analysis.interval_cv;
        entry.frequency_mhz = measure::mean_frequency_mhz(osc.output());
        return entry;
      });
}

RestartResult run_restart_experiment(const RestartSpec& restart,
                                     const Calibration& calibration,
                                     const ExperimentOptions& options) {
  restart.validate();
  const DriverScope driver_scope("restart", restart.ring.name(), options,
                                 restart.restarts + 1);
  RestartResult out;
  out.spec = restart.ring;

  const auto run_edges = [&](std::uint64_t noise_seed) {
    BuildOptions build = base_build_options(options);
    build.noise_seed = noise_seed;
    build.warmup_periods = 0;  // restarts observe the transient by design
    Oscillator osc = Oscillator::build(restart.ring, calibration, build);
    osc.run_periods(restart.edges + 2);
    auto out_edges = osc.output().rising_edges();
    out_edges.resize(restart.edges);
    return out_edges;
  };

  // t_k across restarts with independent noise streams, plus one extra task
  // that re-runs restart 0's seed: the control — identical seeds must
  // collapse to zero divergence.
  std::vector<std::vector<Time>> runs = sim::parallel_index_map(
      restart.restarts + 1, options.jobs, [&](std::size_t r) {
        const sim::trace::Span span("restart " + std::to_string(r), "axis");
        const std::uint64_t index = r < restart.restarts ? r : 0;
        return run_edges(derive_seed(options.seed, "restart", index));
      });
  const sim::metrics::ScopedPhase analyze("analyze");
  out.control_identical = runs.front() == runs.back();
  runs.pop_back();

  std::vector<double> ks, spreads;
  for (std::size_t k = 0; k < restart.edges;
       k += std::max<std::size_t>(1, restart.edges / 32)) {
    SampleStats stats;
    for (const auto& run : runs) stats.add(run[k].ps());
    RestartPoint point;
    point.edge = k + 1;
    point.spread_ps = stats.stddev();
    out.points.push_back(point);
    ks.push_back(static_cast<double>(k + 1));
    spreads.push_back(point.spread_ps);
  }
  const auto fit = analysis::sqrt_law_fit(ks, spreads);
  out.diffusion_per_edge_ps = fit.coefficient;
  out.fit_r2 = fit.r2;
  return out;
}

CoherentSweepResult run_coherent_across_boards(const CoherentSweepSpec& sweep,
                                               const Calibration& calibration,
                                               const ExperimentOptions& options) {
  sweep.validate();
  const DriverScope driver_scope("coherent_boards", sweep.ring.name(), options,
                                 sweep.board_count);
  CoherentSweepResult out;
  out.spec = sweep.ring;
  out.design_detune = sweep.design_detune;

  out.boards = sim::parallel_index_map(
      sweep.board_count, options.jobs, [&](std::size_t b) {
        const sim::trace::Span span("board " + std::to_string(b), "axis");
        const fpga::Board board(options.seed, static_cast<unsigned>(b),
                                calibration.process);

        BuildOptions b0 = base_build_options(options);
        b0.board = &board;
        b0.lut_base = 0;
        Oscillator osc0 = Oscillator::build(sweep.ring, calibration, b0);

        BuildOptions b1 = base_build_options(options);
        b1.board = &board;
        b1.lut_base = 128;
        b1.delay_scale = 1.0 + sweep.design_detune;
        Oscillator osc1 = Oscillator::build(sweep.ring, calibration, b1);

        osc0.run_periods(sweep.periods);
        osc1.run_periods(sweep.periods);

        const sim::metrics::ScopedPhase analyze("analyze");
        const auto result = trng::coherent_sampling_bits(
            osc0.output().transitions(), osc1.output().rising_edges());

        CoherentBoardResult row;
        row.board = static_cast<unsigned>(b);
        row.half_beat_samples = result.median_run_length;
        row.implied_detune = 1.0 / (2.0 * result.median_run_length);
        row.bits = result.bits.size();
        if (result.bits.size() >= 100) {
          row.lsb_bias = analysis::bit_bias(result.bits);
        }
        return row;
      });
  SampleStats detunes;
  for (const auto& row : out.boards) {
    detunes.add(row.implied_detune);
    out.worst_deviation = std::max(
        out.worst_deviation,
        std::abs(row.implied_detune - sweep.design_detune));
  }
  out.detune_mean = detunes.mean();
  out.detune_sigma = detunes.stddev();
  return out;
}

std::vector<DeterministicJitterPoint> run_deterministic_jitter(
    const DeterministicJitterSpec& sweep, const Calibration& calibration,
    const ExperimentOptions& options) {
  sweep.validate();
  const DriverScope driver_scope(
      sweep.kind == RingKind::iro ? "deterministic_jitter_iro"
                                  : "deterministic_jitter_str",
      stage_sweep_label(sweep.kind, sweep.stage_counts), options,
      sweep.stage_counts.size());
  return sim::parallel_map(
      sweep.stage_counts, options.jobs, [&](std::size_t stages) {
        const sim::trace::Span span("k=" + std::to_string(stages), "axis");
        const RingSpec spec = spec_for(sweep.kind, stages);

        fpga::Supply supply(calibration.nominal_voltage);
        supply.set_modulation(fpga::Modulation::sine(
            sweep.modulation_amplitude_v, sweep.modulation_frequency_hz));

        BuildOptions build = base_build_options(options);
        build.supply = &supply;
        build.noise_seed = derive_seed(options.seed, "det-jitter", stages);
        Oscillator osc = Oscillator::build(spec, calibration, build);
        osc.run_periods(sweep.periods);

        const sim::metrics::ScopedPhase analyze("analyze");
        std::vector<double> periods = analysis::periods_ps(osc.output());
        if (periods.size() > sweep.periods) periods.resize(sweep.periods);

        DeterministicJitterPoint point;
        point.stages = stages;
        point.mean_period_ps = describe(periods).mean();
        // The tone sits at f_mod expressed in cycles per period sample.
        const double tone_freq =
            sweep.modulation_frequency_hz * point.mean_period_ps * 1e-12;
        point.tone_ps = analysis::tone_amplitude(periods, tone_freq);
        point.tone_relative = point.tone_ps / point.mean_period_ps;

        // Residual random jitter with the deterministic tone subtracted; the
        // cycle-to-cycle statistic then also suppresses what little slow
        // residue the single-tone fit leaves (sigma_cc = sqrt(2) *
        // sigma_white).
        const std::vector<double> residual =
            analysis::remove_tone(periods, tone_freq);
        const analysis::JitterSummary summary =
            analysis::summarize_jitter(residual);
        point.random_ps = summary.cycle_to_cycle_jitter_ps / std::sqrt(2.0);
        return point;
      });
}

AttackResilienceSpec AttackResilienceSpec::paper_default() {
  using noise::FaultEvent;
  using noise::FaultScenario;
  const Time us = Time::from_us(1.0);

  AttackResilienceSpec spec;
  // The attack study claims H = 0.3 per raw bit (the certification study's
  // conditioned floor), giving an RCT cutoff of 68 and an APT cutoff of 887
  // over 1024-bit windows. The healthy APT count sits near 512 +- 16, so the
  // suspect threshold must clear 0.8x the cutoff to avoid flapping.
  spec.policy.claimed_min_entropy = 0.3;
  spec.policy.suspect_fraction = 0.8;

  // The tone amplitude is tuned (noise-free bisection) so the trough supply
  // level parks the 25-stage IRO's sampled beat f*Ts at 16.000: the
  // attacker's lock-in point. At the same amplitude the 24-stage STR's beat
  // stays ~0.26-0.30 periods from the nearest integer at both tone extremes.
  const double lock_amp_v = 0.103715;

  FaultScenario quiet;  // named "quiet" by default; no events

  FaultScenario tone;
  tone.name = "supply-tone";
  tone.events.push_back(
      FaultEvent::tone(us * 100, us * 700, lock_amp_v, 2000.0));

  FaultScenario brownout;
  brownout.name = "brown-out";
  brownout.events.push_back(FaultEvent::ramp(us * 150, us * 250, -lock_amp_v));
  brownout.events.push_back(
      FaultEvent::brownout(us * 250, us * 650, lock_amp_v));

  FaultScenario stuck;
  stuck.name = "stuck-stage";
  stuck.events.push_back(FaultEvent::stuck(us * 100, us * 900, 3));

  FaultScenario drift;
  drift.name = "delay-drift";
  drift.events.push_back(FaultEvent::drift(us * 100, us * 900, 60.0));

  FaultScenario kick;
  kick.name = "mode-kick";
  kick.events.push_back(FaultEvent::kick(us * 200, us * 400, 80.0, 12));

  spec.scenarios = {quiet, tone, brownout, stuck, drift, kick};
  return spec;
}

EntropyMapResult run_entropy_map(const EntropyMapSpec& spec,
                                 const Calibration& calibration,
                                 const ExperimentOptions& options) {
  spec.validate();

  std::string label;
  for (const RingKind kind : spec.kinds) {
    if (!label.empty()) label += " + ";
    label += kind == RingKind::iro ? "IRO" : "STR";
  }
  label += " stages x " + std::to_string(spec.stage_counts.size()) +
           ", periods x " + std::to_string(spec.sampling_periods.size());

  const std::size_t periods = spec.sampling_periods.size();
  const std::size_t per_kind = spec.stage_counts.size() * periods;
  const std::size_t cells = spec.kinds.size() * per_kind;
  const DriverScope driver_scope("entropy_map", label, options, cells);

  EntropyMapResult out;
  out.cells = sim::parallel_index_map(cells, options.jobs, [&](std::size_t i) {
    const RingKind kind = spec.kinds[i / per_kind];
    const std::size_t stages = spec.stage_counts[(i / periods) %
                                                 spec.stage_counts.size()];
    const Time sampling_period = spec.sampling_periods[i % periods];
    const RingSpec ring = spec_for(kind, stages);
    char period_label[32];
    std::snprintf(period_label, sizeof period_label, "%gns",
                  sampling_period.ns());
    const sim::trace::Span span(ring.name() + " @ " + period_label, "axis");

    RingSourceConfig config;
    config.spec = ring;
    config.sampling_period = sampling_period;
    config.seed = derive_seed(options.seed, "entropy-map", i);
    config.warmup_periods = options.warmup_periods;
    config.supply_nominal_v = calibration.nominal_voltage;
    RingBitSource source(config, calibration, noise::FaultScenario{});

    const bool watch = telemetry_active();
    trng::telemetry::StreamingEntropy stream;
    if (watch) source.attach_telemetry(&stream);

    analysis::BitStream bits;
    bits.reserve(spec.bits_per_cell);
    for (std::size_t b = 0; b < spec.bits_per_cell; ++b) {
      bits.append(source.next_bit() != 0);
    }

    // Restart matrix: `restart_rows` relock cycles through the source's
    // deterministic relock machinery (fresh noise stream per row, fault
    // schedule — here quiet — stays in absolute time).
    analysis::RestartMatrix matrix;
    if (spec.restart_rows > 0) {
      matrix.rows = spec.restart_rows;
      matrix.cols = spec.restart_cols;
      matrix.bits.reserve(spec.restart_rows * spec.restart_cols);
      for (std::size_t r = 0; r < spec.restart_rows; ++r) {
        source.restart(r + 1);
        for (std::size_t c = 0; c < spec.restart_cols; ++c) {
          matrix.bits.append(source.next_bit() != 0);
        }
      }
    }

    const sim::metrics::ScopedPhase analyze("analyze");
    EntropyMapCell cell;
    cell.ring = ring;
    cell.sampling_period = sampling_period;
    cell.estimate = analysis::estimate_entropy90b(bits, spec.battery);
    if (spec.restart_rows > 0) {
      cell.restart_run = true;
      cell.restart = analysis::validate_restarts(
          matrix, std::max(0.0, cell.estimate.min_entropy), spec.battery);
    }
    if (watch) {
      trng::telemetry::publish(trng::telemetry::StreamStats::capture(
          ring.name() + "@" + period_label, stream));
    }
    return cell;
  });

  const sim::metrics::ScopedPhase analyze("analyze");
  for (const auto& cell : out.cells) {
    const double h = cell.estimate.min_entropy;
    if (h >= 0.0 &&
        (out.floor_min_entropy < 0.0 || h < out.floor_min_entropy)) {
      out.floor_min_entropy = h;
    }
  }
  return out;
}

AttackResilienceResult run_attack_resilience(const AttackResilienceSpec& spec,
                                             const Calibration& calibration,
                                             const ExperimentOptions& options) {
  spec.validate();

  std::string label;
  for (const auto& ring : spec.rings) {
    if (!label.empty()) label += " + ";
    label += ring.name();
  }
  label += " x " + std::to_string(spec.scenarios.size()) + " scenarios";

  const std::size_t cells = spec.rings.size() * spec.scenarios.size();
  const DriverScope driver_scope("attack_resilience", label, options, cells);

  AttackResilienceResult out;
  out.cells = sim::parallel_index_map(cells, options.jobs, [&](std::size_t i) {
    const RingSpec& ring = spec.rings[i / spec.scenarios.size()];
    const noise::FaultScenario& scenario =
        spec.scenarios[i % spec.scenarios.size()];
    const sim::trace::Span span(ring.name() + " / " + scenario.name, "axis");

    RingSourceConfig config;
    config.spec = ring;
    config.sampling_period = spec.sampling_period;
    config.seed = derive_seed(options.seed, "attack", i);
    config.warmup_periods = options.warmup_periods;
    config.supply_nominal_v = calibration.nominal_voltage;
    config.regulator = spec.regulator;
    RingBitSource primary(config, calibration, scenario);

    // The backup ring shares the rail (supply faults are common-mode across
    // the die) but not the primary's stage-local faults.
    std::optional<RingBitSource> backup;
    if (spec.with_backup) {
      RingSourceConfig backup_config = config;
      backup_config.seed = derive_seed(options.seed, "attack-backup", i);
      backup.emplace(backup_config, calibration, scenario.supply_only());
    }

    trng::ResilientGenerator generator(primary, backup ? &*backup : nullptr,
                                       spec.policy);

    // When a telemetry sink is live, watch both the DFF-sampled raw stream
    // (pre-monitor) and the supervised stream the generator actually sees;
    // both readings are published under this cell's label.
    const bool watch = telemetry_active();
    trng::telemetry::StreamingEntropy raw_stream;
    trng::telemetry::StreamingEntropy monitored_stream;
    if (watch) {
      primary.attach_telemetry(&raw_stream);
      generator.attach_telemetry(&monitored_stream);
    }

    // Phase 1 spans the scenario's fault windows; phase 2 is the post-attack
    // health check on whatever budget remains.
    const double end_samples = scenario.end() / spec.sampling_period;
    const std::size_t attack_bits = std::min<std::size_t>(
        spec.total_bits, static_cast<std::size_t>(std::ceil(end_samples)));
    const auto during = generator.generate(attack_bits);
    const auto after = generator.generate(spec.total_bits - attack_bits);

    const sim::metrics::ScopedPhase analyze("analyze");
    const trng::ResilientStats& stats = generator.stats();
    AttackResilienceCell cell;
    cell.ring = ring;
    cell.scenario = scenario.name;
    cell.final_state = generator.state();
    cell.raw_bits = stats.bits_in;
    cell.emitted_bits = stats.bits_out;
    cell.muted_bits = stats.bits_muted;
    cell.muted_fraction =
        stats.bits_in == 0 ? 0.0
                           : static_cast<double>(stats.bits_muted) /
                                 static_cast<double>(stats.bits_in);
    if (stats.alarmed) {
      cell.detection_latency_bits =
          static_cast<std::int64_t>(stats.first_alarm_bit);
      if (stats.recovered) {
        cell.recovery_bits = static_cast<std::int64_t>(stats.recovered_bit -
                                                       stats.first_alarm_bit);
      }
    }
    cell.rct_alarms = stats.rct_alarms;
    cell.apt_alarms = stats.apt_alarms;
    cell.relock_attempts = stats.relock_attempts;
    cell.failovers = stats.failovers;
    cell.fault_activations =
        primary.injector().activations() +
        (backup ? backup->injector().activations() : 0);
    cell.post_attack_bits = after.size();
    if (!after.empty()) {
      std::size_t ones = 0;
      for (std::uint8_t b : after) ones += b;
      cell.post_attack_bias =
          static_cast<double>(ones) / static_cast<double>(after.size());
    }
    cell.transitions = generator.transitions();
    // 90B battery over everything the consumer saw: measured entropy, to
    // set against the health events above. Muting shortens this stream, so
    // short cells legitimately report -1 (no estimator ran).
    {
      analysis::BitStream emitted;
      emitted.reserve(during.size() + after.size());
      for (const std::uint8_t b : during) emitted.append(b != 0);
      for (const std::uint8_t b : after) emitted.append(b != 0);
      const analysis::Entropy90bResult battery =
          analysis::estimate_entropy90b(emitted);
      cell.emitted_min_entropy = battery.min_entropy;
      cell.emitted_h_markov = battery.h_markov;
    }
    if (watch) {
      const std::string cell_label = ring.name() + "/" + scenario.name;
      trng::telemetry::publish(trng::telemetry::StreamStats::capture(
          cell_label + ":raw", raw_stream));
      trng::telemetry::publish(trng::telemetry::StreamStats::capture(
          cell_label + ":monitored", monitored_stream));
    }
    return cell;
  });

  for (const auto& cell : out.cells) {
    out.total_transitions += cell.transitions.size();
  }
  return out;
}

EntropyServiceResult run_entropy_service(const EntropyServiceSpec& spec,
                                         const Calibration& calibration,
                                         const ExperimentOptions& options) {
  spec.validate();

  service::PoolConfig pool_config;
  pool_config.slots = spec.slots;
  pool_config.workers =
      std::min(sim::resolve_jobs(options.jobs), spec.slots);
  pool_config.seed = options.seed;
  pool_config.raw_bits_per_slot = spec.raw_bits_per_slot;
  pool_config.conditioner = spec.conditioner;
  pool_config.conditioner_ratio = spec.conditioner_ratio;
  pool_config.ring_capacity = spec.ring_capacity;
  // Simulated rings emit ~1 bit per ms of wall time; keep the pump quantum
  // small so conditioned bytes reach the ring long before the front-end's
  // wait budget expires (a full-size quantum would starve the consumer).
  pool_config.pump_raw_bits = spec.synthetic ? 4096 : 256;
  pool_config.policy = spec.policy;

  std::string label = spec.synthetic ? "synthetic" : spec.ring.name();
  label += " x " + std::to_string(spec.slots) + " slots / " +
           service::conditioner_kind_name(spec.conditioner);
  const DriverScope driver_scope("entropy_service", label, options,
                                 spec.slots);

  // Real-ring slots own their RingBitSources through the BitSource pointers
  // the factory hands back, so no extra lifetime bookkeeping is needed.
  service::SourceFactory factory;
  if (spec.synthetic) {
    factory = [](std::size_t, std::uint64_t seed) {
      service::SlotSources sources;
      sources.primary = std::make_unique<service::PrngBitSource>(seed);
      sources.backup = std::make_unique<service::PrngBitSource>(
          derive_seed(seed, "backup"));
      return sources;
    };
  } else {
    factory = [&spec, &calibration](std::size_t, std::uint64_t seed) {
      RingSourceConfig config;
      config.spec = spec.ring;
      config.sampling_period = spec.sampling_period;
      config.seed = seed;
      config.supply_nominal_v = calibration.nominal_voltage;
      service::SlotSources sources;
      sources.primary = std::make_unique<RingBitSource>(
          config, calibration, noise::FaultScenario{});
      RingSourceConfig backup_config = config;
      backup_config.seed = derive_seed(seed, "backup");
      sources.backup = std::make_unique<RingBitSource>(
          backup_config, calibration, noise::FaultScenario{});
      return sources;
    };
  }

  service::GeneratorPool pool(pool_config, factory);
  service::FrontendConfig frontend_config;
  frontend_config.block_bytes = spec.block_bytes;
  frontend_config.wait_budget = std::chrono::milliseconds(
      spec.wait_budget_ms != 0 ? spec.wait_budget_ms
                               : (spec.synthetic ? 250 : 10000));
  service::EntropyService frontend(pool, frontend_config);

  EntropyServiceResult out;
  out.workers = pool.worker_count();

  const double wall_start = sim::metrics::wall_seconds();
  pool.start();
  std::vector<std::uint8_t> request(spec.request_bytes);
  std::uint64_t fnv = 1469598103934665603ull;  // FNV-1a offset basis
  try {
    for (;;) {
      const std::size_t got =
          frontend.acquire(std::span<std::uint8_t>(request));
      for (std::size_t i = 0; i < got; ++i) {
        if (out.head.size() < 32) out.head.push_back(request[i]);
        fnv = (fnv ^ request[i]) * 1099511628211ull;
      }
    }
  } catch (const service::StarvationError&) {
    // The drain's normal end: every slot exhausted its budget.
  }
  pool.stop();
  out.wall_seconds = sim::metrics::wall_seconds() - wall_start;

  const service::FrontendStats& fstats = frontend.stats();
  const service::PoolStats pstats = pool.stats();
  out.requests = fstats.requests;
  out.bytes_delivered = fstats.bytes_delivered;
  out.starvations = fstats.starvations;
  out.raw_bits_in = pstats.raw_bits_in;
  out.slots_failed = pstats.slots_failed;
  out.stream_fnv = fnv;
  if (out.wall_seconds > 0.0) {
    out.bytes_per_sec =
        static_cast<double>(out.bytes_delivered) / out.wall_seconds;
    out.requests_per_sec =
        static_cast<double>(out.requests) / out.wall_seconds;
  }
  return out;
}

}  // namespace ringent::core
