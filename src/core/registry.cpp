#include "core/registry.hpp"

#include <string>
#include <utility>

namespace ringent::core {

namespace {

/// Build one descriptor from an experiment's Spec type, its committed small
/// default instance and its driver function. The JSON surface (schema id,
/// default_spec, canonicalize, run_spec) falls out of the Spec's
/// to_json/from_json pair; run_small forwards run_spec over the default, so
/// every smoke run also exercises the deserializer.
template <typename Spec, typename Driver>
ExperimentDescriptor make_entry(const char* name, const char* summary,
                                const char* source, Spec small_spec,
                                Driver driver) {
  ExperimentDescriptor entry;
  entry.name = name;
  entry.summary = summary;
  entry.source = source;
  entry.spec_schema = std::string(Spec::spec_schema);
  entry.default_spec = [small_spec] { return small_spec.to_json(); };
  entry.canonicalize = [](const Json& json) {
    return Spec::from_json(json).to_json();
  };
  entry.run_spec = [driver](const Json& json, const Calibration& cal,
                            const ExperimentOptions& options) {
    const Spec spec = Spec::from_json(json);
    RunManifest manifest;
    ExperimentOptions run_options = options;
    run_options.manifest_out = &manifest;
    driver(spec, cal, run_options);
    return manifest;
  };
  entry.run_small = [run = entry.run_spec, spec_json = small_spec.to_json()](
                        const Calibration& cal,
                        const ExperimentOptions& options) {
    return run(spec_json, cal, options);
  };
  return entry;
}

std::vector<ExperimentDescriptor> build_registry() {
  std::vector<ExperimentDescriptor> registry;

  registry.push_back(make_entry(
      "voltage_sweep",
      "normalized frequency vs supply voltage (IRO sensitivity)",
      "paper Fig. 8",
      VoltageSweepSpec{RingSpec::iro(3), {1.1, 1.2, 1.3}, 30},
      [](const VoltageSweepSpec& spec, const Calibration& cal,
         const ExperimentOptions& options) {
        run_voltage_sweep(spec, cal, options);
      }));

  registry.push_back(make_entry(
      "temperature_sweep",
      "normalized frequency vs die temperature at nominal voltage",
      "extension of paper ref [1]",
      TemperatureSweepSpec{RingSpec::str(4), {15.0, 25.0, 35.0}, 30},
      [](const TemperatureSweepSpec& spec, const Calibration& cal,
         const ExperimentOptions& options) {
        run_temperature_sweep(spec, cal, options);
      }));

  registry.push_back(make_entry(
      "process_variability",
      "same bitstream across simulated boards, frequency spread",
      "paper Sec. V-C / Table II",
      ProcessVariabilitySpec{RingSpec::iro(5), 3, 30},
      [](const ProcessVariabilitySpec& spec, const Calibration& cal,
         const ExperimentOptions& options) {
        run_process_variability(spec, cal, options);
      }));

  {
    JitterSweepSpec sweep;
    sweep.kind = RingKind::iro;
    sweep.stage_counts = {3, 5};
    sweep.divider_n = 4;
    sweep.mes_periods = 20;
    registry.push_back(make_entry(
        "jitter_vs_stages",
        "period jitter vs ring length through the divider/scope chain",
        "paper Figs. 11-12", sweep,
        [](const JitterSweepSpec& spec, const Calibration& cal,
           const ExperimentOptions& options) {
          run_jitter_vs_stages(spec, cal, options);
        }));
  }

  {
    ModeMapSpec map_spec;
    map_spec.stages = 8;
    map_spec.token_counts = {2, 4};
    map_spec.placement = ring::TokenPlacement::clustered;
    map_spec.periods = 120;
    registry.push_back(make_entry(
        "mode_map",
        "STR steady-state mode (evenly spaced / burst) per token count",
        "paper Sec. V-A", map_spec,
        [](const ModeMapSpec& spec, const Calibration& cal,
           const ExperimentOptions& options) {
          run_mode_map(spec, cal, options);
        }));
  }

  registry.push_back(make_entry(
      "restart",
      "restart technique: k-th edge spread growth across identical starts",
      "standard TRNG entropy validation",
      RestartSpec{RingSpec::iro(5), 8, 16},
      [](const RestartSpec& spec, const Calibration& cal,
         const ExperimentOptions& options) {
        run_restart_experiment(spec, cal, options);
      }));

  registry.push_back(make_entry(
      "coherent_boards",
      "coherent-sampling beat window across process-varied boards",
      "paper conclusion / Table II consequence",
      CoherentSweepSpec{RingSpec::iro(3), 0.05, 2, 500},
      [](const CoherentSweepSpec& spec, const Calibration& cal,
         const ExperimentOptions& options) {
        run_coherent_across_boards(spec, cal, options);
      }));

  {
    DeterministicJitterSpec sweep;
    sweep.kind = RingKind::iro;
    sweep.stage_counts = {3, 5};
    sweep.periods = 256;
    registry.push_back(make_entry(
        "deterministic_jitter",
        "supply-tone leakage into the period sequence per ring length",
        "paper Sec. IV-B", sweep,
        [](const DeterministicJitterSpec& spec, const Calibration& cal,
           const ExperimentOptions& options) {
          run_deterministic_jitter(spec, cal, options);
        }));
  }

  {
    // Both topologies, one short ring, two sampling periods, a few
    // hundred bits per cell plus a small restart matrix — enough for
    // MCV/collision/Markov/t-tuple to run, small enough for a CLI
    // smoke run.
    EntropyMapSpec spec;
    spec.stage_counts = {5};  // valid for both IRO and STR (NT = 2)
    spec.sampling_periods = {Time::from_ns(250.0), Time::from_ns(500.0)};
    spec.bits_per_cell = 512;
    spec.restart_rows = 4;
    spec.restart_cols = 32;
    registry.push_back(make_entry(
        "entropy_map",
        "SP 800-90B min-entropy over sampling period x ring length",
        "NIST SP 800-90B Sec. 6.3 / ROADMAP deeper entropy claims", spec,
        [](const EntropyMapSpec& s, const Calibration& cal,
           const ExperimentOptions& options) {
          run_entropy_map(s, cal, options);
        }));
  }

  {
    // One ring, two scenarios (quiet + the tuned supply tone) and
    // enough bits to cross the tone's detection point — small
    // enough for a CLI smoke run, rich enough that the manifest's
    // health counters are non-trivial.
    AttackResilienceSpec spec = AttackResilienceSpec::paper_default();
    spec.rings = {RingSpec::iro(25)};
    spec.scenarios = {spec.scenarios.at(0), spec.scenarios.at(1)};
    spec.total_bits = 2000;
    registry.push_back(make_entry(
        "attack_resilience",
        "fault scenarios vs the health-monitored generator pipeline",
        "paper Sec. IV-B attack, AIS 31-style online tests", spec,
        [](const AttackResilienceSpec& s, const Calibration& cal,
           const ExperimentOptions& options) {
          run_attack_resilience(s, cal, options);
        }));
  }

  {
    // Synthetic sources keep the smoke run fast; the budget is small
    // but big enough that every slot produces several blocks and the
    // manifest carries non-trivial counters.
    EntropyServiceSpec spec;
    spec.slots = 2;
    spec.raw_bits_per_slot = 1u << 14;
    registry.push_back(make_entry(
        "entropy_service",
        "conditioned streaming TRNG service: pool -> rings -> front-end",
        "ROADMAP entropy-as-a-service tentpole", spec,
        [](const EntropyServiceSpec& s, const Calibration& cal,
           const ExperimentOptions& options) {
          run_entropy_service(s, cal, options);
        }));
  }

  return registry;
}

}  // namespace

const std::vector<ExperimentDescriptor>& experiment_registry() {
  static const std::vector<ExperimentDescriptor> registry = build_registry();
  return registry;
}

const ExperimentDescriptor* find_experiment(std::string_view name) {
  for (const auto& entry : experiment_registry()) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace ringent::core
