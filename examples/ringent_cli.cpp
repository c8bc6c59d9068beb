// ringent_cli — command-line front end over the characterization library.
//
//   ringent_cli characterize str 96 [--periods 20000] [--board 0] [--seed S]
//   ringent_cli sweep-voltage iro 5 [--from 1.0] [--to 1.4] [--step 0.05]
//   ringent_cli sweep-temperature str 96 [--from -20] [--to 85] [--step 15]
//   ringent_cli modes 32 [--charlie-scale 1.0] [--clustered]
//   ringent_cli predict 32 10            (analytic steady state, no sim)
//   ringent_cli trng str 24 [--rate-mhz 4] [--bits 16384]
//   ringent_cli vcd str 16 --out ring.vcd [--tokens 4] [--clustered]
//   ringent_cli serve-bench [--slots 4] [--max-workers 4] [--conditioner lfsr]
//   ringent_cli --list                   (enumerate registered experiments)
//   ringent_cli run <experiment> [--spec FILE] [--seed S] [--jobs N]
//               [--metrics] [--telemetry FILE]
//   ringent_cli campaign run <plan.json> [--dir DIR] [--shard i/N]
//               [--jobs N] [--max-cells N]
//   ringent_cli campaign status <plan.json> [--dir DIR]
//   ringent_cli campaign verify <plan.json> [--dir DIR]
//
// `run` dispatches through core::experiment_registry(): it executes the
// named driver's small default spec — or, with --spec FILE, the JSON spec
// document in FILE (unknown/missing keys are rejected with the experiment's
// schema name) — and prints the run manifest run_spec returned, which it
// also writes to RINGENT_OUT_DIR or cwd.
// --telemetry streams a "ringent.telemetry/1" snapshot of the run to FILE;
// --metrics additionally prints the full counter/phase/histogram breakdown
// as a human-readable table on stderr (stdout keeps the stable manifest
// summary, so scripts scraping it are unaffected).
//
// `campaign run` expands the plan into content-addressed cells and executes
// only the ones the store (DIR, default <plan-stem>.campaign) has no valid
// record for — re-running after an interruption (even SIGKILL) resumes
// where it died; re-running a complete campaign is a pure cache scan.
// `--shard i/N` makes this process responsible for every N-th cell, for
// multi-process fan-out over a shared store. `status` reports cache
// coverage without running anything; `verify` recomputes every planned key
// and checks record integrity, orphans and the index.
//
// Exit code 0 on success, 2 on usage errors, 1 on runtime errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/autocorr.hpp"
#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "analysis/entropy.hpp"
#include "analysis/jitter.hpp"
#include "analysis/normality.hpp"
#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "sim/metrics.hpp"
#include "measure/frequency.hpp"
#include "ring/analytic.hpp"
#include "ring/mode.hpp"
#include "sim/vcd.hpp"
#include "sim/vcd_read.hpp"
#include "trng/elementary.hpp"
#include "trng/entropy_model.hpp"
#include "trng/health.hpp"
#include "trng/nist.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

/// Minimal option parser: positional args plus --key value / --flag.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          options_[key] = argv[++i];
        } else {
          options_[key] = "";
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  double number(const std::string& key, double fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : std::strtod(it->second.c_str(),
                                                         nullptr);
  }
  long integer(const std::string& key, long fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback
                                : std::strtol(it->second.c_str(), nullptr, 10);
  }
  std::string text(const std::string& key, std::string fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? std::move(fallback) : it->second;
  }
  bool flag(const std::string& key) const { return options_.count(key) != 0; }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

RingSpec parse_spec(const std::string& kind, const std::string& stages,
                    const Args& args) {
  const auto n = static_cast<std::size_t>(std::strtoul(stages.c_str(),
                                                       nullptr, 10));
  if (kind == "iro") return RingSpec::iro(n);
  if (kind == "str") {
    const auto tokens = static_cast<std::size_t>(args.integer("tokens", 0));
    const auto placement = args.flag("clustered")
                               ? ring::TokenPlacement::clustered
                               : ring::TokenPlacement::evenly_spread;
    return RingSpec::str(n, tokens, placement);
  }
  throw PreconditionError("ring kind must be 'iro' or 'str'");
}

BuildOptions build_options(const Args& args, const fpga::Board** board_out,
                           std::optional<fpga::Board>& board_storage) {
  BuildOptions build;
  build.noise_seed = static_cast<std::uint64_t>(args.integer("seed", 20120312));
  const long board = args.integer("board", -1);
  if (board >= 0) {
    board_storage.emplace(build.noise_seed, static_cast<unsigned>(board),
                          cyclone_iii().process);
    build.board = &*board_storage;
    *board_out = build.board;
  }
  return build;
}

int cmd_characterize(const Args& args) {
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  std::optional<fpga::Board> board;
  const fpga::Board* bp = nullptr;
  BuildOptions build = build_options(args, &bp, board);
  Oscillator osc = Oscillator::build(spec, cyclone_iii(), build);
  const auto periods_wanted =
      static_cast<std::size_t>(args.integer("periods", 20000));
  osc.run_periods(periods_wanted);

  const auto periods = analysis::periods_ps(osc.output());
  const auto jitter = analysis::summarize_jitter(periods);
  const auto jb = analysis::jarque_bera(periods);

  std::printf("%s on the calibrated Cyclone III model%s\n",
              spec.name().c_str(), bp != nullptr ? " (with board mismatch)" :
                                                    "");
  std::printf("  frequency       : %s\n",
              fmt_mhz(measure::mean_frequency_mhz(osc.output())).c_str());
  std::printf("  mean period     : %s\n",
              fmt_ps(jitter.mean_period_ps, 1).c_str());
  std::printf("  period jitter   : %s\n",
              fmt_ps(jitter.period_jitter_ps).c_str());
  std::printf("  c2c jitter      : %s\n",
              fmt_ps(jitter.cycle_to_cycle_jitter_ps).c_str());
  std::printf("  lag-1 autocorr  : %+.3f\n",
              analysis::autocorrelation(periods, 1));
  std::printf("  gaussianity (JB): p = %.3f (%s)\n", jb.p_value,
              jb.gaussian ? "accept" : "reject");
  std::printf("  samples         : %zu periods\n", jitter.samples);
  return 0;
}

int cmd_sweep_voltage(const Args& args) {
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  std::vector<double> volts;
  for (double v = args.number("from", 1.0);
       v <= args.number("to", 1.4) + 1e-9; v += args.number("step", 0.05)) {
    volts.push_back(v);
  }
  // The driver normalizes at the nominal voltage; make sure the grid has it.
  const double v_nom = cyclone_iii().nominal_voltage;
  if (std::none_of(volts.begin(), volts.end(), [&](double v) {
        return std::abs(v - v_nom) < 1e-9;
      })) {
    volts.push_back(v_nom);
    std::sort(volts.begin(), volts.end());
  }
  const auto sweep =
      run_voltage_sweep(VoltageSweepSpec{spec, volts}, cyclone_iii());
  Table table({"V", "F (MHz)", "Fn"});
  for (const auto& p : sweep.points) {
    table.add_row({fmt_double(p.voltage_v, 2), fmt_double(p.frequency_mhz, 2),
                   fmt_double(p.normalized, 4)});
  }
  std::printf("%s\nexcursion dF = %s\n", table.str().c_str(),
              fmt_percent(sweep.excursion, 1).c_str());
  return 0;
}

int cmd_sweep_temperature(const Args& args) {
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  std::vector<double> temps;
  for (double t = args.number("from", -20.0);
       t <= args.number("to", 85.0) + 1e-9; t += args.number("step", 15.0)) {
    temps.push_back(t);
  }
  // Normalization point is 25 C; insert it when the grid skips it.
  if (std::none_of(temps.begin(), temps.end(), [](double t) {
        return std::abs(t - 25.0) < 1e-9;
      })) {
    temps.push_back(25.0);
    std::sort(temps.begin(), temps.end());
  }
  const auto sweep =
      run_temperature_sweep(TemperatureSweepSpec{spec, temps}, cyclone_iii());
  Table table({"T (C)", "F (MHz)", "Fn"});
  for (const auto& p : sweep.points) {
    table.add_row({fmt_double(p.temperature_c, 0),
                   fmt_double(p.frequency_mhz, 2),
                   fmt_double(p.normalized, 4)});
  }
  std::printf("%s\nexcursion dF = %s\n", table.str().c_str(),
              fmt_percent(sweep.excursion, 2).c_str());
  return 0;
}

int cmd_modes(const Args& args) {
  const auto stages = static_cast<std::size_t>(
      std::strtoul(args.positional().at(0).c_str(), nullptr, 10));
  std::vector<std::size_t> token_counts;
  for (std::size_t nt = 2; nt < stages; nt += 2) token_counts.push_back(nt);
  ModeMapSpec map_spec;
  map_spec.stages = stages;
  map_spec.token_counts = token_counts;
  map_spec.placement = args.flag("clustered")
                           ? ring::TokenPlacement::clustered
                           : ring::TokenPlacement::evenly_spread;
  map_spec.charlie_scale = args.number("charlie-scale", 1.0);
  const auto map = run_mode_map(map_spec, cyclone_iii());
  Table table({"NT", "mode", "CV", "F (MHz)"});
  for (const auto& e : map) {
    table.add_row({std::to_string(e.tokens), ring::to_string(e.mode),
                   fmt_double(e.interval_cv, 4),
                   fmt_double(e.frequency_mhz, 1)});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

int cmd_predict(const Args& args) {
  const auto stages = static_cast<std::size_t>(
      std::strtoul(args.positional().at(0).c_str(), nullptr, 10));
  const auto tokens = static_cast<std::size_t>(
      std::strtoul(args.positional().at(1).c_str(), nullptr, 10));
  const auto& cal = cyclone_iii();
  const auto pred = ring::predict_steady_state(
      ring::CharlieParams::symmetric(cal.str_d_static, cal.str_d_charlie),
      cal.str_routing.per_hop_delay(stages), stages, tokens);
  std::printf("analytic steady state, STR %zuC with NT = %zu:\n", stages,
              tokens);
  std::printf("  period          : %s  (%.2f MHz)\n",
              fmt_ps(pred.period.ps(), 1).c_str(), pred.frequency_mhz);
  std::printf("  forward hop d_f : %s\n",
              fmt_ps(pred.forward_hop.ps(), 1).c_str());
  std::printf("  reverse hop d_r : %s\n",
              fmt_ps(pred.reverse_hop.ps(), 1).c_str());
  std::printf("  separation s    : %s\n",
              fmt_ps(pred.separation.ps(), 1).c_str());
  std::printf("  locking margin  : %.3f\n", pred.locking_margin);
  std::printf("  ideal NT (Eq. 1): %.1f\n",
              ring::ideal_token_count(
                  ring::CharlieParams::symmetric(cal.str_d_static,
                                                 cal.str_d_charlie),
                  stages));
  return 0;
}

int cmd_trng(const Args& args) {
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  const Time fs = Time::from_ns(1e3 / args.number("rate-mhz", 4.0));
  const auto bits_wanted =
      static_cast<std::size_t>(args.integer("bits", 16384));

  std::optional<fpga::Board> board;
  const fpga::Board* bp = nullptr;
  BuildOptions build = build_options(args, &bp, board);
  build.warmup_periods = 128;
  Oscillator osc = Oscillator::build(spec, cyclone_iii(), build);
  osc.run_periods(static_cast<std::size_t>(
      fs.ps() / osc.nominal_period().ps() * (bits_wanted + 2.0) + 256));

  trng::ElementaryTrngConfig config;
  config.sampling_period = fs;
  config.start = osc.output().transitions().front().at;
  const auto bits = trng::elementary_trng_bits(osc.output(), config,
                                               bits_wanted);

  std::printf("%s sampled at %.2f MHz, %zu bits\n", spec.name().c_str(),
              1e6 / fs.ps(), bits.size());
  std::printf("  bias = %.4f   H1 = %.4f   H8 = %.4f\n",
              analysis::bit_bias(bits),
              analysis::shannon_entropy_per_bit(bits),
              analysis::block_entropy_per_bit(bits, 8));
  const auto battery = trng::nist_battery(bits);
  for (const auto& r : battery.results) {
    std::printf("  %-20s p = %.4f  %s\n", r.name.c_str(), r.p_value,
                r.pass ? "pass" : "FAIL");
  }
  // On-line health tests with the claim derived from the measured jitter.
  const auto periods = analysis::periods_ps(osc.output());
  const auto jitter = analysis::summarize_jitter(periods);
  const double claim = std::max(
      0.05, trng::entropy_lower_bound(jitter.period_jitter_ps,
                                      jitter.mean_period_ps, fs));
  const auto health = trng::run_health_tests(bits, claim);
  std::printf("  health (claim H >= %.3f): RCT %s (C=%u), APT %s (C=%u)\n",
              claim, health.rct_pass ? "ok" : "ALARM", health.rct_cutoff_used,
              health.apt_pass ? "ok" : "ALARM", health.apt_cutoff_used);
  return battery.all_pass ? 0 : 1;
}

int cmd_restart(const Args& args) {
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  const auto restarts = static_cast<unsigned>(args.integer("restarts", 64));
  const auto edges = static_cast<std::size_t>(args.integer("edges", 256));
  const auto result = run_restart_experiment(RestartSpec{spec, restarts, edges},
                                             cyclone_iii());
  std::printf("restart technique on %s (%u restarts, %zu edges):\n",
              spec.name().c_str(), restarts, edges);
  std::printf("  same-seed control: %s\n",
              result.control_identical ? "bit-identical (ok)" : "BROKEN");
  for (const auto& p : result.points) {
    std::printf("  k=%4zu  spread = %8.2f ps\n", p.edge, p.spread_ps);
  }
  std::printf("  diffusion = %.2f ps/sqrt(edge)  (R^2 = %.3f)\n",
              result.diffusion_per_edge_ps, result.fit_r2);
  return 0;
}

int cmd_analyze_vcd(const Args& args) {
  const auto doc = sim::read_vcd_file(args.positional().at(0));
  std::printf("%s: module '%s', %zu signals, timescale %lld fs\n",
              args.positional().at(0).c_str(), doc.module_name.c_str(),
              doc.signals.size(),
              static_cast<long long>(doc.timescale_fs));
  for (const auto& sig : doc.signals) {
    const auto& trace = sig.trace;
    if (trace.transitions().size() < 4) {
      std::printf("  %-12s %zu transitions (too few to analyze)\n",
                  sig.name.c_str(), trace.transitions().size());
      continue;
    }
    const auto periods = analysis::periods_ps(trace);
    std::vector<Time> times;
    for (const auto& tr : trace.transitions()) times.push_back(tr.at);
    const auto mode = ring::classify_mode(times);
    if (periods.size() >= 3) {
      const auto jitter = analysis::summarize_jitter(periods);
      std::printf("  %-12s %6zu transitions  F = %8.2f MHz  sigma_p = %6.2f "
                  "ps  mode: %s\n",
                  sig.name.c_str(), trace.transitions().size(),
                  1e6 / jitter.mean_period_ps, jitter.period_jitter_ps,
                  ring::to_string(mode.mode));
    } else {
      std::printf("  %-12s %6zu transitions  mode: %s\n", sig.name.c_str(),
                  trace.transitions().size(), ring::to_string(mode.mode));
    }
  }
  return 0;
}

int cmd_vcd(const Args& args) {
  const RingSpec spec =
      parse_spec(args.positional().at(0), args.positional().at(1), args);
  RINGENT_REQUIRE(spec.kind == RingKind::str,
                  "vcd currently dumps STR stage waves");
  const std::string out = args.text("out", "ring.vcd");

  BuildOptions build;
  build.trace_all_stages = true;
  build.warmup_periods = 0;
  build.sigma_g_ps = args.number("sigma-g", -1.0);
  Oscillator osc = Oscillator::build(spec, cyclone_iii(), build);
  osc.run_periods(static_cast<std::size_t>(args.integer("periods", 64)));

  sim::VcdWriter vcd("ringent");
  for (const auto& trace : osc.str()->stage_traces()) vcd.add_signal(trace);
  vcd.write_file(out);
  std::printf("wrote %s (%zu stages)\n", out.c_str(), spec.stages);
  return 0;
}

int cmd_list() {
  Table table({"experiment", "summary", "source"});
  for (const auto& entry : experiment_registry()) {
    table.add_row({entry.name, entry.summary, entry.source});
  }
  std::printf("%s%zu experiments; run one with: ringent_cli run <name>\n",
              table.str().c_str(), experiment_registry().size());
  return 0;
}

/// The --metrics table: every non-zero counter, every phase timer and every
/// histogram summary of the run, on `out` (stderr — stdout keeps the stable
/// manifest summary).
void print_metrics_table(const RunManifest& manifest, std::FILE* out) {
  std::fprintf(out, "== metrics: %s ==\n", manifest.experiment.c_str());
  std::fprintf(out, "-- counters --\n");
  for (std::size_t i = 0; i < sim::metrics::counter_count; ++i) {
    const auto counter = static_cast<sim::metrics::Counter>(i);
    const std::uint64_t value = manifest.metrics.counter(counter);
    if (value == 0) continue;
    std::fprintf(out, "  %-26s %14llu\n",
                 std::string(sim::metrics::counter_name(counter)).c_str(),
                 static_cast<unsigned long long>(value));
  }
  if (!manifest.metrics.phases.empty()) {
    std::fprintf(out, "-- phases --\n");
    std::fprintf(out, "  %-26s %10s %10s %8s\n", "name", "wall ms", "cpu ms",
                 "calls");
    for (const auto& phase : manifest.metrics.phases) {
      std::fprintf(out, "  %-26s %10.2f %10.2f %8llu\n", phase.name.c_str(),
                   phase.wall_ms, phase.cpu_ms,
                   static_cast<unsigned long long>(phase.calls));
    }
  }
  if (!manifest.telemetry.empty()) {
    std::fprintf(out, "-- histograms --\n");
    std::fprintf(out, "  %-26s %10s %12s %10s %10s %10s %10s\n", "name",
                 "count", "mean", "p50", "p90", "p99", "p99.9");
    for (const auto& h : manifest.telemetry) {
      std::fprintf(out,
                   "  %-26s %10llu %12.1f %10llu %10llu %10llu %10llu\n",
                   h.name.c_str(), static_cast<unsigned long long>(h.count),
                   h.mean, static_cast<unsigned long long>(h.p50),
                   static_cast<unsigned long long>(h.p90),
                   static_cast<unsigned long long>(h.p99),
                   static_cast<unsigned long long>(h.p999));
    }
  }
}

int cmd_run(const Args& args) {
  const std::string& name = args.positional().at(0);
  const ExperimentDescriptor* exp = find_experiment(name);
  if (exp == nullptr) {
    std::fprintf(stderr, "error: unknown experiment '%s' (see --list)\n",
                 name.c_str());
    return 2;
  }
  ExperimentOptions options;
  options.seed = static_cast<std::uint64_t>(args.integer("seed", 20120312));
  options.jobs = static_cast<std::size_t>(args.integer("jobs", 0));

  const std::string telemetry = args.text("telemetry", "");
  if (!telemetry.empty()) core::set_telemetry_path(telemetry);

  const std::string spec_path = args.text("spec", "");
  RunManifest manifest;
  if (spec_path.empty()) {
    manifest = exp->run_small(cyclone_iii(), options);
  } else {
    std::ifstream in(spec_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open spec file '%s'\n",
                   spec_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // A bad spec throws ringent::Error naming the schema and the offending
    // key (core/spec_json.cpp); main() prints it and exits 1.
    manifest = exp->run_spec(Json::parse(text.str()), cyclone_iii(), options);
  }
  std::printf("%s — %s (%s)\n", exp->name.c_str(), exp->summary.c_str(),
              exp->source.c_str());
  std::printf("  spec    : %s\n", manifest.spec.c_str());
  std::printf("  seed    : %llu\n",
              static_cast<unsigned long long>(manifest.seed));
  std::printf("  tasks   : %zu across %zu workers\n", manifest.tasks,
              manifest.jobs);
  std::printf("  wall    : %.1f ms (cpu %.1f ms)\n", manifest.wall_ms,
              manifest.cpu_ms);
  std::printf("  version : %s\n", manifest.version.c_str());
  std::printf("  counters (non-zero):\n");
  for (std::size_t i = 0; i < sim::metrics::counter_count; ++i) {
    const auto counter = static_cast<sim::metrics::Counter>(i);
    const std::uint64_t value = manifest.metrics.counter(counter);
    if (value != 0) {
      const std::string label(sim::metrics::counter_name(counter));
      std::printf("    %-24s %llu\n", label.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  write_run_manifest(manifest);
  std::printf("  manifest: %s.manifest.json (in RINGENT_OUT_DIR or cwd)\n",
              manifest.experiment.c_str());
  if (!telemetry.empty()) {
    std::printf("  telemetry: %s\n", telemetry.c_str());
  }
  if (args.flag("metrics")) print_metrics_table(manifest, stderr);
  return 0;
}

/// Store directory for a plan: --dir when given, else the plan path with
/// its .json extension swapped for .campaign (grand_sweep.json ->
/// grand_sweep.campaign, next to the plan).
std::string campaign_dir(const Args& args, const std::string& plan_path) {
  const std::string dir = args.text("dir", "");
  if (!dir.empty()) return dir;
  std::string stem = plan_path;
  const std::string ext = ".json";
  if (stem.size() > ext.size() &&
      stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
    stem.resize(stem.size() - ext.size());
  }
  return stem + ".campaign";
}

int cmd_campaign(const Args& args) {
  const std::string& action = args.positional().at(0);
  const std::string& plan_path = args.positional().at(1);
  const campaign::CampaignPlan plan = campaign::load_plan(plan_path);
  const campaign::ResultStore store(campaign_dir(args, plan_path));

  if (action == "run") {
    campaign::CampaignRunOptions options;
    options.jobs = static_cast<std::size_t>(args.integer("jobs", 0));
    options.max_cells =
        static_cast<std::size_t>(args.integer("max-cells", 0));
    const std::string shard = args.text("shard", "");
    if (!shard.empty()) {
      std::size_t index = 0, count = 0;
      const auto slash = shard.find('/');
      char* end = nullptr;
      if (slash != std::string::npos) {
        index = std::strtoul(shard.c_str(), &end, 10);
        count = std::strtoul(shard.c_str() + slash + 1, nullptr, 10);
      }
      if (slash == std::string::npos || count == 0 || index >= count) {
        std::fprintf(stderr,
                     "error: --shard wants i/N with 0 <= i < N, got '%s'\n",
                     shard.c_str());
        return 2;
      }
      options.shard_index = index;
      options.shard_count = count;
    }
    options.progress = [](const std::string& line) {
      std::printf("  %s\n", line.c_str());
    };
    std::printf("campaign '%s' -> %s\n", plan.name.c_str(),
                store.dir().c_str());
    const campaign::CampaignReport report =
        campaign::run_campaign(plan, store, options);
    std::printf("planned %zu cells (%zu in shard): %zu cached, %zu executed, "
                "%zu remaining\n",
                report.planned, report.in_shard, report.cached,
                report.executed, report.remaining);
    return report.complete() ? 0 : 1;
  }

  if (action == "status") {
    const campaign::CampaignReport report =
        campaign::campaign_status(plan, store);
    std::printf("campaign '%s' at %s: %zu/%zu cells cached, %zu to run\n",
                plan.name.c_str(), store.dir().c_str(), report.cached,
                report.planned, report.remaining);
    return report.complete() ? 0 : 1;
  }

  if (action == "verify") {
    const campaign::VerifyReport report =
        campaign::verify_campaign(plan, store);
    std::printf("campaign '%s' at %s:\n", plan.name.c_str(),
                store.dir().c_str());
    std::printf("  planned %zu: %zu valid, %zu missing, %zu torn; "
                "%zu orphan cells; index %s\n",
                report.planned, report.valid, report.missing, report.torn,
                report.orphans,
                report.index_consistent ? "consistent" : "INCONSISTENT");
    std::printf("verify: %s\n", report.ok() ? "PASS" : "FAIL");
    return report.ok() ? 0 : 1;
  }

  std::fprintf(stderr,
               "error: campaign action must be run|status|verify, got '%s'\n",
               action.c_str());
  return 2;
}

int cmd_serve_bench(const Args& args) {
  // Sweep the entropy service's worker count and report throughput; then
  // verify that the delivered stream is bit-identical at every worker count
  // (the service's central determinism contract).
  EntropyServiceSpec spec;
  spec.slots = static_cast<std::size_t>(args.integer("slots", 4));
  spec.raw_bits_per_slot =
      static_cast<std::uint64_t>(args.integer("bits-per-slot", 1 << 18));
  spec.conditioner =
      service::parse_conditioner_kind(args.text("conditioner", "lfsr"));
  spec.conditioner_ratio =
      static_cast<std::size_t>(args.integer("ratio", 2));
  spec.synthetic = !args.flag("real-rings");
  if (spec.synthetic) {
    // Real ring slots are simulation-rate-limited; keep their budget small.
  } else if (!args.flag("bits-per-slot")) {
    spec.raw_bits_per_slot = 1 << 14;
  }
  const std::size_t max_workers =
      static_cast<std::size_t>(args.integer("max-workers", 4));
  ExperimentOptions options;
  options.seed = static_cast<std::uint64_t>(args.integer("seed", 20120312));

  std::printf("entropy service saturation bench (%s sources, %zu slots, "
              "%llu raw bits/slot, %s conditioner /%zu)\n",
              spec.synthetic ? "synthetic" : spec.ring.name().c_str(),
              spec.slots,
              static_cast<unsigned long long>(spec.raw_bits_per_slot),
              service::conditioner_kind_name(spec.conditioner),
              spec.conditioner_ratio);
  std::printf("  %-8s %-12s %-14s %-14s %-10s\n", "workers", "bytes",
              "bytes/sec", "requests/sec", "stream-fnv");

  std::uint64_t reference_fnv = 0;
  std::uint64_t reference_bytes = 0;
  bool identical = true;
  for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
    options.jobs = workers;
    const EntropyServiceResult result =
        run_entropy_service(spec, cyclone_iii(), options);
    std::printf("  %-8zu %-12llu %-14.3e %-14.3e %016llx\n", result.workers,
                static_cast<unsigned long long>(result.bytes_delivered),
                result.bytes_per_sec, result.requests_per_sec,
                static_cast<unsigned long long>(result.stream_fnv));
    if (workers == 1) {
      reference_fnv = result.stream_fnv;
      reference_bytes = result.bytes_delivered;
    } else if (result.stream_fnv != reference_fnv ||
               result.bytes_delivered != reference_bytes) {
      identical = false;
    }
  }
  std::printf("cross-worker bit-identity: %s\n",
              identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: ringent_cli <command> ...\n"
      "  characterize <iro|str> <stages> [--periods N] [--board B] [--seed S]\n"
      "  sweep-voltage <iro|str> <stages> [--from V] [--to V] [--step V]\n"
      "  sweep-temperature <iro|str> <stages> [--from C] [--to C] [--step C]\n"
      "  modes <stages> [--charlie-scale X] [--clustered]\n"
      "  predict <stages> <tokens>\n"
      "  trng <iro|str> <stages> [--rate-mhz F] [--bits N] [--board B]\n"
      "  restart <iro|str> <stages> [--restarts N] [--edges N]\n"
      "  analyze-vcd <file>\n"
      "  vcd str <stages> [--out FILE] [--tokens N] [--clustered] "
      "[--periods N]\n"
      "  serve-bench [--slots N] [--bits-per-slot N] [--conditioner "
      "lfsr|hash]\n"
      "              [--ratio N] [--max-workers N] [--real-rings] [--seed S]\n"
      "  --list | list                (registered experiments)\n"
      "  run <experiment> [--spec FILE] [--seed S] [--jobs N] [--metrics]\n"
      "      [--telemetry FILE]\n"
      "  campaign run <plan.json> [--dir DIR] [--shard i/N] [--jobs N]\n"
      "               [--max-cells N]\n"
      "  campaign status <plan.json> [--dir DIR]\n"
      "  campaign verify <plan.json> [--dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (command == "characterize" && args.positional().size() >= 2)
      return cmd_characterize(args);
    if (command == "sweep-voltage" && args.positional().size() >= 2)
      return cmd_sweep_voltage(args);
    if (command == "sweep-temperature" && args.positional().size() >= 2)
      return cmd_sweep_temperature(args);
    if (command == "modes" && args.positional().size() >= 1)
      return cmd_modes(args);
    if (command == "predict" && args.positional().size() >= 2)
      return cmd_predict(args);
    if (command == "trng" && args.positional().size() >= 2)
      return cmd_trng(args);
    if (command == "restart" && args.positional().size() >= 2)
      return cmd_restart(args);
    if (command == "analyze-vcd" && args.positional().size() >= 1)
      return cmd_analyze_vcd(args);
    if (command == "vcd" && args.positional().size() >= 2)
      return cmd_vcd(args);
    if (command == "serve-bench") return cmd_serve_bench(args);
    if (command == "--list" || command == "list") return cmd_list();
    if (command == "run" && args.positional().size() >= 1)
      return cmd_run(args);
    if (command == "campaign" && args.positional().size() >= 2)
      return cmd_campaign(args);
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::out_of_range&) {
    return usage();
  }
}
