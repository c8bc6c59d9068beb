// The experiment registry is the CLI's dispatch surface: every driver must
// be present exactly once, lookups must be total, and run_small must hand
// back the driver's own run manifest without leaking global metrics state.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "campaign/store.hpp"
#include "common/json.hpp"
#include "core/export.hpp"
#include "core/registry.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

using namespace ringent;
using namespace ringent::core;

TEST(Registry, CoversEveryDriverExactlyOnce) {
  const auto& registry = experiment_registry();
  EXPECT_EQ(registry.size(), 11u);

  std::set<std::string> names;
  for (const auto& entry : registry) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_FALSE(entry.summary.empty());
    EXPECT_FALSE(entry.source.empty());
    EXPECT_TRUE(static_cast<bool>(entry.run_small)) << entry.name;
    // The JSON-spec surface (campaign orchestration) is total: every
    // experiment declares a schema, committed defaults, a validating
    // canonicalizer and a run_spec entry point.
    EXPECT_EQ(entry.spec_schema.rfind("ringent.spec.", 0), 0u) << entry.name;
    EXPECT_TRUE(static_cast<bool>(entry.default_spec)) << entry.name;
    EXPECT_TRUE(static_cast<bool>(entry.canonicalize)) << entry.name;
    EXPECT_TRUE(static_cast<bool>(entry.run_spec)) << entry.name;
    EXPECT_TRUE(names.insert(entry.name).second)
        << "duplicate name: " << entry.name;
  }
  // The full roster, including the attack-resilience pipeline, the 90B
  // entropy map and the conditioned-streaming entropy service.
  for (const char* name :
       {"voltage_sweep", "temperature_sweep", "process_variability",
        "jitter_vs_stages", "mode_map", "restart", "coherent_boards",
        "deterministic_jitter", "attack_resilience", "entropy_map",
        "entropy_service"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

TEST(Registry, FindExperimentIsTotal) {
  const ExperimentDescriptor* found = find_experiment("attack_resilience");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, "attack_resilience");
  EXPECT_EQ(find_experiment("no-such-experiment"), nullptr);
  EXPECT_EQ(find_experiment(""), nullptr);
}

TEST(Registry, RunSmallReturnsTheDriversManifestAndRestoresMetricsState) {
  // Metrics are off going in; run_small must still return the driver's
  // manifest (built from the run's own context) and leave them off.
  ASSERT_FALSE(sim::metrics::enabled());
  const ExperimentDescriptor* exp = find_experiment("restart");
  ASSERT_NE(exp, nullptr);

  ExperimentOptions options;
  options.jobs = 2;
  const RunManifest manifest = exp->run_small(cyclone_iii(), options);
  EXPECT_FALSE(sim::metrics::enabled());

  EXPECT_EQ(manifest.experiment, "restart");
  EXPECT_EQ(manifest.jobs, 2u);
  EXPECT_GT(manifest.tasks, 0u);
  EXPECT_EQ(manifest.seed, options.seed);
  EXPECT_GT(manifest.metrics.counter(sim::metrics::Counter::events_fired),
            0u);
}

namespace {

/// Two registry runs big enough (tens of milliseconds each) that, started
/// together, they overlap.
struct TwoRuns {
  const ExperimentDescriptor* restart = find_experiment("restart");
  const ExperimentDescriptor* sweep = find_experiment("voltage_sweep");
  Json restart_spec = restart->default_spec();
  Json sweep_spec = sweep->default_spec();
  ExperimentOptions options;

  TwoRuns() {
    restart_spec.set("restarts", Json(std::int64_t(48)));
    restart_spec.set("edges", Json(std::int64_t(4096)));
    sweep_spec.set("periods", Json(std::int64_t(60000)));
    options.jobs = 2;
  }

  /// A manifest without its machine- and timing-dependent fields.
  static std::string normalized(const RunManifest& manifest) {
    RunManifest copy = campaign::normalize_manifest(manifest);
    copy.version.clear();
    return copy.to_json().dump();
  }
  std::string run_restart() const {
    return normalized(restart->run_spec(restart_spec, cyclone_iii(), options));
  }
  std::string run_sweep() const {
    return normalized(sweep->run_spec(sweep_spec, cyclone_iii(), options));
  }
};

}  // namespace

TEST(Registry, ConcurrentRunSpecCallsEachGetExactlyTheirOwnManifest) {
  // Two threads calling the registry at once must each get the manifest a
  // lone call gets: the counters of its own run, none of the other's.
  const TwoRuns runs;
  const std::string restart_alone = runs.run_restart();
  const std::string sweep_alone = runs.run_sweep();
  ASSERT_NE(restart_alone, sweep_alone);

  for (int trial = 0; trial < 3; ++trial) {
    std::latch start(2);
    std::string restart_together;
    std::string sweep_together;
    std::thread first([&] {
      start.arrive_and_wait();
      restart_together = runs.run_restart();
    });
    std::thread second([&] {
      start.arrive_and_wait();
      sweep_together = runs.run_sweep();
    });
    first.join();
    second.join();
    EXPECT_EQ(restart_together, restart_alone) << "trial " << trial;
    EXPECT_EQ(sweep_together, sweep_alone) << "trial " << trial;
  }
  EXPECT_FALSE(sim::metrics::enabled());
}

TEST(Registry, EntropyServiceManifestCountsItsPoolWorkers) {
  // The service simulates its rings on pool threads it starts itself; those
  // threads count into the run's context like sweep tasks do. (Only the
  // ring construction happens on the driver's own thread.)
  const ExperimentDescriptor* service = find_experiment("entropy_service");
  ASSERT_NE(service, nullptr);
  Json spec = service->default_spec();
  spec.set("synthetic", Json(false));
  spec.set("raw_bits_per_slot", Json(std::int64_t(64)));
  spec.set("request_bytes", Json(std::int64_t(4)));
  spec.set("block_bytes", Json(std::int64_t(4)));
  ExperimentOptions options;
  options.jobs = 2;
  const RunManifest manifest =
      service->run_spec(spec, cyclone_iii(), options);
  EXPECT_GT(manifest.metrics.counter(sim::metrics::Counter::events_fired),
            100000u);
  EXPECT_GT(
      manifest.metrics.counter(sim::metrics::Counter::charlie_evaluations),
      100000u);
}

TEST(Registry, RunSpecWritesNoManifestFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("ringent-registry-out-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const char* previous = std::getenv("RINGENT_OUT_DIR");
  const std::string saved = previous != nullptr ? previous : "";
  setenv("RINGENT_OUT_DIR", dir.c_str(), 1);

  ExperimentOptions options;
  options.jobs = 1;
  const RunManifest manifest =
      find_experiment("restart")->run_small(cyclone_iii(), options);
  EXPECT_EQ(manifest.experiment, "restart");
  EXPECT_TRUE(fs::is_empty(dir)) << "run_spec must return its manifest, "
                                    "not write it";

  if (previous != nullptr) {
    setenv("RINGENT_OUT_DIR", saved.c_str(), 1);
  } else {
    unsetenv("RINGENT_OUT_DIR");
  }
  fs::remove_all(dir);
}

TEST(Registry, EveryDriverStreamsATelemetrySnapshot) {
  // With a sink configured, each of the 11 drivers must append exactly one
  // "ringent.telemetry/1" line under its own experiment slug and embed the
  // histogram summaries in its manifest.
  const std::string path = "registry_telemetry_sink.jsonl";
  std::remove(path.c_str());
  set_telemetry_path(path);
  ASSERT_TRUE(telemetry_active());

  ExperimentOptions options;
  options.jobs = 1;
  std::size_t runs = 0;
  for (const auto& entry : experiment_registry()) {
    const RunManifest manifest = entry.run_small(cyclone_iii(), options);
    ++runs;

    const auto last = last_telemetry_snapshot();
    ASSERT_TRUE(last.has_value()) << entry.name;
    // Some drivers suffix the slug with the ring kind (jitter_vs_stages_iro).
    EXPECT_EQ(last->experiment.rfind(entry.name, 0), 0u)
        << last->experiment << " vs " << entry.name;
    EXPECT_FALSE(last->histograms.empty()) << entry.name;
    EXPECT_EQ(manifest.telemetry.size(), last->histograms.size())
        << entry.name;
  }

  set_telemetry_path("");
  sim::telemetry::reset();

  // The sink file is one parseable snapshot line per driver run.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::set<std::string> experiments;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    experiments.insert(
        TelemetrySnapshot::from_json(Json::parse(line)).experiment);
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(lines, runs);
  EXPECT_EQ(experiments.size(), runs);  // one distinct slug per driver
}
