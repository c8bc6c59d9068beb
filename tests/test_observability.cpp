// Tests for the observability layer: hand-counted kernel metrics, phase
// timers, JSON values, run manifests (schema + round trip), Chrome-trace
// span files and the shared bench CLI.
//
// Metrics and trace state are process-global; every test that enables them
// uses the RAII guards below so a failing assertion cannot leak an enabled
// collector into later tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cli.hpp"
#include "common/json.hpp"
#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/export.hpp"
#include "noise/jitter.hpp"
#include "ring/iro.hpp"
#include "ring/str.hpp"
#include "sim/kernel.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"

using namespace ringent;
using namespace ringent::literals;
namespace metrics = ringent::sim::metrics;
namespace trace = ringent::sim::trace;

namespace {

/// Enables metrics from a clean slate; disables and wipes on exit.
class MetricsGuard {
 public:
  MetricsGuard() {
    metrics::set_enabled(true);
    metrics::reset();
  }
  ~MetricsGuard() {
    metrics::set_enabled(false);
    metrics::reset();
  }
};

/// Points RINGENT_OUT_DIR at a fresh temp directory; restores on exit.
class OutDirGuard {
 public:
  OutDirGuard() {
    char pattern[] = "/tmp/ringent_obs_XXXXXX";
    const char* dir = mkdtemp(pattern);
    RINGENT_REQUIRE(dir != nullptr, "mkdtemp failed");
    dir_ = dir;
    const char* previous = std::getenv("RINGENT_OUT_DIR");
    if (previous != nullptr) previous_ = previous;
    setenv("RINGENT_OUT_DIR", dir_.c_str(), 1);
  }
  ~OutDirGuard() {
    if (previous_.empty()) {
      unsetenv("RINGENT_OUT_DIR");
    } else {
      setenv("RINGENT_OUT_DIR", previous_.c_str(), 1);
    }
  }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string previous_;
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  RINGENT_REQUIRE(f != nullptr, "cannot open " + path);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

// --- counters: hand-counted event totals ------------------------------------

TEST(Metrics, IroCountersMatchHandCount) {
  // A noise-free IRO is a single circulating event: start() schedules one,
  // every fire schedules exactly one successor. After run_events(N) the
  // totals are forced: N fired, N+1 scheduled (the last one still pending),
  // and the default kernel queue is the binary heap, so the queue ops match
  // one-to-one.
  const MetricsGuard guard;
  sim::Kernel kernel;
  ring::IroConfig config;
  config.stages = 3;
  config.lut_delay = 250_ps;
  ring::Iro iro(kernel, config, {});
  iro.start();

  constexpr std::uint64_t kEvents = 1000;
  kernel.run_events(kEvents);

  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), kEvents);
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), kEvents + 1);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes), kEvents + 1);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), kEvents);
  EXPECT_EQ(snap.counter(metrics::Counter::calendar_pushes), 0u);
  EXPECT_EQ(snap.counter(metrics::Counter::charlie_evaluations), 0u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_cancelled), 0u);
  EXPECT_EQ(kernel.events_fired(), kEvents);  // agrees with the kernel's own
}

TEST(Metrics, StrCountsCharlieEvaluationsPerSchedule) {
  // Every event an STR schedules prices its firing through the Charlie
  // model exactly once, and every eligibility probe is counted.
  const MetricsGuard guard;
  sim::Kernel kernel;
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::Str str(kernel, config,
                ring::make_initial_state(8, 4,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.start();
  kernel.run_events(2000);

  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::charlie_evaluations),
            snap.counter(metrics::Counter::events_scheduled));
  EXPECT_GE(snap.counter(metrics::Counter::token_collision_checks),
            snap.counter(metrics::Counter::charlie_evaluations));
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 2000u);
}

TEST(Metrics, ResetTimeCountsCancelledEvents) {
  const MetricsGuard guard;
  sim::Kernel kernel;
  ring::IroConfig config;
  config.stages = 3;
  ring::Iro iro(kernel, config, {});
  iro.start();
  kernel.run_events(10);
  // Exactly one successor event is pending; reset_time drops it.
  kernel.reset_time();
  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::events_cancelled), 1u);
}

TEST(Metrics, DisabledCountersStayZero) {
  metrics::set_enabled(false);
  metrics::reset();
  sim::Kernel kernel;
  ring::IroConfig config;
  config.stages = 3;
  ring::Iro iro(kernel, config, {});
  iro.start();
  kernel.run_events(500);
  const metrics::Snapshot snap = metrics::snapshot();
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(snap.counters[i], 0u) << metrics::counter_name(
        static_cast<metrics::Counter>(i));
  }
  EXPECT_TRUE(snap.phases.empty());
}

TEST(Metrics, PoolTasksCountsEveryIndex) {
  const MetricsGuard guard;
  std::atomic<int> ran{0};
  sim::parallel_for_each(13, 2, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 13);
  EXPECT_EQ(metrics::snapshot().counter(metrics::Counter::pool_tasks), 13u);
}

TEST(Metrics, ScopedPhaseAccumulates) {
  const MetricsGuard guard;
  for (int i = 0; i < 3; ++i) {
    const metrics::ScopedPhase phase("unit-test-phase");
    // Burn a little CPU so the timer has something nonzero to record.
    volatile double x = 1.0;
    for (int j = 0; j < 20000; ++j) x = x * 1.0000001;
  }
  const metrics::Snapshot snap = metrics::snapshot();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].name, "unit-test-phase");
  EXPECT_EQ(snap.phases[0].calls, 3u);
  EXPECT_GT(snap.phases[0].wall_ms, 0.0);
  EXPECT_GE(snap.phases[0].cpu_ms, 0.0);
}

TEST(Metrics, DeltaSinceSubtractsCountersAndPhases) {
  const MetricsGuard guard;
  metrics::bump(metrics::Counter::events_fired, 7);
  { const metrics::ScopedPhase phase("p"); }
  const metrics::Snapshot before = metrics::snapshot();
  metrics::bump(metrics::Counter::events_fired, 5);
  { const metrics::ScopedPhase phase("p"); }
  { const metrics::ScopedPhase phase("q"); }
  const metrics::Snapshot delta = metrics::snapshot().delta_since(before);
  EXPECT_EQ(delta.counter(metrics::Counter::events_fired), 5u);
  ASSERT_EQ(delta.phases.size(), 2u);
  for (const auto& phase : delta.phases) {
    EXPECT_EQ(phase.calls, 1u) << phase.name;
  }
}

// --- deferred kernel counts -------------------------------------------------
//
// Inside a drain the kernel counts into a plain array and publishes it when
// the drain exits (sim/kernel.hpp). These pin the edges of that contract.

namespace {

/// Self-rescheduling process with hooks for the k-th fire.
class Ticker final : public sim::Process {
 public:
  void fire(sim::Kernel& kernel, std::uint32_t tag) override {
    ++fires;
    if (fires == throw_at) throw std::runtime_error("ticker fault");
    if (fires == disable_at) metrics::set_enabled(false);
    if (fires == nest_at) kernel.run_events(1);
    kernel.schedule_in(1_ps, self, tag);
  }
  sim::NodeId self = sim::invalid_node;
  std::uint64_t fires = 0;
  std::uint64_t throw_at = 0;
  std::uint64_t disable_at = 0;
  std::uint64_t nest_at = 0;
};

struct TickerKernel {
  TickerKernel() {
    ticker.self = kernel.add_process(&ticker);
    kernel.schedule_in(1_ps, ticker.self);
  }
  sim::Kernel kernel;
  Ticker ticker;
};

enum class Route { run_until, run_until_on, run_events };

metrics::Snapshot str_counts_by_route(Route route) {
  sim::Kernel kernel;
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 120_ps);
  std::vector<std::unique_ptr<noise::NoiseSource>> bank;
  for (std::size_t i = 0; i < config.stages; ++i) {
    bank.push_back(std::make_unique<noise::GaussianNoise>(2.0, 900 + i));
  }
  ring::Str str(
      kernel, config,
      ring::make_initial_state(8, 4, ring::TokenPlacement::evenly_spread),
      std::move(bank));
  const metrics::Snapshot before = metrics::snapshot();
  str.start();
  const Time t_end = 300_ns;
  switch (route) {
    case Route::run_until:
      kernel.run_until(t_end);
      break;
    case Route::run_until_on:
      kernel.run_until_on(str, t_end);
      break;
    case Route::run_events:
      // run_until(300 ns) on this ring fires 3156 events (pinned below),
      // the same first 3156 events on every route.
      kernel.run_events(3156);
      break;
  }
  return metrics::snapshot().delta_since(before);
}

}  // namespace

TEST(Metrics, ThrowingFirePublishesTheEventsFiredSoFar) {
  const MetricsGuard guard;
  TickerKernel sim;
  sim.ticker.throw_at = 10;
  EXPECT_THROW(sim.kernel.run_events(100), std::runtime_error);

  // The throwing event was popped and delivered, so it counts as fired, as
  // it did when every event was counted on its own.
  metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 10u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), 10u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 10u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes), 10u);
  EXPECT_EQ(sim.kernel.events_fired(), 10u);

  // The kernel left its drain: a schedule now is counted at once, and the
  // next drain runs and publishes normally.
  sim.kernel.schedule_in(1_ps, sim.ticker.self);
  snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 11u);
  EXPECT_EQ(sim.kernel.run_events(5), 5u);
  snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 15u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), 15u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 16u);
}

TEST(Metrics, RunEventsAndRunUntilOnPublishTheSameTotalsAsRunUntil) {
  const MetricsGuard guard;
  const metrics::Snapshot until = str_counts_by_route(Route::run_until);
  const metrics::Snapshot until_on = str_counts_by_route(Route::run_until_on);
  const metrics::Snapshot events = str_counts_by_route(Route::run_events);
  ASSERT_EQ(until.counter(metrics::Counter::events_fired), 3156u);
  EXPECT_GT(until.counter(metrics::Counter::charlie_evaluations), 3156u);
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    const auto name = metrics::counter_name(static_cast<metrics::Counter>(i));
    EXPECT_EQ(until_on.counters[i], until.counters[i]) << name;
    EXPECT_EQ(events.counters[i], until.counters[i]) << name;
  }
}

TEST(Metrics, DrainEndingWhileDisabledPublishesNothingAndCarriesNothing) {
  const MetricsGuard guard;
  TickerKernel sim;  // its start-up schedule is counted at once
  sim.ticker.disable_at = 20;
  sim.kernel.run_events(50);
  EXPECT_FALSE(metrics::enabled());
  metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 1u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 0u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), 0u);

  // The dropped counts are gone, not deferred to the next drain.
  metrics::set_enabled(true);
  sim.kernel.run_events(7);
  snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 7u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pops), 7u);
  EXPECT_EQ(snap.counter(metrics::Counter::events_scheduled), 8u);
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes), 8u);
}

TEST(Metrics, SnapshotBeforeTheFirstRunSeesStartUpSchedules) {
  const MetricsGuard guard;
  sim::Kernel kernel;
  ring::StrConfig config;
  config.stages = 8;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::Str str(kernel, config,
                ring::make_initial_state(8, 4,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.start();

  // start() probes every stage once and schedules each enabled one; no run
  // has published anything yet.
  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter(metrics::Counter::token_collision_checks), 8u);
  EXPECT_GT(snap.counter(metrics::Counter::events_scheduled), 0u);
  EXPECT_EQ(snap.counter(metrics::Counter::charlie_evaluations),
            snap.counter(metrics::Counter::events_scheduled));
  EXPECT_EQ(snap.counter(metrics::Counter::heap_pushes),
            snap.counter(metrics::Counter::events_scheduled));
  EXPECT_EQ(snap.counter(metrics::Counter::events_fired), 0u);
}

TEST(Metrics, NestedDrainIsRejectedAndTheOuterDrainStillPublishes) {
  const MetricsGuard guard;
  TickerKernel sim;
  sim.ticker.nest_at = 3;
  EXPECT_THROW(sim.kernel.run_events(10), PreconditionError);
  EXPECT_EQ(metrics::snapshot().counter(metrics::Counter::events_fired), 3u);
}

// --- JSON value --------------------------------------------------------------

TEST(Json, DumpParseRoundTripPreservesExactIntegers) {
  Json root = Json::object();
  root.set("big", std::uint64_t{9007199254740993});  // not representable in double
  root.set("neg", std::int64_t{-42});
  root.set("pi", 3.25);
  root.set("s", "a\"b\\c\n\t");
  Json arr = Json::array();
  arr.push_back(true);
  arr.push_back(Json());
  root.set("arr", std::move(arr));

  const Json reparsed = Json::parse(root.dump(2));
  EXPECT_EQ(reparsed.at("big").as_integer(), 9007199254740993);
  EXPECT_EQ(reparsed.at("neg").as_integer(), -42);
  EXPECT_DOUBLE_EQ(reparsed.at("pi").as_number(), 3.25);
  EXPECT_EQ(reparsed.at("s").as_string(), "a\"b\\c\n\t");
  EXPECT_TRUE(reparsed.at("arr").at(std::size_t{0}).as_boolean());
  EXPECT_TRUE(reparsed.at("arr").at(std::size_t{1}).is_null());
  // Object order is preserved (manifests diff cleanly).
  EXPECT_EQ(reparsed.items().front().first, "big");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(Json::parse("[1,2] garbage"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

// --- run manifests -----------------------------------------------------------

TEST(Manifest, DriverWritesValidatableManifest) {
  const OutDirGuard out_dir;
  const MetricsGuard guard;

  core::ExperimentOptions options;
  options.jobs = 1;
  const auto result = core::run_voltage_sweep(
      core::VoltageSweepSpec{core::RingSpec::iro(3), {1.1, 1.2}, 20},
      core::cyclone_iii(), options);
  ASSERT_EQ(result.points.size(), 2u);

  // The manifest the driver just wrote must agree with a fresh snapshot:
  // nothing else ran since, so the delta IS the totals.
  const auto manifest = core::last_run_manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->experiment, "voltage_sweep");
  EXPECT_EQ(manifest->spec, "IRO 3C");
  EXPECT_EQ(manifest->seed, options.seed);
  EXPECT_EQ(manifest->jobs, 1u);
  EXPECT_EQ(manifest->tasks, 2u);
  EXPECT_GT(manifest->wall_ms, 0.0);
  EXPECT_EQ(manifest->version, core::version_string());

  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_GT(manifest->metrics.counter(metrics::Counter::events_fired), 0u);
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(manifest->metrics.counters[i], snap.counters[i])
        << metrics::counter_name(static_cast<metrics::Counter>(i));
  }

  // And the file on disk round-trips through parse + schema check.
  const std::string path = out_dir.dir() + "/voltage_sweep.manifest.json";
  const Json parsed = Json::parse(read_file(path));
  EXPECT_EQ(parsed.at("schema").as_string(), core::RunManifest::schema);
  const core::RunManifest reloaded = core::RunManifest::from_json(parsed);
  EXPECT_EQ(reloaded.experiment, manifest->experiment);
  EXPECT_EQ(reloaded.seed, manifest->seed);
  for (std::size_t i = 0; i < metrics::counter_count; ++i) {
    EXPECT_EQ(reloaded.metrics.counters[i], manifest->metrics.counters[i]);
  }
  ASSERT_EQ(reloaded.metrics.phases.size(), manifest->metrics.phases.size());
}

TEST(Manifest, FromJsonRejectsWrongSchemaAndMissingKeys) {
  Json bogus = Json::object();
  bogus.set("schema", "ringent.run-manifest/999");
  EXPECT_THROW(core::RunManifest::from_json(bogus), Error);

  const MetricsGuard guard;
  core::RunManifest manifest;
  manifest.experiment = "x";
  Json json = manifest.to_json();
  // Knock out a required key: the schema check must notice.
  Json incomplete = Json::object();
  for (const auto& [key, value] : json.items()) {
    if (key != "counters") incomplete.set(key, value);
  }
  EXPECT_THROW(core::RunManifest::from_json(incomplete), Error);
}

TEST(Manifest, NoManifestWhenMetricsDisabled) {
  const OutDirGuard out_dir;
  metrics::set_enabled(false);
  core::ExperimentOptions options;
  options.jobs = 1;
  (void)core::run_voltage_sweep(
      core::VoltageSweepSpec{core::RingSpec::iro(3), {1.2}, 10},
      core::cyclone_iii(), options);
  std::FILE* f =
      std::fopen((out_dir.dir() + "/voltage_sweep.manifest.json").c_str(),
                 "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

// --- trace spans -------------------------------------------------------------

TEST(Trace, FileIsWellFormedAndBalanced) {
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/trace.json";
  trace::start(path);
  ASSERT_TRUE(trace::enabled());
  EXPECT_EQ(trace::current_path(), path);
  EXPECT_THROW(trace::start(path), Error);  // one session at a time

  {
    const trace::Span outer("outer", "bench");
    // Spans from pool workers land on their own tids.
    sim::parallel_for_each(6, 3, [&](std::size_t i) {
      const trace::Span inner("task " + std::to_string(i), "axis");
    });
  }
  trace::stop();
  EXPECT_FALSE(trace::enabled());

  const Json doc = Json::parse(read_file(path));
  const Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GE(events.size(), 2u);  // outer + at least the inline spans

  // Chrome-trace invariants: every event has the required keys, timestamps
  // are non-negative, and B/E nest and balance per thread.
  std::vector<std::pair<std::int64_t, int>> depth;  // tid -> open spans
  const auto depth_of = [&](std::int64_t tid) -> int& {
    for (auto& [t, d] : depth) {
      if (t == tid) return d;
    }
    depth.emplace_back(tid, 0);
    return depth.back().second;
  };
  bool saw_outer = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    const std::string& ph = event.at("ph").as_string();
    const std::int64_t tid = event.at("tid").as_integer();
    EXPECT_GE(event.at("ts").as_number(), 0.0);
    EXPECT_FALSE(event.at("name").as_string().empty());
    EXPECT_FALSE(event.at("cat").as_string().empty());
    if (event.at("name").as_string() == "outer") saw_outer = true;
    int& d = depth_of(tid);
    if (ph == "B") {
      ++d;
    } else {
      ASSERT_EQ(ph, "E");
      --d;
      ASSERT_GE(d, 0) << "E without matching B on tid " << tid;
    }
  }
  EXPECT_TRUE(saw_outer);
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

TEST(Trace, StopBalancesSpansStillOpen) {
  // Crash-safe contract: stop() synthesizes an E event for every span still
  // open, so a trace ended mid-measurement (signal handler, atexit) still
  // loads in Perfetto with balanced nesting.
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/open_spans.json";
  trace::start(path);
  auto open_span = std::make_unique<trace::Span>("still-open", "bench");
  { const trace::Span closed("closed", "bench"); }
  trace::stop();
  open_span.reset();  // dtor after stop: session-stale, must be a no-op

  const Json doc = Json::parse(read_file(path));
  const Json& events = doc.at("traceEvents");
  int balance = 0;
  std::size_t still_open_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    if (event.at("name").as_string() == "still-open") ++still_open_events;
    balance += event.at("ph").as_string() == "B" ? 1 : -1;
  }
  EXPECT_EQ(balance, 0);
  EXPECT_EQ(still_open_events, 2u);  // the real B plus the synthesized E
}

TEST(Trace, PartialFileIsReadableMidSession) {
  // Every event is appended and flushed as it happens: a reader (or a crash)
  // that sees the file mid-session finds the header and all completed spans,
  // not an empty buffer waiting for stop().
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/partial.json";
  trace::start(path);
  { const trace::Span span("early", "bench"); }
  const std::string partial = read_file(path);
  trace::stop();

  EXPECT_NE(partial.find("traceEvents"), std::string::npos);
  EXPECT_NE(partial.find("\"early\""), std::string::npos);
  EXPECT_NE(partial.find("\"B\""), std::string::npos);
  EXPECT_NE(partial.find("\"E\""), std::string::npos);
  // The closing bracket only lands at stop().
  EXPECT_EQ(partial.find("]}"), std::string::npos);
  EXPECT_NE(read_file(path).find("]}"), std::string::npos);
}

TEST(Trace, SpansAreFreeWhenInactive) {
  ASSERT_FALSE(trace::enabled());
  { const trace::Span span("ignored", "bench"); }
  trace::stop();  // no session: must be a no-op, not an error
  EXPECT_FALSE(trace::enabled());
}

// --- bench CLI ---------------------------------------------------------------

TEST(BenchCli, ParsesSharedFlags) {
  const char* argv_full[] = {"bench",   "--jobs", "4",         "--metrics",
                             "--trace", "t.json", "leftover"};
  const bench::CliOptions full =
      bench::parse_cli(7, const_cast<char**>(argv_full));
  EXPECT_EQ(full.jobs, 4u);
  EXPECT_TRUE(full.metrics);
  EXPECT_EQ(full.trace_path, "t.json");

  const char* argv_eq[] = {"bench", "--jobs=2", "--trace=x.json"};
  const bench::CliOptions eq =
      bench::parse_cli(3, const_cast<char**>(argv_eq));
  EXPECT_EQ(eq.jobs, 2u);
  EXPECT_FALSE(eq.metrics);
  EXPECT_EQ(eq.trace_path, "x.json");

  const char* argv_none[] = {"bench"};
  const bench::CliOptions none =
      bench::parse_cli(1, const_cast<char**>(argv_none));
  EXPECT_EQ(none.jobs, 0u);
  EXPECT_FALSE(none.metrics);
  EXPECT_TRUE(none.trace_path.empty());

  // Malformed values degrade to the defaults rather than throwing; the
  // warnings they trigger are asserted in test_fuzz_regressions.cpp.
  const char* argv_bad[] = {"bench", "--jobs", "potato", "--trace"};
  const bench::CliOptions bad =
      bench::parse_cli(4, const_cast<char**>(argv_bad), /*diagnostics=*/nullptr);
  EXPECT_EQ(bad.jobs, 0u);
  EXPECT_TRUE(bad.trace_path.empty());
}

TEST(BenchCli, ParsesTelemetryFlag) {
  const char* argv_split[] = {"bench", "--telemetry", "t.jsonl"};
  const bench::CliOptions split =
      bench::parse_cli(3, const_cast<char**>(argv_split));
  EXPECT_EQ(split.telemetry_path, "t.jsonl");

  const char* argv_eq[] = {"bench", "--telemetry=scrape.prom"};
  const bench::CliOptions eq =
      bench::parse_cli(2, const_cast<char**>(argv_eq));
  EXPECT_EQ(eq.telemetry_path, "scrape.prom");

  // A trailing flag with no path degrades to "no telemetry", not a throw.
  const char* argv_bad[] = {"bench", "--telemetry"};
  const bench::CliOptions bad =
      bench::parse_cli(2, const_cast<char**>(argv_bad), /*diagnostics=*/nullptr);
  EXPECT_TRUE(bad.telemetry_path.empty());
  const char* argv_bad_eq[] = {"bench", "--telemetry="};
  const bench::CliOptions bad_eq = bench::parse_cli(
      2, const_cast<char**>(argv_bad_eq), /*diagnostics=*/nullptr);
  EXPECT_TRUE(bad_eq.telemetry_path.empty());
}

TEST(BenchCli, SessionStreamsBenchTotalSnapshot) {
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/bench.jsonl";
  {
    bench::CliOptions options;
    options.telemetry_path = path;
    const bench::Session session(options, "unit-bench");
    EXPECT_TRUE(core::telemetry_active());
    EXPECT_TRUE(sim::telemetry::enabled());
    sim::telemetry::record(sim::telemetry::Histogram::queue_depth, 3);
  }
  // Session's destructor appends the whole-binary summary snapshot.
  const std::string content = read_file(path);
  ASSERT_FALSE(content.empty());
  const auto snapshot =
      core::TelemetrySnapshot::from_json(Json::parse(content.substr(
          0, content.find('\n'))));
  EXPECT_EQ(snapshot.experiment, "unit-bench-total");
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].name, "queue_depth");
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  core::set_telemetry_path("");
  sim::telemetry::reset();
  EXPECT_FALSE(core::telemetry_active());
}

TEST(BenchCli, SessionAppliesFlagsAndFlushesTrace) {
  const OutDirGuard out_dir;
  const std::string path = out_dir.dir() + "/session.json";
  {
    bench::CliOptions options;
    options.metrics = true;
    options.trace_path = path;
    const bench::Session session(options, "unit-bench");
    EXPECT_TRUE(metrics::enabled());
    EXPECT_TRUE(trace::enabled());
  }
  // Session owns the trace it started and must flush it on destruction.
  EXPECT_FALSE(trace::enabled());
  const Json doc = Json::parse(read_file(path));
  ASSERT_GE(doc.at("traceEvents").size(), 2u);
  EXPECT_EQ(doc.at("traceEvents").at(std::size_t{0}).at("name").as_string(),
            "unit-bench");
  metrics::set_enabled(false);
  metrics::reset();
}
