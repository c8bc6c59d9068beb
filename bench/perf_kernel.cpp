// google-benchmark microbenchmarks for the simulation substrate: event
// kernel throughput and full ring models (events/second), plus the Charlie
// arithmetic, and the entropy service layer by layer: health-monitored
// generator, conditioners, full pool drain.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "analysis/entropy90b.hpp"
#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "core/oscillator.hpp"
#include "noise/jitter.hpp"
#include "ring/charlie.hpp"
#include "ring/iro.hpp"
#include "ring/str.hpp"
#include "service/conditioner.hpp"
#include "service/pool.hpp"
#include "sim/kernel.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/telemetry.hpp"
#include "trng/resilient.hpp"

using namespace ringent;
using namespace ringent::literals;

namespace {

/// Minimal self-rescheduling process: measures raw queue throughput.
class Ticker final : public sim::Process {
 public:
  void fire(sim::Kernel& kernel, std::uint32_t tag) override {
    kernel.schedule_in(1_ps, self, tag);
  }
  sim::NodeId self = sim::invalid_node;
};

void BM_KernelEventThroughput(benchmark::State& state) {
  sim::Kernel kernel;
  kernel.reserve_events(static_cast<std::size_t>(state.range(0)));
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < state.range(0); ++i) {
    tickers.push_back(std::make_unique<Ticker>());
    tickers.back()->self = kernel.add_process(tickers.back().get());
    kernel.schedule_in(1_ps, tickers.back()->self, 0);
  }
  for (auto _ : state) {
    kernel.run_events(10000);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_KernelEventThroughput)->Arg(1)->Arg(16)->Arg(256);

/// The same workload with metrics collection live: the delta vs
/// BM_KernelEventThroughput is the whole price of the counters on the
/// hottest path. The kernel derives its counts once per run_events drain
/// and publishes them then, so the two should measure the same.
void BM_KernelEventThroughputMetrics(benchmark::State& state) {
  sim::metrics::set_enabled(true);
  sim::Kernel kernel;
  kernel.reserve_events(static_cast<std::size_t>(state.range(0)));
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < state.range(0); ++i) {
    tickers.push_back(std::make_unique<Ticker>());
    tickers.back()->self = kernel.add_process(tickers.back().get());
    kernel.schedule_in(1_ps, tickers.back()->self, 0);
  }
  for (auto _ : state) {
    kernel.run_events(10000);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  sim::metrics::set_enabled(false);
  sim::metrics::reset();
}
BENCHMARK(BM_KernelEventThroughputMetrics)->Arg(1)->Arg(16)->Arg(256);

/// The same workload with telemetry histograms live: the delta vs
/// BM_KernelEventThroughput prices the distribution layer on the hottest
/// path (per event: a log-linear bucket_index plus two relaxed fetch_adds
/// for the gap histogram, and the same again per push for queue depth).
/// With collection off the probes cost a single predicted-not-taken branch;
/// BM_ParallelSweep guards that case.
void BM_KernelEventThroughputTelemetry(benchmark::State& state) {
  sim::telemetry::set_enabled(true);
  sim::Kernel kernel;
  kernel.reserve_events(static_cast<std::size_t>(state.range(0)));
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < state.range(0); ++i) {
    tickers.push_back(std::make_unique<Ticker>());
    tickers.back()->self = kernel.add_process(tickers.back().get());
    kernel.schedule_in(1_ps, tickers.back()->self, 0);
  }
  for (auto _ : state) {
    kernel.run_events(10000);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  sim::telemetry::set_enabled(false);
  sim::telemetry::reset();
}
BENCHMARK(BM_KernelEventThroughputTelemetry)->Arg(1)->Arg(16)->Arg(256);

void BM_CharlieFireTime(benchmark::State& state) {
  const ring::CharlieModel model(
      ring::CharlieParams::symmetric(260_ps, 120_ps));
  Time tf = 1_ns, tr = Time::from_ps(1100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.fire_time(tf, tr, 0_fs, 1.5));
    tf += 1_ps;
    tr += 1_ps;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CharlieFireTime);

void BM_IroSimulation(benchmark::State& state) {
  const auto& cal = core::cyclone_iii();
  core::Oscillator osc = core::Oscillator::build(
      core::RingSpec::iro(static_cast<std::size_t>(state.range(0))), cal, {});
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = osc.kernel().events_fired();
    osc.run_for(Time::from_us(1.0));
    events += osc.kernel().events_fired() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_IroSimulation)->Arg(5)->Arg(80);

void BM_StrSimulation(benchmark::State& state) {
  const auto& cal = core::cyclone_iii();
  core::Oscillator osc = core::Oscillator::build(
      core::RingSpec::str(static_cast<std::size_t>(state.range(0))), cal, {});
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = osc.kernel().events_fired();
    osc.run_for(Time::from_us(1.0));
    events += osc.kernel().events_fired() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_StrSimulation)->Arg(8)->Arg(96);

/// Raw queue throughput: a self-similar hold-model workload (each pop pushes
/// one event a random delay ahead) at a steady population — the classic
/// priority-queue benchmark. Arg 0: population; Arg 1: 0 = heap, 1 = calendar.
void BM_EventQueueHoldModel(benchmark::State& state) {
  const auto queue = sim::make_event_queue(
      state.range(1) == 0 ? sim::QueueKind::binary_heap
                          : sim::QueueKind::calendar);
  Xoshiro256 rng(5);
  std::uint64_t seq = 0;
  for (int i = 0; i < state.range(0); ++i) {
    queue->push({Time::from_fs(static_cast<std::int64_t>(rng.below(100000))),
                 seq++, 0, 0});
  }
  for (auto _ : state) {
    const auto event = queue->pop_min();
    queue->push({event.at + Time::from_fs(
                                static_cast<std::int64_t>(1 + rng.below(200000))),
                 seq++, 0, 0});
    benchmark::DoNotOptimize(queue->size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHoldModel)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

void BM_StrSimulationCalendarQueue(benchmark::State& state) {
  // Full STR 96C through the calendar-queue kernel, for comparison with
  // BM_StrSimulation (binary heap).
  sim::Kernel kernel(sim::QueueKind::calendar);
  ring::StrConfig config;
  config.stages = 96;
  config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
  ring::Str str(kernel, config,
                ring::make_initial_state(96, 48,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.start();
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = kernel.events_fired();
    kernel.run_until(kernel.now() + Time::from_us(1.0));
    events += kernel.events_fired() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_StrSimulationCalendarQueue);

/// The parallel sweep engine on a real experiment driver: the full Fig. 11
/// IRO stage list through run_jitter_vs_stages at 1/2/4/8 jobs. Tasks are
/// independent simulations sharded by index, so the result is bit-identical
/// at every arg; only the wall clock should move (UseRealTime).
void BM_ParallelSweep(benchmark::State& state) {
  const auto& cal = core::cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5, 9, 15, 25, 40, 60, 80};
  core::ExperimentOptions options;
  options.board_index = 0;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto points = core::run_jitter_vs_stages(
        core::JitterSweepSpec{core::RingKind::iro, stages}, cal, options);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stages.size()));
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// BM_ParallelSweep with full metrics collection (counters live on every
/// worker + a run manifest written per iteration). Compare against
/// BM_ParallelSweep at the same arg to price the enabled observability
/// layer on a real driver.
void BM_ParallelSweepMetrics(benchmark::State& state) {
  sim::metrics::set_enabled(true);
  const auto& cal = core::cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5, 9, 15, 25, 40, 60, 80};
  core::ExperimentOptions options;
  options.board_index = 0;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto points = core::run_jitter_vs_stages(
        core::JitterSweepSpec{core::RingKind::iro, stages}, cal, options);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stages.size()));
  sim::metrics::set_enabled(false);
  sim::metrics::reset();
}
BENCHMARK(BM_ParallelSweepMetrics)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// BM_ParallelSweep with telemetry histograms live (event gaps, queue
/// depths, Charlie delays and pool-task durations recorded on every
/// worker). Compare against BM_ParallelSweep at the same arg to price the
/// enabled distribution layer on a real driver.
void BM_ParallelSweepTelemetry(benchmark::State& state) {
  sim::telemetry::set_enabled(true);
  const auto& cal = core::cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5, 9, 15, 25, 40, 60, 80};
  core::ExperimentOptions options;
  options.board_index = 0;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto points = core::run_jitter_vs_stages(
        core::JitterSweepSpec{core::RingKind::iro, stages}, cal, options);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stages.size()));
  sim::telemetry::set_enabled(false);
  sim::telemetry::reset();
}
BENCHMARK(BM_ParallelSweepTelemetry)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Same engine on the restart-technique population (64 restarts + control).
void BM_ParallelRestart(benchmark::State& state) {
  const auto& cal = core::cyclone_iii();
  const core::RingSpec spec = core::RingSpec::iro(9);
  core::ExperimentOptions options;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto result = core::run_restart_experiment(
        core::RestartSpec{spec, 64, 256}, cal, options);
    benchmark::DoNotOptimize(result.points.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelRestart)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GaussianNoise(benchmark::State& state) {
  noise::GaussianNoise source(2.0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.sample_ps());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaussianNoise);

/// Full SP 800-90B battery (all six estimators + lag-8 autocorrelation)
/// over a balanced pseudo-random stream. Arg = stream length in bits; 4096
/// is the entropy_map per-cell default, 65536 stresses the suffix-array
/// t-tuple/LRS path (O(L log L)) and the compression bisection. "Items"
/// are input bits, so events_per_sec reads as bits assessed per second.
void BM_Entropy90B(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(0x90B);
  analysis::BitStream stream;
  stream.reserve(bits);
  for (std::size_t i = 0; i < bits; ++i) stream.append((rng.next() & 1) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::estimate_entropy90b(stream));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_Entropy90B)->Arg(4096)->Arg(65536);

/// The service's health layer alone: a ResilientGenerator over a
/// PrngBitSource packing bytes with fill_bytes, one thread, the pool's
/// 256-byte staging size and 4096-bit pump quantum. "Items" are raw bits,
/// so events_per_sec reads as raw bits/s through RCT/APT.
void BM_ResilientFillBytes(benchmark::State& state) {
  service::PrngBitSource source(0xF111);
  trng::ResilientGenerator gen(source, nullptr, trng::DegradationPolicy{});
  std::uint8_t staging[256];
  const std::uint64_t bits_before = gen.stats().bits_in;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen.fill_bytes(std::span<std::uint8_t>(staging, sizeof staging), 4096));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(gen.stats().bits_in - bits_before));
}
BENCHMARK(BM_ResilientFillBytes);

/// One conditioner alone over 4 KiB of raw bytes at the service's ratio 2.
/// "Items" are raw bytes absorbed (events_per_sec = bytes/s); MB_per_s
/// shows the same rate in MB/s.
void BM_Conditioner(benchmark::State& state, service::ConditionerKind kind) {
  const auto conditioner = service::make_conditioner(kind, 2);
  Xoshiro256 rng(0xC0D);
  std::vector<std::uint8_t> raw(4096);
  for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> out;
  out.reserve(raw.size());
  for (auto _ : state) {
    out.clear();
    conditioner->process(raw, out);
    benchmark::DoNotOptimize(out.data());
  }
  const auto bytes =
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(raw.size());
  state.SetItemsProcessed(bytes);
  state.counters["MB_per_s"] = benchmark::Counter(
      static_cast<double>(bytes) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_Conditioner, lfsr, service::ConditionerKind::lfsr);
BENCHMARK_CAPTURE(BM_Conditioner, hash, service::ConditionerKind::hash);

/// Entropy-service saturation: a full pool -> SPSC ring -> conditioner ->
/// front-end drain with synthetic PRNG-backed slot sources (real ring
/// sources would measure the oscillator simulation, not the service
/// layer). Arg = pool worker threads. "Items" are conditioned bytes
/// delivered through acquire(), so events_per_sec reads as service
/// bytes/sec; the per-run stream is bit-identical across Arg values.
void BM_ServiceThroughput(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  core::EntropyServiceSpec spec;
  spec.slots = 4;
  spec.raw_bits_per_slot = 1u << 18;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    core::ExperimentOptions options;
    options.jobs = workers;
    const core::EntropyServiceResult result =
        core::run_entropy_service(spec, core::cyclone_iii(), options);
    benchmark::DoNotOptimize(result.stream_fnv);
    bytes += static_cast<std::int64_t>(result.bytes_delivered);
  }
  state.SetItemsProcessed(bytes);
}
BENCHMARK(BM_ServiceThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
