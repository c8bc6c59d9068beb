// Perf guard for the kernel's deferred counts (sim/kernel.hpp): inside a
// drain the kernel counts into a plain array and publishes it once per
// drain, so collecting metrics must cost next to nothing per event.
//
// The workload is bench/perf_kernel's BM_KernelEventThroughput/1 (one
// self-rescheduling process on the default heap), timed in this process
// with metrics off and on, interleaved, as thread CPU time so host steal
// does not count. When every event bumped per-thread atomics, metrics-on
// ran ~3x slower than metrics-off; the gate allows 1.3x.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "sim/kernel.hpp"
#include "sim/metrics.hpp"

using namespace ringent;
namespace metrics = ringent::sim::metrics;

namespace {

class Ticker final : public sim::Process {
 public:
  void fire(sim::Kernel& kernel, std::uint32_t tag) override {
    kernel.schedule_in(Time::from_fs(1000), self, tag);
  }
  sim::NodeId self = sim::invalid_node;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

TEST(MetricsOverhead, KernelEventThroughputWithMetricsOnCostsAtMost1p3xOff) {
  constexpr std::uint64_t kEvents = std::uint64_t{1} << 21;
  constexpr int kRepetitions = 7;

  sim::Kernel kernel;
  Ticker ticker;
  ticker.self = kernel.add_process(&ticker);
  kernel.schedule_in(Time::from_fs(1000), ticker.self);
  kernel.run_events(kEvents);  // warm caches and the branch predictor

  const auto timed_run = [&](bool enabled) {
    metrics::set_enabled(enabled);
    const double start = metrics::thread_cpu_seconds();
    kernel.run_events(kEvents);
    const double seconds = metrics::thread_cpu_seconds() - start;
    metrics::set_enabled(false);
    return seconds;
  };
  std::vector<double> off, on;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    off.push_back(timed_run(false));
    on.push_back(timed_run(true));
  }
  metrics::reset();

  const double off_s = median(off);
  const double on_s = median(on);
  ASSERT_GT(off_s, 0.0);
  EXPECT_LE(on_s / off_s, 1.3) << "metrics off " << off_s * 1e9 / kEvents
                               << " ns/event, on " << on_s * 1e9 / kEvents
                               << " ns/event";
}
