// Tests for the deterministic parallel execution layer (sim/parallel.hpp):
// thread-pool mechanics (every index runs exactly once, empty batches,
// lowest-index exception propagation) and the determinism contract — every
// parallelized experiment driver must return bit-identical results at
// jobs = 1, 2 and 8, because tasks share nothing mutable and all RNG
// streams derive from (master seed, label, task index).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "sim/parallel.hpp"

using namespace ringent;
using namespace ringent::core;

namespace {

constexpr std::size_t kJobCounts[] = {1, 2, 8};

ExperimentOptions options_with_jobs(std::size_t jobs) {
  ExperimentOptions options;
  options.jobs = jobs;
  return options;
}

}  // namespace

// --- thread-pool mechanics ---------------------------------------------------

TEST(ThreadPool, EmptyBatchNeverInvokesTask) {
  for (std::size_t jobs : kJobCounts) {
    sim::ThreadPool pool(jobs);
    bool called = false;
    pool.for_each_index(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called) << "jobs = " << jobs;
  }
}

TEST(ThreadPool, MoreTasksThanThreadsRunsEveryIndexOnce) {
  constexpr std::size_t kTasks = 100;
  sim::ThreadPool pool(3);
  EXPECT_EQ(pool.jobs(), 3u);
  std::vector<std::atomic<int>> hits(kTasks);
  pool.for_each_index(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  sim::ThreadPool pool(4);
  for (int batch = 0; batch < 3; ++batch) {
    std::atomic<int> sum{0};
    pool.for_each_index(10, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  // Two tasks throw; the rethrown exception must be the lowest index —
  // exactly what a sequential loop would have surfaced first.
  for (std::size_t jobs : kJobCounts) {
    sim::ThreadPool pool(jobs);
    try {
      pool.for_each_index(32, [](std::size_t i) {
        if (i == 7 || i == 19) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception at jobs = " << jobs;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 7") << "jobs = " << jobs;
    }
  }
}

TEST(ThreadPool, UsableAfterBatchException) {
  sim::ThreadPool pool(2);
  EXPECT_THROW(pool.for_each_index(
                   4, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.for_each_index(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

namespace {

/// Records which threads ran task bodies and the most bodies ever running
/// at once. A body counts as running while it executes its own code, not
/// while it waits on a nested batch.
struct Occupancy {
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};

  void enter() {
    const int now = running.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    const std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  }
  void leave() { running.fetch_sub(1); }

  /// A short stretch of body code.
  void work() {
    enter();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    leave();
  }
};

}  // namespace

TEST(ThreadPool, NestedBatchesShareThePoolsThreadsAndWidth) {
  // A sweep started inside a pool task (a campaign cell's driver) must run
  // on the same pool: no new threads, and never more than `jobs` bodies at
  // once — otherwise jobs cells would each fan out `jobs` wide.
  constexpr std::size_t kJobs = 4;
  Occupancy occupancy;
  std::atomic<int> inner_runs{0};
  sim::ThreadPool pool(kJobs);
  pool.for_each_index(12, [&](std::size_t outer) {
    occupancy.work();
    const auto squares = sim::parallel_index_map(
        6 + outer % 3, kJobs, [&](std::size_t i) {
          occupancy.work();
          inner_runs.fetch_add(1);
          return i * i;
        });
    for (std::size_t i = 0; i < squares.size(); ++i) {
      EXPECT_EQ(squares[i], i * i) << "outer " << outer;
    }
    occupancy.work();
  });
  EXPECT_EQ(inner_runs.load(), 4 * (6 + 7 + 8));
  EXPECT_LE(occupancy.threads.size(), kJobs);
  EXPECT_LE(occupancy.peak.load(), static_cast<int>(kJobs));
}

TEST(ThreadPool, NestedBatchRethrowsItsLowestIndexException) {
  sim::ThreadPool pool(4);
  std::vector<std::string> caught(8);
  pool.for_each_index(8, [&](std::size_t outer) {
    try {
      sim::parallel_for_each(32, 4, [&](std::size_t i) {
        if (i == 7 || i == 19 || i == 30) {
          throw std::runtime_error(std::to_string(outer) + "/" +
                                   std::to_string(i));
        }
      });
    } catch (const std::runtime_error& error) {
      caught[outer] = error.what();
    }
  });
  for (std::size_t outer = 0; outer < caught.size(); ++outer) {
    EXPECT_EQ(caught[outer], std::to_string(outer) + "/7");
  }

  // Uncaught, a nested failure fails its outer task, and the outer batch
  // in turn rethrows its own lowest failing index.
  try {
    pool.for_each_index(6, [&](std::size_t outer) {
      if (outer < 2) return;
      sim::parallel_for_each(16, 4, [&](std::size_t i) {
        if (i >= 5) {
          throw std::runtime_error(std::to_string(outer) + "/" +
                                   std::to_string(i));
        }
      });
    });
    FAIL() << "expected the nested failure to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "2/5");
  }
}

TEST(ParallelMap, ResultsAreIndexOrdered) {
  const std::vector<int> items = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  for (std::size_t jobs : kJobCounts) {
    const auto squares =
        sim::parallel_map(items, jobs, [](const int& x) { return x * x; });
    ASSERT_EQ(squares.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(squares[i], items[i] * items[i]) << "jobs = " << jobs;
    }
  }
}

TEST(ParallelJobs, ResolveAndArgParsing) {
  EXPECT_GE(sim::default_jobs(), 1u);
  EXPECT_EQ(sim::resolve_jobs(5), 5u);
  EXPECT_EQ(sim::resolve_jobs(0), sim::default_jobs());

  const char* argv_split[] = {"bench", "--jobs", "6"};
  EXPECT_EQ(sim::parse_jobs_arg(3, const_cast<char**>(argv_split)), 6u);
  const char* argv_eq[] = {"bench", "--jobs=12"};
  EXPECT_EQ(sim::parse_jobs_arg(2, const_cast<char**>(argv_eq)), 12u);
  const char* argv_none[] = {"bench", "--other"};
  EXPECT_EQ(sim::parse_jobs_arg(2, const_cast<char**>(argv_none)), 0u);
  const char* argv_bad[] = {"bench", "--jobs", "banana"};
  EXPECT_EQ(sim::parse_jobs_arg(3, const_cast<char**>(argv_bad)), 0u);
}

TEST(ParallelJobs, OverflowIsRejectedAndTheCeilingHolds) {
  // strtoull overflow used to be accepted verbatim, asking ThreadPool for
  // ~2^64 threads (fuzz/regressions/cli/jobs_overflow).
  const char* argv_huge[] = {"bench", "--jobs=99999999999999999999"};
  EXPECT_EQ(sim::parse_jobs_arg(2, const_cast<char**>(argv_huge)), 0u);
  const char* argv_negative[] = {"bench", "--jobs", "-4"};
  EXPECT_EQ(sim::parse_jobs_arg(3, const_cast<char**>(argv_negative)), 0u);

  EXPECT_GE(sim::max_jobs(), 8u);
  EXPECT_EQ(sim::resolve_jobs(sim::max_jobs() + 100), sim::max_jobs());
  EXPECT_LE(sim::default_jobs(), sim::max_jobs());
}

// --- determinism: every parallelized driver, bit-identical at any jobs ------
//
// EXPECT_EQ on doubles is deliberate: the contract is bit-identity, not
// approximate agreement.

TEST(ParallelDeterminism, VoltageSweep) {
  const auto& cal = cyclone_iii();
  const std::vector<double> volts = {cal.nominal_voltage - 0.1,
                                     cal.nominal_voltage,
                                     cal.nominal_voltage + 0.1};
  const VoltageSweepSpec sweep{RingSpec::iro(5), volts, 60};
  const auto baseline = run_voltage_sweep(sweep, cal, options_with_jobs(1));
  for (std::size_t jobs : kJobCounts) {
    const auto result = run_voltage_sweep(sweep, cal, options_with_jobs(jobs));
    EXPECT_EQ(result.f_nominal_mhz, baseline.f_nominal_mhz);
    EXPECT_EQ(result.excursion, baseline.excursion);
    ASSERT_EQ(result.points.size(), baseline.points.size());
    for (std::size_t i = 0; i < baseline.points.size(); ++i) {
      EXPECT_EQ(result.points[i].voltage_v, baseline.points[i].voltage_v);
      EXPECT_EQ(result.points[i].frequency_mhz,
                baseline.points[i].frequency_mhz);
      EXPECT_EQ(result.points[i].normalized, baseline.points[i].normalized);
    }
  }
}

TEST(ParallelDeterminism, TemperatureSweep) {
  const auto& cal = cyclone_iii();
  const std::vector<double> temps = {0.0, 25.0, 60.0};
  const TemperatureSweepSpec sweep{RingSpec::str(8), temps, 60};
  const auto baseline = run_temperature_sweep(sweep, cal, options_with_jobs(1));
  for (std::size_t jobs : kJobCounts) {
    const auto result =
        run_temperature_sweep(sweep, cal, options_with_jobs(jobs));
    EXPECT_EQ(result.f_nominal_mhz, baseline.f_nominal_mhz);
    EXPECT_EQ(result.excursion, baseline.excursion);
    ASSERT_EQ(result.points.size(), baseline.points.size());
    for (std::size_t i = 0; i < baseline.points.size(); ++i) {
      EXPECT_EQ(result.points[i].frequency_mhz,
                baseline.points[i].frequency_mhz);
      EXPECT_EQ(result.points[i].normalized, baseline.points[i].normalized);
    }
  }
}

TEST(ParallelDeterminism, ProcessVariability) {
  const auto& cal = cyclone_iii();
  const ProcessVariabilitySpec sweep{RingSpec::iro(3), 3, 60};
  const auto baseline =
      run_process_variability(sweep, cal, options_with_jobs(1));
  for (std::size_t jobs : kJobCounts) {
    const auto result =
        run_process_variability(sweep, cal, options_with_jobs(jobs));
    EXPECT_EQ(result.mean_mhz, baseline.mean_mhz);
    EXPECT_EQ(result.sigma_rel, baseline.sigma_rel);
    ASSERT_EQ(result.boards.size(), baseline.boards.size());
    for (std::size_t i = 0; i < baseline.boards.size(); ++i) {
      EXPECT_EQ(result.boards[i].board, baseline.boards[i].board);
      EXPECT_EQ(result.boards[i].frequency_mhz,
                baseline.boards[i].frequency_mhz);
    }
  }
}

TEST(ParallelDeterminism, JitterVsStages) {
  const auto& cal = cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5, 9};
  JitterSweepSpec sweep;
  sweep.kind = RingKind::iro;
  sweep.stage_counts = stages;
  sweep.divider_n = 4;
  sweep.mes_periods = 12;
  auto options = options_with_jobs(1);
  options.board_index = 0;
  const auto baseline = run_jitter_vs_stages(sweep, cal, options);
  for (std::size_t jobs : kJobCounts) {
    options.jobs = jobs;
    const auto result = run_jitter_vs_stages(sweep, cal, options);
    ASSERT_EQ(result.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(result[i].stages, baseline[i].stages);
      EXPECT_EQ(result[i].mean_period_ps, baseline[i].mean_period_ps);
      EXPECT_EQ(result[i].sigma_p_ps, baseline[i].sigma_p_ps);
      EXPECT_EQ(result[i].sigma_g_ps, baseline[i].sigma_g_ps);
      EXPECT_EQ(result[i].sigma_direct_ps, baseline[i].sigma_direct_ps);
    }
  }
}

TEST(ParallelDeterminism, ModeMap) {
  const auto& cal = cyclone_iii();
  const std::vector<std::size_t> tokens = {2, 4, 6};
  ModeMapSpec map_spec;
  map_spec.stages = 8;
  map_spec.token_counts = tokens;
  map_spec.placement = ring::TokenPlacement::clustered;
  map_spec.periods = 120;
  const auto baseline = run_mode_map(map_spec, cal, options_with_jobs(1));
  for (std::size_t jobs : kJobCounts) {
    const auto result = run_mode_map(map_spec, cal, options_with_jobs(jobs));
    ASSERT_EQ(result.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(result[i].tokens, baseline[i].tokens);
      EXPECT_EQ(result[i].mode, baseline[i].mode);
      EXPECT_EQ(result[i].interval_cv, baseline[i].interval_cv);
      EXPECT_EQ(result[i].frequency_mhz, baseline[i].frequency_mhz);
    }
  }
}

TEST(ParallelDeterminism, RestartExperiment) {
  const auto& cal = cyclone_iii();
  const RestartSpec restart{RingSpec::iro(3), 8, 8};
  const auto baseline =
      run_restart_experiment(restart, cal, options_with_jobs(1));
  EXPECT_TRUE(baseline.control_identical);
  for (std::size_t jobs : kJobCounts) {
    const auto result =
        run_restart_experiment(restart, cal, options_with_jobs(jobs));
    EXPECT_EQ(result.control_identical, baseline.control_identical);
    EXPECT_EQ(result.diffusion_per_edge_ps, baseline.diffusion_per_edge_ps);
    EXPECT_EQ(result.fit_r2, baseline.fit_r2);
    ASSERT_EQ(result.points.size(), baseline.points.size());
    for (std::size_t i = 0; i < baseline.points.size(); ++i) {
      EXPECT_EQ(result.points[i].edge, baseline.points[i].edge);
      EXPECT_EQ(result.points[i].spread_ps, baseline.points[i].spread_ps);
    }
  }
}

TEST(ParallelDeterminism, CoherentAcrossBoards) {
  const auto& cal = cyclone_iii();
  const CoherentSweepSpec sweep{RingSpec::iro(5), 0.02, 2, 4000};
  const auto baseline =
      run_coherent_across_boards(sweep, cal, options_with_jobs(1));
  for (std::size_t jobs : kJobCounts) {
    const auto result =
        run_coherent_across_boards(sweep, cal, options_with_jobs(jobs));
    EXPECT_EQ(result.detune_mean, baseline.detune_mean);
    EXPECT_EQ(result.detune_sigma, baseline.detune_sigma);
    EXPECT_EQ(result.worst_deviation, baseline.worst_deviation);
    ASSERT_EQ(result.boards.size(), baseline.boards.size());
    for (std::size_t i = 0; i < baseline.boards.size(); ++i) {
      EXPECT_EQ(result.boards[i].half_beat_samples,
                baseline.boards[i].half_beat_samples);
      EXPECT_EQ(result.boards[i].implied_detune,
                baseline.boards[i].implied_detune);
      EXPECT_EQ(result.boards[i].lsb_bias, baseline.boards[i].lsb_bias);
      EXPECT_EQ(result.boards[i].bits, baseline.boards[i].bits);
    }
  }
}

TEST(ParallelDeterminism, DeterministicJitter) {
  const auto& cal = cyclone_iii();
  const std::vector<std::size_t> stages = {3, 5};
  DeterministicJitterSpec sweep;
  sweep.kind = RingKind::iro;
  sweep.stage_counts = stages;
  sweep.periods = 800;
  const auto baseline =
      run_deterministic_jitter(sweep, cal, options_with_jobs(1));
  for (std::size_t jobs : kJobCounts) {
    const auto result =
        run_deterministic_jitter(sweep, cal, options_with_jobs(jobs));
    ASSERT_EQ(result.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(result[i].stages, baseline[i].stages);
      EXPECT_EQ(result[i].mean_period_ps, baseline[i].mean_period_ps);
      EXPECT_EQ(result[i].tone_ps, baseline[i].tone_ps);
      EXPECT_EQ(result[i].tone_relative, baseline[i].tone_relative);
      EXPECT_EQ(result[i].random_ps, baseline[i].random_ps);
    }
  }
}
