// Kernel observability: process-wide simulation counters and phase timers.
//
// The simulation hot loop (schedule/fire, queue push/pop, Charlie
// evaluations) is instrumented with named counters. The design constraints,
// in order:
//
//  1. Nothing per event. Ring models count into a plain per-kernel array
//     (sim::Kernel::count), the kernel derives its own counts (schedules,
//     queue pushes, events fired, queue pops) from its sequence and fired
//     counters, and it publishes them here once per drain — one bump per
//     non-zero counter, whether the drain returns or a Process throws. So
//     an event costs the same with collection on or off. bump() itself,
//     used by coarse-grained probes (pool tasks, health alarms, faults) and
//     by the kernel's publication, is one relaxed load and a predictable
//     branch when off (bench/perf_kernel.cpp prices the enabled path:
//     BM_KernelEventThroughput vs its Metrics variant).
//  2. One counter array per run. Counts land in a RunContext: the one
//     installed on the calling thread by a ContextScope, else the process
//     root context. sim::ThreadPool tasks inherit the context of the thread
//     that submitted their batch, so every count a run causes — on any
//     worker — lands in that run's context, and two runs in one process
//     (concurrent campaign cells, two threads calling the registry) never
//     see each other's counts. A context is one shared relaxed-atomic
//     array: bumps arrive once per drain, not per event, so the shared
//     cache line costs nothing measurable.
//  3. Deterministic totals. Counters never feed back into the simulation,
//     and a quiescent snapshot (no drain in flight) is exact — the golden
//     tests hand-count event totals against it. A kernel counts outside a
//     drain (start-up schedules, reset_time) straight through, and a drain
//     publishes only if its thread is counting when it ends. A run context
//     always counts; the root context counts only while collection is
//     enabled, and snapshot(), reset() and set_enabled() act on it alone.
//
// Phase timers accumulate wall and thread-CPU time under string labels
// ("build", "run", "analyze") in the current context; ScopedPhase is the
// RAII probe. Timer state is mutex-guarded — phases bracket whole
// simulations, not events. A context also sums the CPU time of every thread
// while it is installed there (the driver's thread and its pool tasks, not
// the tasks of other runs that thread helps with while it waits).
//
// Every experiment driver runs in a fresh context (core/experiments.cpp
// DriverScope) and builds its run manifest from it (core/export.hpp); when
// the driver ends, the context's totals fold into the enclosing one. Enable
// root collection with metrics::set_enabled(true), the RINGENT_METRICS
// environment variable (init_from_env), or the --metrics flag of the sweep
// benches (bench/cli.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ringent::sim::metrics {

/// Everything the simulation substrate counts. Keep counter_names in
/// metrics.cpp in sync.
enum class Counter : std::size_t {
  events_scheduled,        ///< Kernel::schedule_at calls
  events_fired,            ///< events delivered to a Process
  events_cancelled,        ///< pending events dropped by Kernel::reset_time
  heap_pushes,             ///< events scheduled into a kernel's FlatHeap4
  heap_pops,               ///< events a kernel popped from its FlatHeap4
  calendar_pushes,         ///< events scheduled into a kernel's CalendarQueue
  calendar_pops,           ///< events a kernel popped from its CalendarQueue
  charlie_evaluations,     ///< CharlieModel::fire_time calls from the STR
  token_collision_checks,  ///< STR enabled()/schedule eligibility checks
  pool_tasks,              ///< tasks executed by sim::ThreadPool
  // --- attack-resilience pipeline (noise/fault.hpp, trng/resilient.hpp) ---
  fault_activations,       ///< fault windows applied by noise::FaultInjector
  health_rct_alarms,       ///< repetition-count alarms in ResilientGenerator
  health_apt_alarms,       ///< adaptive-proportion alarms in ResilientGenerator
  health_transitions,      ///< degradation-state transitions (all edges)
  health_bits_muted,       ///< raw bits suppressed while not healthy/suspect
  health_relock_attempts,  ///< ring restarts attempted after an alarm
  health_failovers,        ///< switches from the primary to the backup source
  health_failures,         ///< permanent-failure latches (strike budget spent)
};
inline constexpr std::size_t counter_count =
    static_cast<std::size_t>(Counter::health_failures) + 1;

/// Stable slug for manifests and logs (e.g. "events_fired").
std::string_view counter_name(Counter counter);

struct PhaseStat {
  std::string name;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< thread CPU time summed over all calls
  std::uint64_t calls = 0;
};

/// A consistent copy of all counters and phase timers. Snapshots taken while
/// no simulation is in flight are exact.
struct Snapshot {
  std::array<std::uint64_t, counter_count> counters{};
  std::vector<PhaseStat> phases;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Counter and phase differences since `earlier`. Phases present only
  /// here are kept as-is.
  Snapshot delta_since(const Snapshot& earlier) const;
};

/// One run's counters, phase timers and CPU time (see constraint 2 above).
/// Thread-safe: any number of threads may count into one context.
class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  void add(Counter counter, std::uint64_t n) {
    counters_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void add_phase(std::string_view name, double wall_s, double cpu_s);
  void add_cpu(double seconds);
  /// Add `other`'s counters, phases and CPU time to this context.
  void merge(const RunContext& other);

  Snapshot snapshot() const;
  /// CPU seconds charged to this context on every thread so far.
  double cpu_seconds() const;
  /// Zero every counter, drop all phase timers and the CPU total.
  void reset();

 private:
  /// Fold one phase record into phases_; mutex_ must be held.
  void add_phase_locked(const PhaseStat& phase);

  std::array<std::atomic<std::uint64_t>, counter_count> counters_{};
  mutable std::mutex mutex_;  ///< guards phases_ and cpu_s_
  std::vector<PhaseStat> phases_;
  double cpu_s_ = 0.0;
};

namespace detail {

extern std::atomic<bool> enabled_flag;

/// The run context installed on this thread; null = the root context.
extern constinit thread_local RunContext* installed;

}  // namespace detail

/// The process root context: what snapshot(), reset() and the benches'
/// --metrics act on. Lives for the whole process.
RunContext& root_context();

/// The run context installed on this thread; null = none (the root). Hand
/// it to a ContextScope on a thread this run starts, so that thread's
/// counts are the run's too.
inline RunContext* installed_context() { return detail::installed; }

/// The context counts on this thread land in: the installed run context,
/// else the root.
inline RunContext& current_context() {
  RunContext* run = detail::installed;
  return run != nullptr ? *run : root_context();
}

/// Root collection switch; off by default. Run contexts ignore it.
inline bool enabled() {
  return detail::enabled_flag.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Enable when the RINGENT_METRICS environment variable is set to anything
/// but "" or "0". Returns the resulting enabled state.
bool init_from_env();

/// True when a count on this thread is recorded: a run context is
/// installed, or root collection is enabled.
inline bool counting() {
  return detail::installed != nullptr || enabled();
}

/// Count `n` occurrences of `counter` in the current context. The fast path:
/// with no run context installed and collection off, a thread-local load
/// and one relaxed load.
inline void bump(Counter counter, std::uint64_t n = 1) {
  RunContext* run = detail::installed;
  if (run != nullptr) {
    run->add(counter, n);
  } else if (enabled()) {
    root_context().add(counter, n);
  }
}

/// RAII: install `context` on the calling thread (null = the root context)
/// and restore the previous one on destruction. Thread CPU time is charged
/// to whichever run context is installed, switch by switch.
class ContextScope {
 public:
  explicit ContextScope(RunContext* context);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  RunContext* previous_;
};

/// The root context's snapshot.
Snapshot snapshot();

/// Zero the root context. Call only while no simulation is running (tests,
/// bench setup).
void reset();

/// Monotonic wall clock in seconds (steady_clock).
double wall_seconds();
/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_seconds();

/// RAII phase timer: accumulates wall + thread-CPU time under `name` in the
/// current context between construction and destruction. Near-free when
/// the thread is not counting().
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  RunContext* context_ = nullptr;  ///< null = not timing
  std::string name_;
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
};

}  // namespace ringent::sim::metrics
