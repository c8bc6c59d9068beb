#include "sim/metrics.hpp"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <string_view>

#include "common/require.hpp"

namespace ringent::sim::metrics {

namespace detail {

std::atomic<bool> enabled_flag{false};

constinit thread_local RunContext* installed = nullptr;

namespace {
/// Thread CPU time at the last context switch on this thread; meaningful
/// only while a run context is installed.
constinit thread_local double cpu_mark = 0.0;
}  // namespace

}  // namespace detail

std::string_view counter_name(Counter counter) {
  static constexpr std::string_view names[counter_count] = {
      "events_scheduled",    "events_fired",
      "events_cancelled",    "heap_pushes",
      "heap_pops",           "calendar_pushes",
      "calendar_pops",       "charlie_evaluations",
      "token_collision_checks", "pool_tasks",
      "fault_activations",   "health_rct_alarms",
      "health_apt_alarms",   "health_transitions",
      "health_bits_muted",   "health_relock_attempts",
      "health_failovers",    "health_failures",
  };
  const auto index = static_cast<std::size_t>(counter);
  RINGENT_REQUIRE(index < counter_count, "unknown counter");
  return names[index];
}

// --- RunContext ----------------------------------------------------------------

void RunContext::add_phase_locked(const PhaseStat& phase) {
  for (PhaseStat& existing : phases_) {
    if (existing.name != phase.name) continue;
    existing.wall_ms += phase.wall_ms;
    existing.cpu_ms += phase.cpu_ms;
    existing.calls += phase.calls;
    return;
  }
  phases_.push_back(phase);
}

void RunContext::add_phase(std::string_view name, double wall_s,
                           double cpu_s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  add_phase_locked({std::string(name), wall_s * 1e3, cpu_s * 1e3, 1});
}

void RunContext::add_cpu(double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cpu_s_ += seconds;
}

void RunContext::merge(const RunContext& other) {
  const Snapshot incoming = other.snapshot();
  const double cpu_s = other.cpu_seconds();
  for (std::size_t i = 0; i < counter_count; ++i) {
    counters_[i].fetch_add(incoming.counters[i], std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  cpu_s_ += cpu_s;
  for (const PhaseStat& phase : incoming.phases) add_phase_locked(phase);
}

Snapshot RunContext::snapshot() const {
  Snapshot out;
  for (std::size_t i = 0; i < counter_count; ++i) {
    out.counters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  out.phases = phases_;
  return out;
}

double RunContext::cpu_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cpu_s_;
}

void RunContext::reset() {
  for (auto& value : counters_) value.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  phases_.clear();
  cpu_s_ = 0.0;
}

RunContext& root_context() {
  static RunContext* root = new RunContext();  // leaked: outlives all threads
  return *root;
}

namespace {

/// Install `next` on this thread, charging the thread CPU time since the
/// last switch to the run context being left.
void switch_to(RunContext* next) {
  RunContext* const previous = detail::installed;
  if (previous == next) return;
  if (previous != nullptr || next != nullptr) {
    const double now = thread_cpu_seconds();
    if (previous != nullptr) previous->add_cpu(now - detail::cpu_mark);
    detail::cpu_mark = now;
  }
  detail::installed = next;
}

}  // namespace

ContextScope::ContextScope(RunContext* context)
    : previous_(detail::installed) {
  switch_to(context);
}

ContextScope::~ContextScope() { switch_to(previous_); }

// --- root context ----------------------------------------------------------------

void set_enabled(bool on) {
  detail::enabled_flag.store(on, std::memory_order_relaxed);
}

bool init_from_env() {
  const char* value = std::getenv("RINGENT_METRICS");
  if (value != nullptr && value[0] != '\0' &&
      !(value[0] == '0' && value[1] == '\0')) {
    set_enabled(true);
  }
  return enabled();
}

Snapshot snapshot() { return root_context().snapshot(); }

void reset() { root_context().reset(); }

Snapshot Snapshot::delta_since(const Snapshot& earlier) const {
  Snapshot out;
  for (std::size_t i = 0; i < counter_count; ++i) {
    out.counters[i] = counters[i] - earlier.counters[i];
  }
  for (const auto& stat : phases) {
    PhaseStat delta = stat;
    for (const auto& before : earlier.phases) {
      if (before.name != stat.name) continue;
      delta.wall_ms -= before.wall_ms;
      delta.cpu_ms -= before.cpu_ms;
      delta.calls -= before.calls;
      break;
    }
    if (delta.calls > 0) out.phases.push_back(std::move(delta));
  }
  return out;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_seconds(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

ScopedPhase::ScopedPhase(std::string_view name) {
  if (!counting()) return;
  context_ = &current_context();
  name_ = name;
  wall_start_ = wall_seconds();
  cpu_start_ = thread_cpu_seconds();
}

ScopedPhase::~ScopedPhase() {
  if (context_ == nullptr) return;
  context_->add_phase(name_, wall_seconds() - wall_start_,
                      thread_cpu_seconds() - cpu_start_);
}

}  // namespace ringent::sim::metrics
