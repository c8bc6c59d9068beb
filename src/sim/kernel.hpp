// Discrete-event simulation kernel.
//
// The kernel advances a femtosecond-resolution clock through a time-ordered
// event queue. Determinism is guaranteed two ways: events at equal timestamps
// fire in schedule order (a monotonically increasing sequence number breaks
// ties), and all stochastic behaviour lives in the components, which draw
// from explicitly seeded streams.
//
// Components implement Process and are registered with add_process(); events
// address them by NodeId plus a component-defined 32-bit tag, so the hot loop
// performs no allocation.
//
// Hot-path structure: the kernel owns its two pending-event sets directly —
// a FlatHeap4 (the default) and a CalendarQueue — and selects between them
// with a branch on QueueKind instead of a virtual call per push/pop. The
// generic run loops dispatch Process::fire virtually; a single-process
// simulation (every Oscillator — one ring per kernel) can instead use
// run_until_on<P>(), which devirtualizes the fire call so a `final` ring
// model inlines its event handler straight into the drain loop. Both paths
// pop the identical (time, seq) sequence and produce the identical counts.
//
// Counting (sim/metrics.hpp) stays off the per-event path: inside a drain
// processes count into a plain per-kernel array (Kernel::count), the
// kernel adds its own counts (schedules and pushes from next_seq_, events
// fired and pops from events_fired_) once per drain, and a guard publishes
// the pending counts with one metrics::bump each when the drain exits —
// normally or by an exception out of Process::fire. Outside a drain counts
// are published at once, so a snapshot taken between runs is exact.
//
// The kernel does not own processes: a ring model owns its stages and
// registers them for the duration of a run (see ring/iro.hpp, ring/str.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

namespace ringent::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId invalid_node = ~NodeId{0};

class Kernel;

/// Interface for anything that can receive scheduled events.
class Process {
 public:
  virtual ~Process() = default;

  /// Called when an event scheduled for this process reaches the head of the
  /// queue. `tag` is the value passed at schedule time; its meaning is
  /// private to the process.
  virtual void fire(Kernel& kernel, std::uint32_t tag) = 0;
};

class Kernel {
 public:
  /// The pending-event set is selectable: the default flat 4-ary heap, or a
  /// calendar queue for large stationary workloads. Both give bit-identical
  /// simulations — asserted by tests.
  explicit Kernel(QueueKind queue_kind = QueueKind::binary_heap)
      : kind_(queue_kind) {}
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Register a process; the returned id addresses it in schedule calls.
  /// The caller keeps ownership and must keep the process alive until the
  /// kernel is destroyed or reset.
  NodeId add_process(Process* process) {
    RINGENT_REQUIRE(process != nullptr, "null process");
    processes_.push_back(process);
    return static_cast<NodeId>(processes_.size() - 1);
  }

  /// Number of registered processes.
  std::size_t process_count() const { return processes_.size(); }

  /// Schedule an event `delay` after the current time. Delays must be
  /// non-negative; zero-delay events fire after already-queued events with
  /// the same timestamp.
  void schedule_in(Time delay, NodeId node, std::uint32_t tag = 0) {
    RINGENT_REQUIRE(!delay.is_negative(), "negative delay");
    schedule_at(now_ + delay, node, tag);
  }

  /// Schedule an event at an absolute time >= now().
  void schedule_at(Time at, NodeId node, std::uint32_t tag = 0) {
    RINGENT_REQUIRE(node < processes_.size(), "unknown node id");
    RINGENT_REQUIRE(at >= now_, "cannot schedule in the past");
    if (!draining_) {
      // A drain derives its schedules from next_seq_ when it ends.
      metrics::bump(metrics::Counter::events_scheduled);
      metrics::bump(push_counter());
    }
    const QueuedEvent event{at, next_seq_++, node, tag};
    if (kind_ == QueueKind::binary_heap) {
      heap_.push(event);
      telemetry::record(telemetry::Histogram::queue_depth, heap_.size());
    } else {
      calendar_.push(event);
      telemetry::record(telemetry::Histogram::queue_depth, calendar_.size());
    }
  }

  /// Count `n` occurrences of `counter` for sim::metrics. Inside a drain
  /// this is a plain add, published when the drain exits; outside one it is
  /// metrics::bump.
  void count(metrics::Counter counter, std::uint64_t n = 1) {
    if (draining_) {
      pending_[static_cast<std::size_t>(counter)] += n;
    } else {
      metrics::bump(counter, n);
    }
  }

  /// Current simulation time (the timestamp of the last fired event).
  Time now() const { return now_; }

  /// Total events fired since construction.
  std::uint64_t events_fired() const { return events_fired_; }

  /// True if no events are pending.
  bool idle() const {
    return kind_ == QueueKind::binary_heap ? heap_.empty() : calendar_.empty();
  }

  /// Fire events until the queue is empty or the next event is later than
  /// `t_end`. Events exactly at `t_end` are fired. Returns events fired by
  /// this call. On return now() == t_end if any horizon was reached early.
  std::uint64_t run_until(Time t_end);

  /// Fire at most `max_events` events. Returns events fired.
  std::uint64_t run_events(std::uint64_t max_events);

  /// run_until for a simulation whose only registered process is `process`:
  /// the Process::fire dispatch devirtualizes, so a `final` process type
  /// inlines its handler into the drain loop. Falls back to the generic
  /// run_until when other processes are registered. Identical semantics and
  /// counters either way.
  template <class P>
  std::uint64_t run_until_on(P& process, Time t_end) {
    if (processes_.size() != 1 || processes_[0] != &process) {
      return run_until(t_end);
    }
    const auto fire = [this, &process](const QueuedEvent& event) {
      process.fire(*this, event.tag);
    };
    if (kind_ == QueueKind::binary_heap) {
      return drain_until(heap_, t_end, fire);
    }
    return drain_until(calendar_, t_end, fire);
  }

  /// Drop all pending events and reset the clock to zero. Registered
  /// processes stay registered.
  void reset_time();

  /// Pre-size the pending-event set for an expected steady population
  /// (e.g. ~1 event per ring stage) so the hot loop never reallocates.
  void reserve_events(std::size_t expected_events) {
    if (kind_ == QueueKind::binary_heap) {
      heap_.reserve(expected_events);
    } else {
      calendar_.reserve(expected_events);
    }
  }

 private:
  /// Scope of one drain: marks the kernel draining and, on exit (normal or
  /// by exception), adds the drain's schedules (each one queue push) and
  /// fired events (each one queue pop) to the pending counts and publishes
  /// them.
  class Drain {
   public:
    explicit Drain(Kernel& kernel)
        : kernel_(kernel),
          first_fired_(kernel.events_fired_),
          first_seq_(kernel.next_seq_) {
      RINGENT_REQUIRE(!kernel.draining_, "kernel drains do not nest");
      kernel_.draining_ = true;
    }
    ~Drain() {
      const std::uint64_t scheduled = kernel_.next_seq_ - first_seq_;
      kernel_.count(metrics::Counter::events_scheduled, scheduled);
      kernel_.count(kernel_.push_counter(), scheduled);
      kernel_.count(metrics::Counter::events_fired, fired());
      kernel_.count(kernel_.pop_counter(), fired());
      kernel_.draining_ = false;
      kernel_.publish_pending();
    }
    Drain(const Drain&) = delete;
    Drain& operator=(const Drain&) = delete;

    std::uint64_t fired() const {
      return kernel_.events_fired_ - first_fired_;
    }

   private:
    Kernel& kernel_;
    std::uint64_t first_fired_;
    std::uint64_t first_seq_;
  };

  metrics::Counter push_counter() const {
    return kind_ == QueueKind::binary_heap ? metrics::Counter::heap_pushes
                                           : metrics::Counter::calendar_pushes;
  }
  metrics::Counter pop_counter() const {
    return kind_ == QueueKind::binary_heap ? metrics::Counter::heap_pops
                                           : metrics::Counter::calendar_pops;
  }

  /// Bump every non-zero pending count once (when metrics are enabled) and
  /// zero it either way.
  void publish_pending();

  /// The shared drain loop, templated over the concrete queue type and the
  /// fire dispatcher: the generic run loops route by event.node through the
  /// virtual Process::fire, run_until_on passes a devirtualized handler.
  template <class Q, class Fire>
  std::uint64_t drain_until(Q& queue, Time t_end, const Fire& fire) {
    RINGENT_REQUIRE(t_end >= now_, "horizon in the past");
    const Drain drain(*this);
    while (!queue.empty() && queue.min_at() <= t_end) {
      fire_next(queue, fire);
    }
    now_ = t_end;
    return drain.fired();
  }

  template <class Q, class Fire>
  std::uint64_t drain_events(Q& queue, std::uint64_t max_events,
                             const Fire& fire) {
    const Drain drain(*this);
    while (drain.fired() < max_events && !queue.empty()) {
      fire_next(queue, fire);
    }
    return drain.fired();
  }

  template <class Q, class Fire>
  void fire_next(Q& queue, const Fire& fire) {
    const QueuedEvent event = queue.pop_min();
    telemetry::record(telemetry::Histogram::event_gap_fs,
                      static_cast<std::uint64_t>((event.at - now_).fs()));
    now_ = event.at;
    ++events_fired_;
    fire(event);
  }

  std::vector<Process*> processes_;
  QueueKind kind_;
  FlatHeap4 heap_;
  CalendarQueue calendar_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  bool draining_ = false;
  std::array<std::uint64_t, metrics::counter_count> pending_{};
};

}  // namespace ringent::sim
