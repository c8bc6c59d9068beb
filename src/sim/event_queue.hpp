// Pluggable pending-event sets for the kernel.
//
// Three implementations with identical observable behaviour (pop order is
// (time, sequence) — the determinism contract):
//
//  * SortedRun — the kernel's hot-path structure: the pending events kept
//    sorted in a circular buffer. Pop takes the front slot; push scans back
//    from the tail, moving each later event up one slot. An insert costs one
//    slot move per pending event that pops after the new one, which suits
//    ring traffic: a ring kernel holds at most about L/2 events, and a
//    stage's next firing lands near the tail — measured at 2.7 moves per
//    insert on average for an STR of 96 stages (about 44 pending, 93 % of
//    inserts moving 8 slots or fewer), 0.5 for an STR of 8 and none for an
//    IRO.
//  * BinaryHeapQueue — std::priority_queue semantics via std::*_heap; the
//    reference implementation the equivalence tests compare against.
//  * CalendarQueue — R. Brown's calendar queue (CACM 1988), the classic
//    discrete-event-simulation structure: an array of "days" (buckets) of
//    width ~ the mean event spacing gives O(1) amortized push/pop when the
//    event-time distribution is stationary — which ring simulations are
//    (every stage fires at a fixed mean rate). The queue resizes itself as
//    the population grows or shrinks.
//
// All three are exercised by the same test suite (including a pairwise
// pop-sequence equivalence property) and compared in bench/perf_kernel.
// The kernel itself holds a SortedRun and a CalendarQueue directly and
// selects between them with a branch on QueueKind — no virtual dispatch on
// the hot path (see sim/kernel.hpp); the EventQueueBase hierarchy remains
// for tests, benches and external callers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/require.hpp"
#include "common/time.hpp"

namespace ringent::sim {

struct QueuedEvent {
  Time at;
  std::uint64_t seq = 0;
  std::uint32_t node = 0;
  std::uint32_t tag = 0;
};

/// Ordering contract: earlier time first; equal times in sequence order.
inline bool earlier(const QueuedEvent& a, const QueuedEvent& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

class EventQueueBase {
 public:
  virtual ~EventQueueBase() = default;
  virtual void push(const QueuedEvent& event) = 0;
  /// Precondition: !empty().
  virtual QueuedEvent pop_min() = 0;
  /// Precondition: !empty(). Valid until the next push/pop.
  virtual const QueuedEvent& peek_min() = 0;
  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
  virtual void clear() = 0;
  /// Pre-size internal storage for an expected steady pending-event
  /// population so the hot loop never reallocates. A hint only — queues
  /// grow past it transparently.
  virtual void reserve(std::size_t expected_events) = 0;
};

class BinaryHeapQueue final : public EventQueueBase {
 public:
  void push(const QueuedEvent& event) override;
  QueuedEvent pop_min() override;
  const QueuedEvent& peek_min() override;
  bool empty() const override { return heap_.empty(); }
  std::size_t size() const override { return heap_.size(); }
  void clear() override { heap_.clear(); }
  void reserve(std::size_t expected_events) override {
    heap_.reserve(expected_events);
  }

 private:
  std::vector<QueuedEvent> heap_;  // std::*_heap with `later` comparator
};

class CalendarQueue final : public EventQueueBase {
 public:
  /// `initial_width` is the starting day width; it adapts after the first
  /// resize. Defaults to 100 ps — roughly a gate delay, a good prior for
  /// ring workloads.
  explicit CalendarQueue(Time initial_width = Time::from_ps(100.0));

  void push(const QueuedEvent& event) override;
  QueuedEvent pop_min() override;
  const QueuedEvent& peek_min() override;
  /// Earliest pending timestamp (same cached lookup as peek_min). Non-virtual
  /// so the kernel's drain loop reads it without materializing an event.
  Time min_at() { return peek_min().at; }
  bool empty() const override { return size_ == 0; }
  std::size_t size() const override { return size_; }
  void clear() override;
  void reserve(std::size_t expected_events) override;

 private:
  std::size_t bucket_of(Time t) const;
  void resize(std::size_t new_bucket_count);
  /// Locate the bucket/slot of the minimum event; cached until mutation.
  void find_min();

  std::vector<std::vector<QueuedEvent>> buckets_;
  std::int64_t width_fs_;
  std::size_t size_ = 0;
  // Search state: the virtual "today" advances with pops.
  std::int64_t current_day_ = 0;  // absolute day index of the search cursor
  // Cached minimum (bucket index + position), recomputed lazily.
  bool min_valid_ = false;
  std::size_t min_bucket_ = 0;
  std::size_t min_slot_ = 0;
};

/// The kernel's hot-path pending-event set: the pending events kept as one
/// sorted run in a circular buffer (see the file comment). Matches the
/// EventQueueBase surface so the same templated tests and kernel loops run
/// over all queue implementations, but is not virtual: every call inlines
/// into the kernel loop. peek_min()/pop_min() return by value (the slots
/// store a packed payload, not a QueuedEvent to reference).
class SortedRun {
 public:
  /// Insert by scanning back from the tail: each pending event that pops
  /// after `event` moves up one slot. Cost is proportional to the number of
  /// later pending events.
  void push(const QueuedEvent& event) {
    if (size_ == slots_.size()) regrow(2 * slots_.size());
    const Slot slot{event.at.fs(), event.seq, pack(event.node, event.tag)};
    std::size_t pos = head_ + size_;  // logical tail; physical = pos & mask_
    while (pos != head_) {
      const Slot& before = slots_[(pos - 1) & mask_];
      if (!slot_earlier(slot, before)) break;
      slots_[pos & mask_] = before;
      --pos;
    }
    slots_[pos & mask_] = slot;
    ++size_;
  }

  /// Precondition: !empty().
  QueuedEvent pop_min() {
    RINGENT_REQUIRE(size_ != 0, "pop from empty queue");
    const QueuedEvent out = make_event(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return out;
  }

  /// Precondition: !empty().
  QueuedEvent peek_min() const {
    RINGENT_REQUIRE(size_ != 0, "peek into empty queue");
    return make_event(slots_[head_]);
  }

  /// Earliest pending timestamp without materializing the event.
  /// Precondition: !empty().
  Time min_at() const {
    RINGENT_REQUIRE(size_ != 0, "peek into empty queue");
    return Time::from_fs(slots_[head_].at_fs);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots allocated (a power of two, or 0 before the first push).
  std::size_t capacity() const { return slots_.size(); }
  void clear() {
    head_ = 0;
    size_ = 0;
  }
  void reserve(std::size_t expected_events) {
    if (expected_events > slots_.size()) regrow(expected_events);
  }

 private:
  // A slot is a plain (fs, seq, payload) triple, not a QueuedEvent: with
  // QueuedEvent slots, GCC 12 builds measured BM_KernelEventThroughput/1
  // and BM_IroSimulation well below this layout (about half and two thirds
  // of its rate, on a noisy host).
  struct Slot {
    std::int64_t at_fs;
    std::uint64_t seq;
    std::uint64_t payload;  ///< (node << 32) | tag
  };

  static bool slot_earlier(const Slot& a, const Slot& b) {
    if (a.at_fs != b.at_fs) return a.at_fs < b.at_fs;
    return a.seq < b.seq;
  }
  static std::uint64_t pack(std::uint32_t node, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(node) << 32) | tag;
  }
  static QueuedEvent make_event(const Slot& slot) {
    return QueuedEvent{Time::from_fs(slot.at_fs), slot.seq,
                       static_cast<std::uint32_t>(slot.payload >> 32),
                       static_cast<std::uint32_t>(slot.payload)};
  }

  /// Move the run, in order, to the front of a buffer of at least
  /// `min_slots` slots (rounded up to a power of two so indices wrap by
  /// mask).
  void regrow(std::size_t min_slots) {
    std::size_t slots = 8;
    while (slots < min_slots) slots *= 2;
    std::vector<Slot> grown(slots);
    for (std::size_t k = 0; k < size_; ++k) {
      grown[k] = slots_[(head_ + k) & mask_];
    }
    slots_.swap(grown);
    mask_ = slots - 1;
    head_ = 0;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  ///< physical slot of the earliest event
  std::size_t size_ = 0;
};

/// Pending-event set selector. `binary_heap` names the default: a Kernel
/// then uses its SortedRun, make_event_queue() the BinaryHeapQueue (the two
/// pop the same sequence; the name predates the sorted run).
enum class QueueKind { binary_heap, calendar };

std::unique_ptr<EventQueueBase> make_event_queue(QueueKind kind);

}  // namespace ringent::sim
