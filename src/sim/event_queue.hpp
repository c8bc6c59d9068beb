// Pluggable pending-event sets for the kernel.
//
// Three implementations with identical observable behaviour (pop order is
// (time, sequence) — the determinism contract):
//
//  * FlatHeap4 — the kernel's hot-path structure: a non-virtual flat 4-ary
//    min-heap in structure-of-arrays layout. The ordering keys (time, seq)
//    live in one dense 16-byte-per-event array so a sift touches the minimum
//    number of cache lines; the routing payload (node, tag) is packed into a
//    single uint64 in a parallel array and only read when an event pops.
//    4-ary halves the tree depth of a binary heap and keeps all four
//    children of a node inside one cache line.
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
// The kernel itself holds a FlatHeap4 and a CalendarQueue directly and
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

/// The kernel's hot-path pending-event set: a flat 4-ary min-heap with the
/// ordering keys and the routing payload split into parallel arrays (see the
/// file comment). Matches the EventQueueBase surface so the same templated
/// tests and kernel loops run over all queue implementations, but is not
/// virtual: every call inlines into the kernel loop. peek_min()/pop_min()
/// return by value (the structure-of-arrays layout has no QueuedEvent to
/// reference).
class FlatHeap4 {
 public:
  void push(const QueuedEvent& event) {
    keys_.push_back(Key{event.at.fs(), event.seq});
    payload_.push_back(pack(event.node, event.tag));
    sift_up(keys_.size() - 1);
  }

  /// Precondition: !empty().
  QueuedEvent pop_min() {
    RINGENT_REQUIRE(!keys_.empty(), "pop from empty queue");
    const QueuedEvent out = make_event(keys_[0], payload_[0]);
    const Key last_key = keys_.back();
    const std::uint64_t last_payload = payload_.back();
    keys_.pop_back();
    payload_.pop_back();
    if (!keys_.empty()) {
      keys_[0] = last_key;
      payload_[0] = last_payload;
      sift_down(0);
    }
    return out;
  }

  /// Precondition: !empty().
  QueuedEvent peek_min() const {
    RINGENT_REQUIRE(!keys_.empty(), "peek into empty queue");
    return make_event(keys_[0], payload_[0]);
  }

  /// Earliest pending timestamp without materializing the event.
  /// Precondition: !empty().
  Time min_at() const {
    RINGENT_REQUIRE(!keys_.empty(), "peek into empty queue");
    return Time::from_fs(keys_[0].at_fs);
  }

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  void clear() {
    keys_.clear();
    payload_.clear();
  }
  void reserve(std::size_t expected_events) {
    keys_.reserve(expected_events);
    payload_.reserve(expected_events);
  }

 private:
  struct Key {
    std::int64_t at_fs;
    std::uint64_t seq;
  };

  static bool key_earlier(Key a, Key b) {
    if (a.at_fs != b.at_fs) return a.at_fs < b.at_fs;
    return a.seq < b.seq;
  }
  static std::uint64_t pack(std::uint32_t node, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(node) << 32) | tag;
  }
  static QueuedEvent make_event(Key key, std::uint64_t payload) {
    return QueuedEvent{Time::from_fs(key.at_fs), key.seq,
                       static_cast<std::uint32_t>(payload >> 32),
                       static_cast<std::uint32_t>(payload)};
  }

  void sift_up(std::size_t hole);
  void sift_down(std::size_t hole);

  std::vector<Key> keys_;
  std::vector<std::uint64_t> payload_;
};

inline void FlatHeap4::sift_up(std::size_t hole) {
  const Key key = keys_[hole];
  const std::uint64_t payload = payload_[hole];
  while (hole > 0) {
    const std::size_t parent = (hole - 1) >> 2;
    if (!key_earlier(key, keys_[parent])) break;
    keys_[hole] = keys_[parent];
    payload_[hole] = payload_[parent];
    hole = parent;
  }
  keys_[hole] = key;
  payload_[hole] = payload;
}

inline void FlatHeap4::sift_down(std::size_t hole) {
  // Bottom-up variant (the same trick libstdc++'s __adjust_heap uses): walk
  // the hole to a leaf along the min-child path without comparing against
  // the displaced key, then bubble the key up from the leaf. The displaced
  // key comes from the heap's bottom and is near-maximal almost always, so
  // the bubble-up terminates immediately — one comparison instead of one
  // per level. Pop ORDER is unaffected: (time, seq) keys are unique, so any
  // valid heap shape pops the same sequence.
  const std::size_t n = keys_.size();
  const Key key = keys_[hole];
  const std::uint64_t payload = payload_[hole];
  const std::size_t start = hole;
  for (;;) {
    const std::size_t first_child = (hole << 2) + 1;
    if (first_child >= n) break;
    std::size_t best;
    if (first_child + 4 <= n) {
      // Full fan-out (the common case): pairwise tournament. The two
      // first-round comparisons are independent, so they pipeline; keys
      // are unique, so the winner is the same minimum the linear scan
      // finds.
      const std::size_t a =
          key_earlier(keys_[first_child + 1], keys_[first_child])
              ? first_child + 1
              : first_child;
      const std::size_t b =
          key_earlier(keys_[first_child + 3], keys_[first_child + 2])
              ? first_child + 3
              : first_child + 2;
      best = key_earlier(keys_[b], keys_[a]) ? b : a;
    } else {
      const std::size_t last_child = n;
      best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (key_earlier(keys_[c], keys_[best])) best = c;
      }
    }
    keys_[hole] = keys_[best];
    payload_[hole] = payload_[best];
    hole = best;
  }
  while (hole > start) {
    const std::size_t parent = (hole - 1) >> 2;
    if (!key_earlier(key, keys_[parent])) break;
    keys_[hole] = keys_[parent];
    payload_[hole] = payload_[parent];
    hole = parent;
  }
  keys_[hole] = key;
  payload_[hole] = payload;
}

enum class QueueKind { binary_heap, calendar };

std::unique_ptr<EventQueueBase> make_event_queue(QueueKind kind);

}  // namespace ringent::sim
