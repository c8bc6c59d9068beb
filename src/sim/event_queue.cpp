#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace ringent::sim {

namespace {
// std::push_heap builds a max-heap; invert the order to pop the earliest.
bool later_heap(const QueuedEvent& a, const QueuedEvent& b) {
  return earlier(b, a);
}
}  // namespace

void BinaryHeapQueue::push(const QueuedEvent& event) {
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), later_heap);
}

QueuedEvent BinaryHeapQueue::pop_min() {
  RINGENT_REQUIRE(!heap_.empty(), "pop from empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), later_heap);
  const QueuedEvent out = heap_.back();
  heap_.pop_back();
  return out;
}

const QueuedEvent& BinaryHeapQueue::peek_min() {
  RINGENT_REQUIRE(!heap_.empty(), "peek into empty queue");
  return heap_.front();
}

CalendarQueue::CalendarQueue(Time initial_width)
    : buckets_(16), width_fs_(initial_width.fs()) {
  RINGENT_REQUIRE(initial_width > Time::zero(), "day width must be positive");
}

std::size_t CalendarQueue::bucket_of(Time t) const {
  // Negative times are legal for the structure (not used by the kernel);
  // use floor division.
  std::int64_t day = t.fs() / width_fs_;
  if (t.fs() < 0 && t.fs() % width_fs_ != 0) --day;
  const auto n = static_cast<std::int64_t>(buckets_.size());
  std::int64_t index = day % n;
  if (index < 0) index += n;
  return static_cast<std::size_t>(index);
}

void CalendarQueue::push(const QueuedEvent& event) {
  buckets_[bucket_of(event.at)].push_back(event);
  ++size_;
  std::int64_t day = event.at.fs() / width_fs_;
  if (event.at.fs() < 0 && event.at.fs() % width_fs_ != 0) --day;
  if (day < current_day_) current_day_ = day;
  if (min_valid_) {
    // The cache survives only if the new event cannot be the minimum.
    const auto& cached = buckets_[min_bucket_][min_slot_];
    if (earlier(event, cached)) min_valid_ = false;
  }
  if (size_ > 2 * buckets_.size()) {
    resize(buckets_.size() * 2);
  }
}

void CalendarQueue::find_min() {
  RINGENT_REQUIRE(size_ > 0, "peek into empty queue");
  if (min_valid_) return;

  const auto n = static_cast<std::int64_t>(buckets_.size());
  // Scan day by day from the cursor: in each day, only events belonging to
  // that day count. After a full year of empty days, fall back to a global
  // scan (events are sparse and far away).
  for (std::int64_t scanned = 0; scanned < n; ++scanned) {
    const std::int64_t day = current_day_ + scanned;
    const auto& bucket =
        buckets_[static_cast<std::size_t>(((day % n) + n) % n)];
    bool found = false;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      std::int64_t event_day = bucket[i].at.fs() / width_fs_;
      if (bucket[i].at.fs() < 0 && bucket[i].at.fs() % width_fs_ != 0) {
        --event_day;
      }
      if (event_day != day) continue;
      if (!found ||
          earlier(bucket[i],
                  buckets_[min_bucket_][min_slot_])) {
        min_bucket_ = static_cast<std::size_t>(((day % n) + n) % n);
        min_slot_ = i;
        found = true;
      }
    }
    if (found) {
      current_day_ = day;
      min_valid_ = true;
      return;
    }
  }

  // Global fallback: direct minimum over every stored event.
  bool found = false;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
      if (!found || earlier(buckets_[b][i], buckets_[min_bucket_][min_slot_])) {
        min_bucket_ = b;
        min_slot_ = i;
        found = true;
      }
    }
  }
  RINGENT_REQUIRE(found, "internal: size_ > 0 but no event found");
  const auto& min_event = buckets_[min_bucket_][min_slot_];
  current_day_ = min_event.at.fs() / width_fs_;
  if (min_event.at.fs() < 0 && min_event.at.fs() % width_fs_ != 0) {
    --current_day_;
  }
  min_valid_ = true;
}

const QueuedEvent& CalendarQueue::peek_min() {
  find_min();
  return buckets_[min_bucket_][min_slot_];
}

QueuedEvent CalendarQueue::pop_min() {
  find_min();
  auto& bucket = buckets_[min_bucket_];
  const QueuedEvent out = bucket[min_slot_];
  bucket[min_slot_] = bucket.back();
  bucket.pop_back();
  --size_;
  min_valid_ = false;
  if (buckets_.size() > 16 && size_ < buckets_.size() / 4) {
    resize(buckets_.size() / 2);
  }
  return out;
}

void CalendarQueue::resize(std::size_t new_bucket_count) {
  std::vector<QueuedEvent> all;
  all.reserve(size_);
  for (auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  // Brown's width rule, simplified: spread the current population over
  // ~half the buckets so a day holds ~2 events.
  if (all.size() >= 2) {
    auto [mn, mx] = std::minmax_element(
        all.begin(), all.end(),
        [](const QueuedEvent& a, const QueuedEvent& b) { return a.at < b.at; });
    const std::int64_t span = (mx->at - mn->at).fs();
    const std::int64_t width =
        span / static_cast<std::int64_t>(all.size()) * 2;
    width_fs_ = std::max<std::int64_t>(width, 1);
  }
  buckets_.assign(new_bucket_count, {});
  size_ = 0;
  min_valid_ = false;
  current_day_ = 0;
  if (!all.empty()) {
    std::int64_t min_day = all.front().at.fs() / width_fs_;
    for (const auto& event : all) {
      const std::int64_t day = event.at.fs() / width_fs_;
      min_day = std::min(min_day, day);
    }
    current_day_ = min_day;
    for (const auto& event : all) push(event);
  }
}

void CalendarQueue::reserve(std::size_t expected_events) {
  // push() grows the year when the population exceeds 2 events per day;
  // size the year for that load factor up front.
  std::size_t want = buckets_.size();
  while (want * 2 < expected_events) want *= 2;
  if (want > buckets_.size()) resize(want);
}

void CalendarQueue::clear() {
  for (auto& bucket : buckets_) bucket.clear();
  size_ = 0;
  min_valid_ = false;
  current_day_ = 0;
}

std::unique_ptr<EventQueueBase> make_event_queue(QueueKind kind) {
  if (kind == QueueKind::calendar) {
    return std::make_unique<CalendarQueue>();
  }
  return std::make_unique<BinaryHeapQueue>();
}

}  // namespace ringent::sim
