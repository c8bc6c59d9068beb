#include "sim/kernel.hpp"

namespace ringent::sim {

std::uint64_t Kernel::run_until(Time t_end) {
  const auto fire = [this](const QueuedEvent& event) {
    processes_[event.node]->fire(*this, event.tag);
  };
  if (kind_ == QueueKind::binary_heap) {
    return drain_until(heap_, t_end, fire);
  }
  return drain_until(calendar_, t_end, fire);
}

std::uint64_t Kernel::run_events(std::uint64_t max_events) {
  const auto fire = [this](const QueuedEvent& event) {
    processes_[event.node]->fire(*this, event.tag);
  };
  if (kind_ == QueueKind::binary_heap) {
    return drain_events(heap_, max_events, fire);
  }
  return drain_events(calendar_, max_events, fire);
}

void Kernel::reset_time() {
  if (kind_ == QueueKind::binary_heap) {
    count(metrics::Counter::events_cancelled, heap_.size());
    heap_.clear();
  } else {
    count(metrics::Counter::events_cancelled, calendar_.size());
    calendar_.clear();
  }
  now_ = Time::zero();
}

void Kernel::publish_pending() {
  if (metrics::counting()) {
    metrics::RunContext& context = metrics::current_context();
    for (std::size_t i = 0; i < metrics::counter_count; ++i) {
      if (pending_[i] != 0) {
        context.add(static_cast<metrics::Counter>(i), pending_[i]);
      }
    }
  }
  pending_.fill(0);
}

}  // namespace ringent::sim
