// Tests for the pluggable event queues: correctness of each implementation,
// pop-sequence equivalence between them, and bit-identical ring simulations
// through the kernel regardless of the queue choice.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "ring/str.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"

using namespace ringent;
using namespace ringent::literals;
using sim::BinaryHeapQueue;
using sim::CalendarQueue;
using sim::SortedRun;
using sim::QueuedEvent;

namespace {

QueuedEvent ev(std::int64_t fs, std::uint64_t seq) {
  return QueuedEvent{Time::from_fs(fs), seq, 0, 0};
}

template <class Queue>
void basic_order_check(Queue& queue) {
  queue.push(ev(300, 0));
  queue.push(ev(100, 1));
  queue.push(ev(200, 2));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.peek_min().at.fs(), 100);
  EXPECT_EQ(queue.pop_min().at.fs(), 100);
  EXPECT_EQ(queue.pop_min().at.fs(), 200);
  EXPECT_EQ(queue.pop_min().at.fs(), 300);
  EXPECT_TRUE(queue.empty());
}

template <class Queue>
void tie_break_check(Queue& queue) {
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    queue.push(ev(5000, 19 - seq));
  }
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    EXPECT_EQ(queue.pop_min().seq, seq);
  }
}

}  // namespace

TEST(BinaryHeapQueue, OrderAndTieBreak) {
  BinaryHeapQueue queue;
  basic_order_check(queue);
  tie_break_check(queue);
  EXPECT_THROW(queue.pop_min(), PreconditionError);
}

TEST(CalendarQueue, OrderAndTieBreak) {
  CalendarQueue queue;
  basic_order_check(queue);
  tie_break_check(queue);
  EXPECT_THROW(queue.pop_min(), PreconditionError);
}

TEST(SortedRunQueue, OrderAndTieBreak) {
  SortedRun queue;
  basic_order_check(queue);
  tie_break_check(queue);
  EXPECT_THROW(queue.pop_min(), PreconditionError);
}

TEST(SortedRunQueue, PreservesNodeAndTagPayload) {
  // Round-trip both payload limits.
  SortedRun queue;
  queue.push(QueuedEvent{Time::from_fs(10), 0, 0xFFFFFFFFu, 0u});
  queue.push(QueuedEvent{Time::from_fs(5), 1, 7u, 0xFFFFFFFFu});
  const QueuedEvent first = queue.pop_min();
  EXPECT_EQ(first.node, 7u);
  EXPECT_EQ(first.tag, 0xFFFFFFFFu);
  const QueuedEvent second = queue.pop_min();
  EXPECT_EQ(second.node, 0xFFFFFFFFu);
  EXPECT_EQ(second.tag, 0u);
}

TEST(SortedRunQueue, WrapsAroundAndGrowsWhileWrapped) {
  // Advance the head past the middle of the first 8-slot buffer, push until
  // the run wraps past the buffer's end, then push more so the buffer grows
  // while wrapped. Every pop must still come out in (time, seq) order.
  SortedRun queue;
  std::uint64_t seq = 0;
  std::int64_t t = 0;
  for (int i = 0; i < 6; ++i) queue.push(ev(t += 10, seq++));
  ASSERT_EQ(queue.capacity(), 8u);
  for (int i = 0; i < 5; ++i) queue.pop_min();
  // The head sits at slot 5: these land in slots 6, 7, 0, 1, 2, 3.
  for (int i = 0; i < 6; ++i) queue.push(ev(t += 10, seq++));
  ASSERT_EQ(queue.size(), 7u);
  // Earlier than everything pending: the scan crosses the seam to the head.
  queue.push(ev(15, seq++));
  ASSERT_EQ(queue.capacity(), 8u);
  // The buffer is full and wrapped: this push grows it, then lands mid-run.
  queue.push(ev(105, seq++));
  EXPECT_EQ(queue.capacity(), 16u);
  for (int i = 0; i < 12; ++i) queue.push(ev(t += 10, seq++));
  EXPECT_EQ(queue.capacity(), 32u);

  std::int64_t last = -1;
  std::size_t popped = 0;
  while (!queue.empty()) {
    const QueuedEvent out = queue.pop_min();
    ASSERT_GT(out.at.fs(), last);
    last = out.at.fs();
    ++popped;
  }
  EXPECT_EQ(popped, 1u + 6u + 2u + 12u);
  EXPECT_THROW(queue.peek_min(), PreconditionError);
}

TEST(SortedRunQueue, RingTrafficMatchesMultisetReference) {
  // Ring-shaped traffic: pop the earliest event, then schedule 0-2 events a
  // little after it — mostly near the tail, with equal-time ties and the
  // odd insert near the head — against a std::multiset ordered by
  // (time, seq), one pop at a time. A small reserve forces growth mid-run.
  const auto before = [](const QueuedEvent& a, const QueuedEvent& b) {
    return sim::earlier(a, b);
  };
  for (const std::uint64_t seed : {5u, 55u, 555u}) {
    SortedRun queue;
    queue.reserve(4);
    std::multiset<QueuedEvent, decltype(before)> reference(before);
    Xoshiro256 rng(seed);
    std::uint64_t seq = 0;
    const auto push = [&](std::int64_t fs) {
      const QueuedEvent event{Time::from_fs(fs), seq++,
                              static_cast<std::uint32_t>(rng.below(96)),
                              static_cast<std::uint32_t>(seq)};
      queue.push(event);
      reference.insert(event);
    };
    for (int i = 0; i < 48; ++i) {
      push(static_cast<std::int64_t>(rng.below(40) * 250));
    }
    for (int round = 0; round < 50000 && !reference.empty(); ++round) {
      ASSERT_EQ(queue.size(), reference.size());
      const QueuedEvent want = *reference.begin();
      reference.erase(reference.begin());
      ASSERT_EQ(queue.min_at().fs(), want.at.fs());
      const QueuedEvent got = queue.pop_min();
      ASSERT_EQ(got.at.fs(), want.at.fs()) << "seed " << seed << " " << round;
      ASSERT_EQ(got.seq, want.seq) << "seed " << seed << " " << round;
      ASSERT_EQ(got.node, want.node);
      ASSERT_EQ(got.tag, want.tag);
      // Keep the population near 48 (a 96-stage STR's steady state).
      const std::uint64_t pushes =
          reference.size() < 40 ? 2 : (reference.size() > 56 ? 0 : 1);
      for (std::uint64_t p = 0; p < pushes; ++p) {
        const std::uint64_t shape = rng.below(10);
        std::int64_t ahead = 0;  // shape 0: tie with the popped time
        if (shape < 8) {
          ahead = 9000 + static_cast<std::int64_t>(rng.below(12) * 250);
        } else if (shape == 8) {
          ahead = static_cast<std::int64_t>(rng.below(4) * 250);
        }
        push(got.at.fs() + ahead);
      }
    }
    EXPECT_GT(queue.capacity(), 4u);
  }
}

TEST(CalendarQueue, SurvivesResizeCycles) {
  CalendarQueue queue(Time::from_ps(10.0));
  Xoshiro256 rng(3);
  // Grow to 10k events (multiple doublings), then drain (shrinks).
  std::vector<std::int64_t> times;
  for (int i = 0; i < 10000; ++i) {
    const auto t = static_cast<std::int64_t>(rng.below(100000000));
    times.push_back(t);
    queue.push(ev(t, static_cast<std::uint64_t>(i)));
  }
  std::sort(times.begin(), times.end());
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_EQ(queue.pop_min().at.fs(), times[i]) << i;
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, SparseFarFutureEventsUseTheFallbackScan) {
  CalendarQueue queue(Time::from_ps(1.0));
  queue.push(ev(5, 0));
  queue.push(ev(50'000'000'000, 1));  // 50 us away: far outside the year
  EXPECT_EQ(queue.pop_min().at.fs(), 5);
  EXPECT_EQ(queue.pop_min().at.fs(), 50'000'000'000);
}

TEST(CalendarQueue, InterleavedPushPopStaysOrdered) {
  CalendarQueue queue;
  Xoshiro256 rng(9);
  std::int64_t watermark = 0;  // pops must be monotone when pushes are >= pop
  std::uint64_t seq = 0;
  for (int round = 0; round < 2000; ++round) {
    const int pushes = 1 + static_cast<int>(rng.below(4));
    for (int p = 0; p < pushes; ++p) {
      queue.push(ev(watermark + static_cast<std::int64_t>(rng.below(500000)),
                    seq++));
    }
    const QueuedEvent out = queue.pop_min();
    ASSERT_GE(out.at.fs(), watermark);
    watermark = out.at.fs();
  }
}

TEST(EventQueues, ReserveDoesNotChangePopOrder) {
  // reserve() is a capacity hint only: a reserved queue must pop the exact
  // same (time, seq) sequence as an unreserved one.
  BinaryHeapQueue plain_heap, reserved_heap;
  CalendarQueue plain_calendar, reserved_calendar;
  reserved_heap.reserve(4096);
  reserved_calendar.reserve(4096);
  Xoshiro256 rng(23);
  std::uint64_t seq = 0;
  for (int i = 0; i < 4000; ++i) {
    const QueuedEvent event =
        ev(static_cast<std::int64_t>(rng.below(100000) * 50), seq++);
    plain_heap.push(event);
    reserved_heap.push(event);
    plain_calendar.push(event);
    reserved_calendar.push(event);
  }
  while (!plain_heap.empty()) {
    const QueuedEvent expected = plain_heap.pop_min();
    const QueuedEvent h = reserved_heap.pop_min();
    const QueuedEvent c = plain_calendar.pop_min();
    const QueuedEvent r = reserved_calendar.pop_min();
    ASSERT_EQ(h.seq, expected.seq);
    ASSERT_EQ(c.seq, expected.seq);
    ASSERT_EQ(r.seq, expected.seq);
  }
  EXPECT_TRUE(reserved_heap.empty());
  EXPECT_TRUE(reserved_calendar.empty());
}

TEST(EventQueues, PopSequencesAreIdentical) {
  BinaryHeapQueue heap;
  CalendarQueue calendar;
  Xoshiro256 rng(17);
  std::uint64_t seq = 0;
  for (int i = 0; i < 20000; ++i) {
    // Clustered times force tie-breaks to matter.
    const auto t = static_cast<std::int64_t>(rng.below(5000) * 100);
    const QueuedEvent event = ev(t, seq++);
    heap.push(event);
    calendar.push(event);
  }
  while (!heap.empty()) {
    const QueuedEvent a = heap.pop_min();
    const QueuedEvent b = calendar.pop_min();
    ASSERT_EQ(a.at.fs(), b.at.fs());
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(EventQueues, RandomizedWorkloadEquivalence) {
  // Property test: under an arbitrary interleaving of push / pop / clear /
  // reserve (the full EventQueueBase surface the kernel exercises), the two
  // implementations are observationally identical — same pop sequence, same
  // sizes, same emptiness. Fixed seeds keep the workloads reproducible.
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    BinaryHeapQueue heap;
    CalendarQueue calendar;
    Xoshiro256 rng(seed);
    std::uint64_t seq = 0;
    std::int64_t watermark = 0;  // kernel contract: never push before "now"
    for (int op = 0; op < 30000; ++op) {
      const std::uint64_t pick = rng.below(100);
      if (pick < 55) {
        // Push. Mostly clustered times (ties force the seq tie-break),
        // occasionally far ahead (exercises the calendar's fallback scan).
        const std::int64_t ahead =
            rng.below(10) == 0
                ? static_cast<std::int64_t>(rng.below(50'000'000))
                : static_cast<std::int64_t>(rng.below(500) * 100);
        const QueuedEvent event = ev(watermark + ahead, seq++);
        heap.push(event);
        calendar.push(event);
      } else if (pick < 90) {
        ASSERT_EQ(heap.empty(), calendar.empty());
        if (heap.empty()) continue;
        const QueuedEvent expected_peek = heap.peek_min();
        ASSERT_EQ(calendar.peek_min().at.fs(), expected_peek.at.fs());
        ASSERT_EQ(calendar.peek_min().seq, expected_peek.seq);
        const QueuedEvent a = heap.pop_min();
        const QueuedEvent b = calendar.pop_min();
        ASSERT_EQ(a.at.fs(), b.at.fs()) << "seed " << seed << " op " << op;
        ASSERT_EQ(a.seq, b.seq) << "seed " << seed << " op " << op;
        watermark = a.at.fs();
      } else if (pick < 96) {
        // Capacity hint mid-stream: must not disturb relative order.
        const std::size_t hint = 1 + rng.below(5000);
        heap.reserve(hint);
        calendar.reserve(hint);
      } else if (pick < 98) {
        heap.clear();
        calendar.clear();
        ASSERT_TRUE(heap.empty());
        ASSERT_TRUE(calendar.empty());
        // Cleared queues restart from a fresh timeline (kernel reset_time).
        watermark = 0;
      } else {
        ASSERT_EQ(heap.size(), calendar.size());
      }
    }
    // Drain whatever is left and compare to the end.
    while (!heap.empty()) {
      ASSERT_FALSE(calendar.empty());
      const QueuedEvent a = heap.pop_min();
      const QueuedEvent b = calendar.pop_min();
      ASSERT_EQ(a.at.fs(), b.at.fs());
      ASSERT_EQ(a.seq, b.seq);
    }
    EXPECT_TRUE(calendar.empty());
  }
}

TEST(EventQueues, ThreeQueueHoldModelEquivalence) {
  // All three implementations — sorted run (the kernel's default
  // in-process queue), virtual binary heap and calendar queue — must pop
  // the identical (time, seq) sequence under hold-model workloads: pop one
  // event, push a few events at times >= the popped time (how a simulated
  // ring actually drives the queue). Compared pairwise on every pop.
  for (const std::uint64_t seed : {11u, 222u, 3333u}) {
    SortedRun flat;
    BinaryHeapQueue heap;
    CalendarQueue calendar;
    Xoshiro256 rng(seed);
    std::uint64_t seq = 0;
    std::int64_t watermark = 0;
    const auto push_all = [&](std::int64_t fs) {
      const QueuedEvent event = ev(fs, seq++);
      flat.push(event);
      heap.push(event);
      calendar.push(event);
    };
    // Seed population: clustered times so ties force the seq tie-break.
    for (int i = 0; i < 512; ++i) {
      push_all(static_cast<std::int64_t>(rng.below(2000) * 100));
    }
    for (int round = 0; round < 20000; ++round) {
      ASSERT_EQ(flat.empty(), heap.empty());
      ASSERT_EQ(flat.empty(), calendar.empty());
      if (flat.empty()) break;
      ASSERT_EQ(flat.peek_min().at.fs(), heap.peek_min().at.fs());
      ASSERT_EQ(flat.peek_min().seq, heap.peek_min().seq);
      ASSERT_EQ(flat.min_at().fs(), calendar.peek_min().at.fs());
      const QueuedEvent a = flat.pop_min();
      const QueuedEvent b = heap.pop_min();
      const QueuedEvent c = calendar.pop_min();
      ASSERT_EQ(a.at.fs(), b.at.fs()) << "seed " << seed << " round " << round;
      ASSERT_EQ(a.seq, b.seq) << "seed " << seed << " round " << round;
      ASSERT_EQ(a.at.fs(), c.at.fs()) << "seed " << seed << " round " << round;
      ASSERT_EQ(a.seq, c.seq) << "seed " << seed << " round " << round;
      ASSERT_GE(a.at.fs(), watermark);
      watermark = a.at.fs();
      // Hold model: reschedule 0-3 events at or after the popped time, with
      // occasional far-future jumps (the calendar's fallback-scan path).
      const std::uint64_t pushes = rng.below(4);
      for (std::uint64_t p = 0; p < pushes; ++p) {
        const std::int64_t ahead =
            rng.below(20) == 0
                ? static_cast<std::int64_t>(rng.below(80'000'000))
                : static_cast<std::int64_t>(rng.below(900) * 50);
        push_all(watermark + ahead);
      }
    }
    // Drain to the end: the tails must agree too.
    while (!flat.empty()) {
      const QueuedEvent a = flat.pop_min();
      ASSERT_EQ(heap.pop_min().seq, a.seq);
      ASSERT_EQ(calendar.pop_min().seq, a.seq);
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(calendar.empty());
  }
}

TEST(EventQueues, ReserveMidstreamKeepsEquivalence) {
  // The reserve() path specifically: grow hints arriving while events are
  // pending (the calendar re-buckets, the heap reallocates) must preserve
  // the pop order against an un-hinted reference.
  BinaryHeapQueue reference;
  BinaryHeapQueue hinted_heap;
  CalendarQueue hinted_calendar;
  Xoshiro256 rng(77);
  std::uint64_t seq = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 200; ++i) {
      const QueuedEvent event =
          ev(static_cast<std::int64_t>(rng.below(1'000'000)), seq++);
      reference.push(event);
      hinted_heap.push(event);
      hinted_calendar.push(event);
    }
    // Escalating hints while half the events are still queued.
    hinted_heap.reserve(static_cast<std::size_t>(round + 1) * 256);
    hinted_calendar.reserve(static_cast<std::size_t>(round + 1) * 256);
    for (int i = 0; i < 100; ++i) {
      const QueuedEvent expected = reference.pop_min();
      ASSERT_EQ(hinted_heap.pop_min().seq, expected.seq);
      ASSERT_EQ(hinted_calendar.pop_min().seq, expected.seq);
    }
  }
  while (!reference.empty()) {
    const QueuedEvent expected = reference.pop_min();
    ASSERT_EQ(hinted_heap.pop_min().seq, expected.seq);
    ASSERT_EQ(hinted_calendar.pop_min().seq, expected.seq);
  }
  EXPECT_TRUE(hinted_heap.empty());
  EXPECT_TRUE(hinted_calendar.empty());
}

TEST(EventQueues, KernelSimulationIsQueueInvariant) {
  // The determinism contract across implementations: the same STR produces
  // the same femtosecond-exact edges on either queue.
  const auto run = [](sim::QueueKind kind) {
    sim::Kernel kernel(kind);
    ring::StrConfig config;
    config.stages = 24;
    config.charlie = ring::CharlieParams::symmetric(260_ps, 123_ps);
    std::vector<std::unique_ptr<noise::NoiseSource>> noise;
    for (std::size_t i = 0; i < 24; ++i) {
      noise.push_back(std::make_unique<noise::GaussianNoise>(
          2.0, derive_seed(7, "q", i)));
    }
    ring::Str str(kernel, config,
                  ring::make_initial_state(24, 12,
                                           ring::TokenPlacement::evenly_spread),
                  std::move(noise));
    str.start();
    kernel.run_until(Time::from_us(10.0));
    return str.output().rising_edges();
  };
  const auto heap_edges = run(sim::QueueKind::binary_heap);
  const auto calendar_edges = run(sim::QueueKind::calendar);
  ASSERT_EQ(heap_edges.size(), calendar_edges.size());
  ASSERT_GT(heap_edges.size(), 3000u);
  for (std::size_t i = 0; i < heap_edges.size(); ++i) {
    ASSERT_EQ(heap_edges[i].fs(), calendar_edges[i].fs()) << i;
  }
}

TEST(EventQueues, Factory) {
  EXPECT_NE(sim::make_event_queue(sim::QueueKind::binary_heap), nullptr);
  EXPECT_NE(sim::make_event_queue(sim::QueueKind::calendar), nullptr);
}
