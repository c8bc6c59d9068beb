// Deterministic parallel execution for independent simulation tasks.
//
// Every paper experiment is a sweep over *independent* simulations (boards,
// stage counts, supply levels, restarts). This layer shards such a sweep
// across worker threads while keeping the determinism contract of the rest
// of the library intact:
//
//  * one task = one self-contained simulation: the task body builds its own
//    sim::Kernel / core::Oscillator and derives every RNG stream from
//    (master seed, label, task index) via derive_seed — tasks share nothing
//    mutable, so the schedule cannot leak into the results;
//  * results are collected by task index, never by completion order;
//  * each batch hands out its task indices from one monotone cursor, so
//    which thread runs a task is the only nondeterminism — and it is
//    unobservable.
//
// Consequence: every parallelized driver returns bit-identical results for
// any thread count, including 1 (asserted by tests/test_parallel.cpp).
//
// Nesting. A sweep started from inside a pool task (a campaign cell whose
// driver fans out over its stage counts) does not build a pool of its own:
// it submits its batch to the pool the task runs on. So one pool of `jobs`
// threads serves every level, and at most `jobs` task bodies run at once —
// the number of simulations in flight is the same whether cells run one
// after another or side by side. Tasks run in the metrics context of the
// thread that submitted their batch (sim/metrics.hpp), so each run's
// counters stay its own.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace ringent::sim {

/// Default worker count: the RINGENT_JOBS environment variable if set to a
/// positive integer (clamped to max_jobs()), otherwise
/// std::thread::hardware_concurrency() (min 1).
std::size_t default_jobs();

/// Hard ceiling on worker threads: 4× hardware_concurrency, floor 8 (so
/// low-core CI machines can still exercise moderate oversubscription).
/// resolve_jobs() clamps to this, so an absurd --jobs / RINGENT_JOBS value
/// cannot ask ThreadPool to spawn billions of threads.
std::size_t max_jobs();

/// Resolve a jobs knob: 0 means "use default_jobs()"; anything above
/// max_jobs() is clamped down to it.
std::size_t resolve_jobs(std::size_t jobs);

/// Parse the text of a --jobs / RINGENT_JOBS value. Returns true and stores
/// the parsed count (0 = "use the default") on success; returns false — and
/// leaves `out` untouched — on empty, non-numeric, negative, or overflowing
/// text ("99999999999999999999" is rejected, not wrapped).
bool parse_jobs_value(const char* text, std::size_t& out);

/// Scan argv for "--jobs N" or "--jobs=N" (the convention of the sweep
/// bench binaries). Returns 0 — i.e. "use the default" — when the flag is
/// absent or its value fails parse_jobs_value().
std::size_t parse_jobs_arg(int argc, char** argv);

/// A fixed-size pool of worker threads executing indexed task batches.
///
/// for_each_index(count, fn) runs fn(0) .. fn(count - 1), each exactly once,
/// and blocks until all complete. Each batch's indices are claimed in
/// increasing order from its own cursor. If tasks throw, the batch stops
/// handing out indices, lets the claimed ones finish, and rethrows the
/// exception of the *lowest* throwing index — the same exception a
/// sequential loop would have surfaced first — so error behaviour is
/// deterministic too.
///
/// The pool is thread-safe: any thread may submit, and a task may submit a
/// batch to the pool it runs on (the nested case). Open batches form a
/// stack; an idle worker takes the next index of the newest batch. A
/// submitting thread claims the first index of its own batch before any
/// worker can, drains its batch, and — while the batch's last tasks finish
/// on other threads — runs tasks of other open batches, newest first.
/// Threads with nothing to claim block; nothing spins. The pool owns
/// jobs − 1 workers, so with one outside caller at most `jobs` threads run
/// task bodies at once.
///
/// With jobs == 1 the batch runs inline on the calling thread and no worker
/// threads are ever spawned. A single-task batch on a wider pool runs on
/// the calling thread too, but as a pool task, so sweeps nested in it
/// still share the pool.
class ThreadPool {
 public:
  /// `jobs` = 0 resolves to default_jobs().
  explicit ThreadPool(std::size_t jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t jobs() const { return jobs_; }

  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

  /// The pool whose task the calling thread is running; null outside
  /// every pool task (and inside the inline tasks of a jobs-1 pool).
  static ThreadPool* current();

 private:
  struct Impl;
  std::size_t jobs_ = 1;
  std::unique_ptr<Impl> impl_;  ///< null when jobs_ == 1
};

/// Run fn(i) for i in [0, count) on `jobs` workers (0 = default). Called
/// from inside a pool task with jobs != 1, the batch goes to that task's
/// pool (ThreadPool::current()) and runs at the pool's width; otherwise a
/// pool of `jobs` workers is built for the call.
template <typename Fn>
void parallel_for_each(std::size_t count, std::size_t jobs, Fn&& fn) {
  const std::function<void(std::size_t)> task = [&fn](std::size_t i) {
    fn(i);
  };
  ThreadPool* enclosing = ThreadPool::current();
  if (enclosing != nullptr && resolve_jobs(jobs) > 1) {
    enclosing->for_each_index(count, task);
    return;
  }
  ThreadPool pool(jobs);
  pool.for_each_index(count, task);
}

/// Map i in [0, count) through fn on `jobs` workers; results are returned
/// in index order regardless of completion order.
template <typename Fn>
auto parallel_index_map(std::size_t count, std::size_t jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(count);
  parallel_for_each(count, jobs,
                    [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(count);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// Map each item of `items` through fn on `jobs` workers; the result vector
/// is index-aligned with `items`.
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, std::size_t jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, const T&>> {
  return parallel_index_map(items.size(), jobs,
                            [&](std::size_t i) { return fn(items[i]); });
}

}  // namespace ringent::sim
