#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace {

namespace metrics = ringent::sim::metrics;
using Task = std::function<void(std::size_t)>;

/// Run one pool task, recording its wall-clock duration into the
/// pool_task_ns histogram when telemetry is on (two clock reads — paid only
/// when collecting; the off path is the task call alone).
void run_timed_task(std::size_t i, const Task& task) {
  namespace telemetry = ringent::sim::telemetry;
  if (!telemetry::enabled()) {
    task(i);
    return;
  }
  const double start = metrics::wall_seconds();
  task(i);
  const double elapsed = metrics::wall_seconds() - start;
  telemetry::record(telemetry::Histogram::pool_task_ns,
                    elapsed > 0.0 ? static_cast<std::uint64_t>(elapsed * 1e9)
                                  : 0);
}

/// One task with its pool_tasks count, trace span and telemetry timing.
void run_task(std::size_t i, const Task& task) {
  namespace trace = ringent::sim::trace;
  metrics::bump(metrics::Counter::pool_tasks);
  if (trace::enabled()) {
    trace::Span span("task " + std::to_string(i), "pool");
    run_timed_task(i, task);
  } else {
    run_timed_task(i, task);
  }
}

/// One submitted for_each_index call. Lives on the submitter's stack; every
/// field is guarded by the pool's mutex.
struct Batch {
  const Task* fn = nullptr;
  std::size_t count = 0;
  std::size_t next = 0;     ///< next unclaimed index
  std::size_t running = 0;  ///< claimed, not yet finished
  metrics::RunContext* context = nullptr;  ///< the submitter's run context

  // First (lowest-index) exception of the batch.
  std::size_t error_index = 0;
  std::exception_ptr error;

  bool exhausted() const { return next == count; }
  bool done() const { return exhausted() && running == 0; }
};

}  // namespace

namespace ringent::sim {

bool parse_jobs_value(const char* text, std::size_t& out) {
  if (text == nullptr || *text == '\0') return false;
  // strtoull silently wraps negative input ("-3" becomes 2^64 - 3); reject
  // the sign up front.
  if (*text == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  if (errno == ERANGE ||
      value > std::numeric_limits<std::size_t>::max()) {
    return false;
  }
  out = static_cast<std::size_t>(value);
  return true;
}

std::size_t max_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw == 0 ? 1 : hw;
  return std::max<std::size_t>(4 * cores, 8);
}

std::size_t default_jobs() {
  std::size_t env_jobs = 0;
  if (parse_jobs_value(std::getenv("RINGENT_JOBS"), env_jobs) &&
      env_jobs != 0) {
    return std::min(env_jobs, max_jobs());
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t resolve_jobs(std::size_t jobs) {
  return jobs == 0 ? default_jobs() : std::min(jobs, max_jobs());
}

std::size_t parse_jobs_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--jobs" && i + 1 < argc) {
      std::size_t jobs = 0;
      parse_jobs_value(argv[i + 1], jobs);
      return jobs;
    }
    constexpr std::string_view prefix = "--jobs=";
    if (arg.substr(0, prefix.size()) == prefix) {
      std::size_t jobs = 0;
      parse_jobs_value(argv[i] + prefix.size(), jobs);
      return jobs;
    }
  }
  return 0;
}

namespace {
thread_local ThreadPool* current_pool = nullptr;
}  // namespace

struct ThreadPool::Impl {
  ThreadPool* owner = nullptr;
  std::mutex mutex;
  /// Signalled when a batch is submitted (work to claim) and when a batch's
  /// last task finishes (its submitter may return).
  std::condition_variable changed;
  bool stop = false;
  /// Batches with unclaimed indices, oldest first.
  std::vector<Batch*> open;
  std::vector<std::thread> workers;

  /// Claim the next index of `batch`; a batch leaves `open` once its last
  /// index is claimed.
  std::size_t claim(Batch& batch) {
    const std::size_t i = batch.next++;
    ++batch.running;
    if (batch.exhausted()) std::erase(open, &batch);
    return i;
  }

  /// Run task `i` of `batch` with the lock released, in the batch's metrics
  /// context and with this pool as the thread's current pool.
  void run(Batch& batch, std::size_t i, std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    std::exception_ptr error;
    {
      const metrics::ContextScope context(batch.context);
      ThreadPool* const outer_pool = current_pool;
      current_pool = owner;
      try {
        run_task(i, *batch.fn);
      } catch (...) {
        error = std::current_exception();
      }
      current_pool = outer_pool;
    }
    lock.lock();
    if (error != nullptr) {
      if (batch.error == nullptr || i < batch.error_index) {
        batch.error = error;
        batch.error_index = i;
      }
      // Fail fast: unclaimed indices are skipped. Every index below `i`
      // was claimed before it, so it runs to completion and the lowest
      // throwing index is found deterministically.
      if (!batch.exhausted()) {
        batch.next = batch.count;
        std::erase(open, &batch);
      }
    }
    --batch.running;
    if (batch.done()) changed.notify_all();
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      changed.wait(lock, [&] { return stop || !open.empty(); });
      if (stop) return;
      Batch& batch = *open.back();
      run(batch, claim(batch), lock);
    }
  }
};

ThreadPool::ThreadPool(std::size_t jobs) : jobs_(resolve_jobs(jobs)) {
  if (jobs_ < 2) return;
  impl_ = std::make_unique<Impl>();
  impl_->owner = this;
  impl_->workers.reserve(jobs_ - 1);
  // The submitting thread takes part in its own batch, so jobs_ workers
  // means jobs_ - 1 spawned threads.
  for (std::size_t i = 0; i + 1 < jobs_; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->changed.notify_all();
  for (auto& worker : impl_->workers) worker.join();
}

ThreadPool* ThreadPool::current() { return current_pool; }

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (impl_ == nullptr) {
    // Inline path: a plain sequential loop (first exception propagates).
    for (std::size_t i = 0; i < count; ++i) run_task(i, fn);
    return;
  }

  Impl& impl = *impl_;
  Batch batch;
  batch.fn = &fn;
  batch.count = count;
  batch.context = metrics::installed_context();

  std::unique_lock<std::mutex> lock(impl.mutex);
  impl.open.push_back(&batch);
  if (count > 1) impl.changed.notify_all();
  // Own indices first (the first one before any worker can take it, so a
  // longest-first batch starts its longest task here), then other open
  // batches' tasks, newest first, until this batch's last task finishes.
  while (!batch.done()) {
    if (!batch.exhausted()) {
      impl.run(batch, impl.claim(batch), lock);
    } else if (!impl.open.empty()) {
      Batch& other = *impl.open.back();
      impl.run(other, impl.claim(other), lock);
    } else {
      impl.changed.wait(lock);
    }
  }
  if (batch.error != nullptr) {
    const std::exception_ptr error = batch.error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace ringent::sim
