// A small fixed-size thread pool plus a blocking parallel_for.
//
// The Monte-Carlo harness schedules independent trials; determinism is
// achieved at a higher level (per-trial seeding + index-ordered reduction),
// so the pool itself can hand out work dynamically for load balance.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace manywalks {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency.
  /// If a worker fails to start, the ones already running are stopped and
  /// joined before the error propagates.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution. Tasks should not throw; if
  /// one does, the worker survives and the first exception is captured and
  /// rethrown from the next wait_idle() instead of terminating the process.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle. Rethrows the
  /// first exception that escaped a submitted task since the last wait_idle()
  /// (later ones are dropped). An exception still pending at destruction is
  /// discarded — the destructor only drains and joins.
  void wait_idle();

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Tasks queued but not yet claimed by a worker. Mutex-guarded sample for
  /// the observability layer's queue-depth gauge — an instantaneous reading,
  /// already stale by the time the caller sees it.
  std::size_t queue_depth() const;

 private:
  void worker_loop();
  /// Lets the workers drain the queue, then joins them.
  void stop_and_join() noexcept;

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::uint64_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_task_error_;
};

/// Runs `body(i)` for every i in [begin, end) across the pool, blocking the
/// caller until all iterations finish. Work is pulled dynamically in chunks
/// of `grain` for load balance; exceptions from the body propagate to the
/// caller (the first one observed). Never submits more helper tasks than
/// there are grain-sized chunks beyond the caller's own share, so a short
/// range does not flood the queue with tasks that wake up to no work.
void parallel_for(ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
                  const std::function<void(std::uint64_t)>& body,
                  std::uint64_t grain = 1);

/// Deterministic static partition: runs `body(i)` for every i in
/// [0, count), cutting the range into at most pool.size()+1 contiguous
/// chunks, each executed in index order by one fixed executor (the caller
/// runs chunk 0). Unlike parallel_for there is no dynamic work stealing:
/// which indices share an executor is a pure function of (count,
/// pool.size()), which is what the sharded walk engine needs to pin one
/// long-lived worker per lane block. Exceptions from the body propagate to
/// the caller (the first one in chunk order).
void parallel_for_static(ThreadPool& pool, std::uint64_t count,
                         const std::function<void(std::uint64_t)>& body);

/// A sense-reversing spin barrier for a fixed set of participants.
///
/// The sharded walk engine synchronizes its worker team once per walk
/// round; a condition-variable rendezvous costs ~10µs per round, which
/// would swallow the speed-up on the ~µs rounds the strong-scaling gate
/// measures. Spinning participants re-check an acquire-loaded generation
/// counter (yielding periodically), so a round barrier costs well under a
/// microsecond when the team is running.
///
/// poison() aborts the protocol: every current and future arrive_and_wait()
/// returns false without waiting, so a worker that failed can release the
/// rest of the team instead of deadlocking it. A poisoned barrier stays
/// poisoned.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned participants);

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all participants arrive (or the barrier is poisoned).
  /// Returns true on a normal rendezvous, false once poisoned. Establishes
  /// acquire/release ordering: writes made by any participant before
  /// arriving are visible to every participant after the barrier.
  bool arrive_and_wait() noexcept;

  /// Releases all waiters, now and forever, with a false return.
  void poison() noexcept;

  unsigned participants() const noexcept { return participants_; }

 private:
  const unsigned participants_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<bool> poisoned_{false};
};

/// Number of worker threads to use by default (hardware concurrency,
/// clamped to at least 1).
unsigned default_thread_count() noexcept;

}  // namespace manywalks
