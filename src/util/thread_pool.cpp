#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "util/check.hpp"

namespace manywalks {

unsigned default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = num_threads == 0 ? default_thread_count() : num_threads;
  try {
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A joinable std::thread destroyed unjoined calls std::terminate.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MW_REQUIRE(task != nullptr, "null task submitted to ThreadPool");
  {
    std::lock_guard lock(mutex_);
    MW_REQUIRE(!shutting_down_, "submit after ThreadPool shutdown");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_task_error_) {
    std::exception_ptr error = std::exchange(first_task_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !first_task_error_) first_task_error_ = error;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
                  const std::function<void(std::uint64_t)>& body,
                  std::uint64_t grain) {
  MW_REQUIRE(grain >= 1, "parallel_for grain must be >= 1");
  if (begin >= end) return;

  // Shared cursor: workers grab [next, next+grain) slices until exhausted.
  auto next = std::make_shared<std::atomic<std::uint64_t>>(begin);
  auto first_error = std::make_shared<std::atomic<bool>>(false);
  auto error = std::make_shared<std::exception_ptr>();
  auto error_mutex = std::make_shared<std::mutex>();

  auto drain = [next, end, grain, &body, first_error, error, error_mutex] {
    for (;;) {
      const std::uint64_t lo = next->fetch_add(grain);
      if (lo >= end) return;
      const std::uint64_t hi = std::min(end, lo + grain);
      for (std::uint64_t i = lo; i < hi; ++i) {
        if (first_error->load(std::memory_order_relaxed)) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard lock(*error_mutex);
          if (!first_error->exchange(true)) *error = std::current_exception();
          return;
        }
      }
    }
  };

  // The calling thread participates too, so a pool of size 1 still makes
  // progress even if all workers are busy with unrelated tasks. Helpers are
  // capped at chunks-1: with C grain-sized chunks there are at most C
  // executors worth of work, and the caller claims one share, so submitting
  // more tasks than that only queues wakeups that find the cursor drained.
  const std::uint64_t chunks = (end - begin + grain - 1) / grain;
  const unsigned helpers = static_cast<unsigned>(
      std::min<std::uint64_t>(pool.size(), chunks - 1));
  unsigned done = 0;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  for (unsigned t = 0; t < helpers; ++t) {
    pool.submit([&, drain] {
      drain();
      // Notify while still holding the lock: done_cv and done_mutex live on
      // the caller's stack, and the caller can only observe done == helpers
      // (and destroy them) after we release the mutex — notifying after the
      // unlock would race a straggler's notify_one against the destruction.
      std::lock_guard lock(done_mutex);
      ++done;
      done_cv.notify_one();
    });
  }
  drain();
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] { return done == helpers; });
  }
  if (first_error->load()) std::rethrow_exception(*error);
}

void parallel_for_static(ThreadPool& pool, std::uint64_t count,
                         const std::function<void(std::uint64_t)>& body) {
  if (count == 0) return;
  // P executors (caller + helpers); executor p owns the contiguous chunk
  // [p*count/P, (p+1)*count/P) — a pure function of (count, pool.size()).
  const auto executors =
      static_cast<std::uint64_t>(std::min<std::uint64_t>(pool.size() + 1, count));
  const auto chunk_begin = [count, executors](std::uint64_t p) {
    return p * count / executors;
  };

  std::vector<std::exception_ptr> errors(executors);
  const auto run_chunk = [&body, &errors, chunk_begin](std::uint64_t p,
                                                       std::uint64_t end) {
    try {
      for (std::uint64_t i = chunk_begin(p); i < end; ++i) body(i);
    } catch (...) {
      errors[p] = std::current_exception();
    }
  };

  unsigned done = 0;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  for (std::uint64_t p = 1; p < executors; ++p) {
    pool.submit([&run_chunk, &done, &done_mutex, &done_cv, chunk_begin, p] {
      run_chunk(p, chunk_begin(p + 1));
      // Notify under the lock: the caller's stack owns done/done_cv (see
      // parallel_for for the destruction race this avoids).
      std::lock_guard lock(done_mutex);
      ++done;
      done_cv.notify_one();
    });
  }
  run_chunk(0, chunk_begin(1));
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] { return done == executors - 1; });
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

SpinBarrier::SpinBarrier(unsigned participants) : participants_(participants) {
  MW_REQUIRE(participants >= 1, "SpinBarrier needs at least one participant");
}

bool SpinBarrier::arrive_and_wait() noexcept {
  if (poisoned_.load(std::memory_order_acquire)) return false;
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // Last arrival: reset the count for the next generation, then flip the
    // generation to release everyone spinning on it.
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    return !poisoned_.load(std::memory_order_acquire);
  }
  unsigned spins = 0;
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (poisoned_.load(std::memory_order_acquire)) return false;
    if (++spins >= 1024) {
      spins = 0;
      std::this_thread::yield();
    }
  }
  return !poisoned_.load(std::memory_order_acquire);
}

void SpinBarrier::poison() noexcept {
  poisoned_.store(true, std::memory_order_release);
}

}  // namespace manywalks
