#pragma once
/// \file thread_pool.hpp
/// \brief A fixed-size work-queue thread pool plus a parallel_for helper,
/// and a fork-join over threads that live only as long as one call.
///
/// Used to parallelize the embarrassingly parallel parts of the pipeline:
/// dataset generation (one execution per task), random-forest training
/// (one tree per task), per-metric sweeps (Table 3), and cross-validation
/// folds. The pool is deliberately simple: a single mutex-protected deque
/// is more than fast enough for coarse-grained tasks that each run for
/// milliseconds or longer.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace efd::util {

/// Fixed-size thread pool. Tasks are std::function<void()>; exceptions
/// thrown by tasks propagate through the std::future returned by submit().
class ThreadPool {
 public:
  /// Creates \p thread_count workers (0 means hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t thread_count = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns a future for its result.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    condition_.notify_one();
    return future;
  }

  /// Blocks until the queue is empty and all in-flight tasks are done.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable condition_;
  std::condition_variable idle_condition_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

/// Returns the process-wide shared pool (sized to hardware concurrency).
ThreadPool& global_pool();

/// Runs body(i) for i in [begin, end) across the pool, blocking until all
/// iterations complete. Iterations are chunked to limit task overhead. The
/// first exception thrown by any iteration is rethrown on the caller.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_chunk = 1);

/// Like parallel_for but with an explicit pool.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_chunk = 1);

/// Runs body(i) for every i in [0, count): body(0) on the calling thread,
/// each other i on a thread started for it. Every thread is joined before
/// it returns, so none outlives the call and nothing but what body shares
/// is shared; a slice whose thread cannot be started runs on the caller.
/// The first exception in slice order is rethrown once all have finished.
void fork_join(std::size_t count, const std::function<void(std::size_t)>& body);

/// std::thread::hardware_concurrency(), or 1 when it is not known.
std::size_t hardware_threads() noexcept;

}  // namespace efd::util
