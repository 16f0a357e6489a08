#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace efd::util {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = hardware_threads();
  }
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  condition_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      condition_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_condition_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_condition_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_chunk) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // Aim for ~4 chunks per worker to balance load without excess overhead.
  const std::size_t target_chunks = std::max<std::size_t>(1, pool.size() * 4);
  const std::size_t chunk =
      std::max(min_chunk, (total + target_chunks - 1) / target_chunks);

  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::future<void>> futures;
  for (std::size_t chunk_begin = begin; chunk_begin < end; chunk_begin += chunk) {
    const std::size_t chunk_end = std::min(end, chunk_begin + chunk);
    futures.push_back(pool.submit([&, chunk_begin, chunk_end] {
      try {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }));
  }
  for (auto& future : futures) future.wait();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_chunk) {
  parallel_for(global_pool(), begin, end, body, min_chunk);
}

void fork_join(std::size_t count, const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(count);
  const auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(count == 0 ? 0 : count - 1);
  for (std::size_t i = 1; i < count; ++i) {
    try {
      threads.emplace_back(run, i);
    } catch (...) {
      run(i);
    }
  }
  if (count != 0) run(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::size_t hardware_threads() noexcept {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace efd::util
