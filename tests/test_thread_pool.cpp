/// \file test_thread_pool.cpp
/// \brief Tests for the thread pool and parallel_for: correctness of
/// results, full iteration coverage, exception propagation, and the
/// determinism contract (parallel results equal serial ones).

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace efd::util;

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto future = pool.submit([&] { counter.fetch_add(1); });
  future.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(pool, 10, 20,
               [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

TEST(ParallelFor, RethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::logic_error("bad iteration");
                   }),
      std::logic_error);
}

TEST(ParallelFor, ExceptionDoesNotHangPool) {
  ThreadPool pool(2);
  try {
    parallel_for(pool, 0, 50, [&](std::size_t) {
      throw std::runtime_error("every iteration fails");
    });
  } catch (const std::runtime_error&) {
  }
  // The pool must still be usable afterwards.
  auto future = pool.submit([] { return 1; });
  EXPECT_EQ(future.get(), 1);
}

TEST(ParallelFor, MatchesSerialReduction) {
  ThreadPool pool(4);
  std::vector<double> data(10000);
  std::iota(data.begin(), data.end(), 0.0);

  std::vector<double> parallel_out(data.size());
  parallel_for(pool, 0, data.size(),
               [&](std::size_t i) { parallel_out[i] = data[i] * data[i]; });

  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel_out[i], data[i] * data[i]);
  }
}

TEST(ParallelFor, MinChunkRespected) {
  // With min_chunk == total, everything runs as a single task; results
  // must still be complete.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 64, [&](std::size_t) { count.fetch_add(1); }, 64);
  EXPECT_EQ(count.load(), 64);
}

TEST(GlobalPool, IsUsable) {
  std::atomic<int> counter{0};
  parallel_for(0, 10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ForkJoin, RunsSliceZeroOnTheCallerAndEveryOtherOnItsOwnThread) {
  std::vector<std::thread::id> ran_on(5);
  fork_join(ran_on.size(),
            [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t i = 1; i < ran_on.size(); ++i) {
    EXPECT_NE(ran_on[i], std::thread::id()) << i;
    EXPECT_NE(ran_on[i], ran_on[0]) << i;
  }
  fork_join(0, [](std::size_t) { FAIL() << "no slice to run"; });
}

TEST(ForkJoin, JoinsEverySliceThenRethrowsTheFirstFailure) {
  // Slice 3 outlasts the failures: its result is in before the rethrow.
  std::vector<int> done(4, 0);
  try {
    fork_join(done.size(), [&](std::size_t i) {
      if (i == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done[i] = 1;
        return;
      }
      if (i != 0) throw std::runtime_error("slice " + std::to_string(i));
      done[i] = 1;
    });
    ADD_FAILURE() << "no rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "slice 1");
  }
  EXPECT_EQ(done, (std::vector<int>{1, 0, 0, 1}));
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ThreadPool, NestedSubmitFromTask) {
  // A task submitting to the same pool must not deadlock (the pool has
  // capacity to pick it up on another worker or after this task ends).
  ThreadPool pool(2);
  auto outer = pool.submit([&] {
    auto inner = pool.submit([] { return 5; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 6);
}

}  // namespace
