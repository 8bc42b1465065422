#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "sched/fork_join.hpp"
#include "sched/thread_pool.hpp"
#include "sched/work_stealing_deque.hpp"

namespace concord::sched {
namespace {

// --------------------------------------------------------- ThreadPool --

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(3);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 12; ++i) {
    pool.submit([&] {
      const int now = running.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      running.fetch_sub(1);
    });
  }
  pool.wait_idle();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 100; ++i) pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (batch + 1) * 100);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

// ------------------------------------------------- WorkStealingDeque ---

TEST(Deque, LifoForOwner) {
  WorkStealingDeque dq;
  dq.push(1);
  dq.push(2);
  dq.push(3);
  EXPECT_EQ(dq.pop(), 3u);
  EXPECT_EQ(dq.pop(), 2u);
  EXPECT_EQ(dq.pop(), 1u);
  EXPECT_EQ(dq.pop(), std::nullopt);
}

TEST(Deque, FifoForThief) {
  WorkStealingDeque dq;
  dq.push(1);
  dq.push(2);
  dq.push(3);
  EXPECT_EQ(dq.steal(), 1u);
  EXPECT_EQ(dq.steal(), 2u);
  EXPECT_EQ(dq.pop(), 3u);
  EXPECT_EQ(dq.steal(), std::nullopt);
}

TEST(Deque, GrowthPreservesContents) {
  WorkStealingDeque dq(4);
  for (std::uint32_t i = 0; i < 1000; ++i) dq.push(i);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(dq.steal(), i);
}

TEST(Deque, OwnerAndThievesNoDuplicatesNoLosses) {
  constexpr std::uint32_t kItems = 100'000;
  constexpr int kThieves = 3;
  WorkStealingDeque dq;
  std::vector<std::atomic<int>> seen(kItems);

  std::atomic<bool> done{false};
  std::vector<std::jthread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = dq.steal()) seen[*v].fetch_add(1);
      }
      while (auto v = dq.steal()) seen[*v].fetch_add(1);
    });
  }

  for (std::uint32_t i = 0; i < kItems; ++i) {
    dq.push(i);
    if (i % 3 == 0) {
      if (auto v = dq.pop()) seen[*v].fetch_add(1);
    }
  }
  while (auto v = dq.pop()) seen[*v].fetch_add(1);
  done.store(true, std::memory_order_release);
  thieves.clear();  // Join; thieves drain the rest.

  for (std::uint32_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// --------------------------------------------------------- ForkJoin ----

std::vector<std::vector<std::uint32_t>> invert(
    const std::vector<std::vector<std::uint32_t>>& preds, std::size_t n) {
  std::vector<std::vector<std::uint32_t>> succs(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (const std::uint32_t u : preds[v]) succs[u].push_back(v);
  }
  return succs;
}

TEST(ForkJoin, ExecutesEveryTaskOnce) {
  ForkJoinPool pool(3);
  constexpr std::size_t n = 500;
  std::vector<std::vector<std::uint32_t>> preds(n);
  std::vector<std::atomic<int>> runs(n);
  pool.run_dag(n, preds, invert(preds, n), [&](std::uint32_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1);
}

TEST(ForkJoin, RespectsChainOrder) {
  ForkJoinPool pool(3);
  constexpr std::size_t n = 100;
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t i = 1; i < n; ++i) preds[i] = {i - 1};
  std::vector<std::uint32_t> order;
  std::mutex mu;
  pool.run_dag(n, preds, invert(preds, n), [&](std::uint32_t i) {
    std::scoped_lock lk(mu);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
}

TEST(ForkJoin, RespectsDiamondDependencies) {
  ForkJoinPool pool(4);
  // 0 → {1..8} → 9.
  constexpr std::size_t n = 10;
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t i = 1; i < 9; ++i) preds[i] = {0};
  for (std::uint32_t i = 1; i < 9; ++i) preds[9].push_back(i);
  std::atomic<int> started_mid{0};
  std::atomic<bool> root_done{false};
  std::atomic<bool> sink_saw_all{false};
  pool.run_dag(n, preds, invert(preds, n), [&](std::uint32_t i) {
    if (i == 0) {
      root_done.store(true);
    } else if (i == 9) {
      sink_saw_all.store(started_mid.load() == 8);
    } else {
      EXPECT_TRUE(root_done.load());
      started_mid.fetch_add(1);
    }
  });
  EXPECT_TRUE(sink_saw_all.load());
}

TEST(ForkJoin, ParallelismActuallyHappens) {
  ForkJoinPool pool(3);
  constexpr std::size_t n = 30;
  std::vector<std::vector<std::uint32_t>> preds(n);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  pool.run_dag(n, preds, invert(preds, n), [&](std::uint32_t) {
    const int now = running.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    running.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 2);
}

TEST(ForkJoin, ParkedWorkersWakeForForkedSuccessorsAndDrain) {
  // The root runs long enough for the idle workers to exhaust their spin
  // rounds and park. Its fan-out must wake them (two successors run at
  // once), and every run must return, which needs the drain to wake the
  // workers parked at the tail.
  ForkJoinPool pool(3);
  constexpr std::size_t n = 9;  // 0 → {1..8}.
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t i = 1; i < n; ++i) preds[i] = {0};
  const auto succs = invert(preds, n);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    pool.run_dag(n, preds, succs, [&](std::uint32_t i) {
      if (i == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return;
      }
      const int now = running.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 2) << "round " << round;
  }
}

TEST(ForkJoin, ReusableAcrossRuns) {
  ForkJoinPool pool(2);
  for (int round = 0; round < 20; ++round) {
    constexpr std::size_t n = 50;
    std::vector<std::vector<std::uint32_t>> preds(n);
    for (std::uint32_t i = 1; i < n; ++i) preds[i] = {static_cast<std::uint32_t>(i / 2)};
    std::atomic<int> count{0};
    pool.run_dag(n, preds, invert(preds, n), [&](std::uint32_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), static_cast<int>(n));
  }
}

TEST(ForkJoin, EmptyDagReturnsImmediately) {
  ForkJoinPool pool(2);
  pool.run_dag(0, {}, {}, [](std::uint32_t) { FAIL(); });
  SUCCEED();
}

TEST(ForkJoin, RootlessGraphThrows) {
  ForkJoinPool pool(2);
  std::vector<std::vector<std::uint32_t>> preds = {{1}, {0}};  // 2-cycle.
  EXPECT_THROW(pool.run_dag(2, preds, invert(preds, 2), [](std::uint32_t) {}),
               std::invalid_argument);
}

TEST(ForkJoin, ShutdownStress) {
  // Guards the destructor ordering fix: workers must be joined in the
  // destructor body before mu_/epoch_cv_/parked_cv_ are destroyed.
  // Construct, (sometimes) run a small DAG, and destroy in a tight loop so
  // the TSan lane catches any worker still touching a sync primitive while
  // the pool dies. Odd iterations destroy immediately after construction —
  // the tightest window, with workers still starting up.
  constexpr int kIterations = 120;
  constexpr std::size_t n = 8;
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t i = 1; i < n; ++i) preds[i] = {i - 1};
  const auto succs = invert(preds, n);
  for (int iter = 0; iter < kIterations; ++iter) {
    ForkJoinPool pool(4);
    if (iter % 2 == 0) {
      std::atomic<int> count{0};
      pool.run_dag(n, preds, succs, [&](std::uint32_t) { count.fetch_add(1); });
      EXPECT_EQ(count.load(), static_cast<int>(n));
    }
  }
}

TEST(ForkJoin, SingleWorkerStillCompletesDag) {
  ForkJoinPool pool(1);
  constexpr std::size_t n = 64;
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t i = 2; i < n; ++i) preds[i] = {i - 1, i - 2};
  preds[1] = {0};
  std::atomic<int> count{0};
  pool.run_dag(n, preds, invert(preds, n), [&](std::uint32_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(n));
}

}  // namespace
}  // namespace concord::sched
