#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/work_stealing_deque.hpp"

namespace concord::sched {

/// Work-stealing fork-join pool executing dependency DAGs — the
/// validator's engine (paper §4 / Algorithm 2).
///
/// Algorithm 2 builds, for each transaction, a fork-join task that "first
/// joins with all tasks according to its in-edges on the happens-before
/// graph" before executing. The standard work-stealing realization of
/// join-on-predecessors is dependency counting: each task carries the
/// number of unfinished predecessors; completing a task decrements its
/// successors and forks (pushes) every task that reaches zero onto the
/// worker's own deque, where idle workers steal from the top. No locks,
/// no conflict detection, no rollback — "the fork-join structure ensures
/// that conflicting actions never execute concurrently."
///
/// Workers are persistent across run_dag calls (the paper's pools are
/// long-lived); the calling thread blocks until the DAG drains. A worker
/// that runs out of ready tasks mid-DAG spins a few rounds, then parks
/// until a task forks a successor or the DAG drains, so idle validator
/// threads do not burn the cores the miner needs.
class ForkJoinPool {
 public:
  explicit ForkJoinPool(unsigned threads);
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Executes tasks 0..n-1. `predecessors[i]` lists the tasks that must
  /// finish before task i starts; `successors[i]` the reverse edges (both
  /// views are required so neither needs recomputation here). `body(i)`
  /// runs exactly once per task and must not throw — record failures in
  /// the task's own result slot instead.
  void run_dag(std::size_t n, const std::vector<std::vector<std::uint32_t>>& predecessors,
               const std::vector<std::vector<std::uint32_t>>& successors,
               const std::function<void(std::uint32_t)>& body);

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Number of successful steals across all run_dag calls (diagnostic;
  /// exercised by the scheduler tests).
  [[nodiscard]] std::uint64_t steal_count() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    std::size_t n = 0;
    const std::vector<std::vector<std::uint32_t>>* successors = nullptr;
    const std::function<void(std::uint32_t)>* body = nullptr;
    std::vector<std::atomic<std::int32_t>> pending;  ///< Unfinished predecessor counts.
    std::atomic<std::size_t> remaining{0};           ///< Tasks not yet executed.
  };

  void worker_loop(unsigned self);
  /// Runs `task` and forks newly-ready successors onto deque `self`.
  void execute(Job& job, unsigned self, std::uint32_t task);
  /// Finds work for `self`: own deque first, then round-robin stealing.
  [[nodiscard]] std::optional<std::uint32_t> find_work(unsigned self);

  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;
  /// Ordering constraint: workers_ is joined explicitly in the destructor
  /// body (workers_.clear()) because the sync primitives below are
  /// declared after it — implicit member destruction would destroy them
  /// before the jthreads join, racing a worker's final notify/wait
  /// against pthread_cond_destroy.
  std::vector<std::jthread> workers_;

  std::mutex mu_;
  std::condition_variable epoch_cv_;   ///< Wakes workers for a new job.
  std::condition_variable done_cv_;    ///< Wakes the caller when drained.
  std::condition_variable parked_cv_;  ///< Signals all workers quiescent.
  std::uint64_t epoch_ = 0;
  std::size_t parked_ = 0;  ///< Workers currently blocked on epoch_cv_.
  bool stopping_ = false;
  Job* job_ = nullptr;

  std::atomic<std::uint64_t> steals_{0};

  /// Empty find_work() rounds a worker spins (yielding) before parking.
  static constexpr unsigned kSpinRounds = 64;
  /// Bumped and notified by execute() whenever it forks a ready successor
  /// and when a job's last task finishes; idle workers park on it.
  std::atomic<std::uint32_t> work_signal_{0};
};

}  // namespace concord::sched
