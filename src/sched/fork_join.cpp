#include "sched/fork_join.hpp"

#include <cassert>
#include <stdexcept>

namespace concord::sched {

ForkJoinPool::ForkJoinPool(unsigned threads) {
  if (threads == 0) throw std::invalid_argument("ForkJoinPool needs at least one worker");
  deques_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) deques_.push_back(std::make_unique<WorkStealingDeque>());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  {
    std::scoped_lock lk(mu_);
    stopping_ = true;
    ++epoch_;
  }
  epoch_cv_.notify_all();
  // Join the workers here, in the destructor body, NOT via member
  // destruction: `workers_` is declared before `mu_` / `epoch_cv_` /
  // `parked_cv_`, so implicit member destruction would tear down those
  // sync primitives first and only then join — letting a still-exiting
  // worker call parked_cv_.notify_all() / epoch_cv_.wait() on destroyed
  // objects (TSan: pthread_cond_destroy races notify). Every worker must
  // be fully joined before any sync primitive dies.
  workers_.clear();
}

void ForkJoinPool::run_dag(std::size_t n,
                           const std::vector<std::vector<std::uint32_t>>& predecessors,
                           const std::vector<std::vector<std::uint32_t>>& successors,
                           const std::function<void(std::uint32_t)>& body) {
  assert(predecessors.size() == n && successors.size() == n);
  if (n == 0) return;

  Job job;
  job.n = n;
  job.successors = &successors;
  job.body = &body;
  job.pending = std::vector<std::atomic<std::int32_t>>(n);
  job.remaining.store(n, std::memory_order_relaxed);

  std::size_t roots = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto preds = static_cast<std::int32_t>(predecessors[i].size());
    job.pending[i].store(preds, std::memory_order_relaxed);
    if (preds == 0) ++roots;
  }
  if (roots == 0) {
    throw std::invalid_argument("run_dag: graph has no roots (cycle); validate first");
  }

  {
    std::unique_lock lk(mu_);
    // Wait until every worker is parked (startup, or the tail of the
    // previous run), so the single-owner deques are quiescent and the
    // caller may seed roots round-robin.
    parked_cv_.wait(lk, [this] { return parked_ == workers_.size(); });
    unsigned next = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (job.pending[i].load(std::memory_order_relaxed) == 0) {
        deques_[next % deques_.size()]->push(i);
        ++next;
      }
    }
    job_ = &job;
    ++epoch_;
  }
  epoch_cv_.notify_all();

  {
    std::unique_lock lk(mu_);
    // First wait for the DAG to drain, then for every worker to park —
    // `job` lives on this stack frame, so no worker may touch it (even a
    // final remaining-check) once we return.
    done_cv_.wait(lk, [&job] { return job.remaining.load(std::memory_order_acquire) == 0; });
    job_ = nullptr;
    parked_cv_.wait(lk, [this] { return parked_ == workers_.size(); });
  }
}

void ForkJoinPool::worker_loop(unsigned self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lk(mu_);
      ++parked_;
      parked_cv_.notify_all();
      epoch_cv_.wait(lk, [&] { return stopping_ || epoch_ != seen_epoch; });
      seen_epoch = epoch_;
      --parked_;
      if (stopping_) return;
      job = job_;
    }
    if (job == nullptr) continue;  // Raced with a drain; park again.

    // Spin briefly when the deques run dry (a successor is usually one
    // task away), then park on work_signal_ until execute() pushes a
    // ready successor or the DAG drains. The signal is read before both
    // the drain check and the search for work, and execute() bumps it
    // only after pushing a successor or draining `remaining`: a push that
    // find_work() missed, or a drain that the check missed, has changed
    // the signal, so wait() returns at once: no lost wakeup.
    unsigned idle_rounds = 0;
    for (;;) {
      const std::uint32_t signal = work_signal_.load(std::memory_order_acquire);
      if (job->remaining.load(std::memory_order_acquire) == 0) break;
      if (auto task = find_work(self)) {
        execute(*job, self, *task);
        idle_rounds = 0;
      } else if (++idle_rounds < kSpinRounds) {
        std::this_thread::yield();
      } else {
        work_signal_.wait(signal, std::memory_order_acquire);
        idle_rounds = 0;
      }
    }
    // remaining is modified outside mu_, so bridge the gap: acquiring and
    // releasing the mutex before notifying guarantees the caller is either
    // past its predicate check or fully asleep.
    { std::scoped_lock lk(mu_); }
    done_cv_.notify_all();
  }
}

void ForkJoinPool::execute(Job& job, unsigned self, std::uint32_t task) {
  (*job.body)(task);
  bool forked = false;
  for (const std::uint32_t succ : (*job.successors)[task]) {
    if (job.pending[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      deques_[self]->push(succ);
      forked = true;
    }
  }
  const bool drained = job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (forked || drained) {
    work_signal_.fetch_add(1, std::memory_order_acq_rel);
    work_signal_.notify_all();
  }
}

std::optional<std::uint32_t> ForkJoinPool::find_work(unsigned self) {
  if (auto task = deques_[self]->pop()) return task;
  const std::size_t n = deques_.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (auto task = deques_[(self + i) % n]->steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return std::nullopt;
}

}  // namespace concord::sched
