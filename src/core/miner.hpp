#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "chain/block.hpp"
#include "chain/shard_merge.hpp"
#include "chain/transaction.hpp"
#include "core/execution_engine.hpp"
#include "detect/detect.hpp"
#include "sched/thread_pool.hpp"
#include "stm/runtime.hpp"
#include "vm/gas.hpp"
#include "vm/world.hpp"

namespace concord::core {

/// Miner tuning knobs.
struct MinerConfig {
  /// Speculative worker threads. The paper uses 3 ("a fixed pool of three
  /// threads, leaving one core available for garbage collection and other
  /// system processes").
  unsigned threads = 3;
  /// Wall-clock weight of gas (see vm::GasMeter); benches override this to
  /// scale per-transaction work.
  double nanos_per_gas = vm::GasMeter::kDefaultNanosPerGas;
  /// Safety valve: attempts per transaction before declaring livelock.
  /// Deadlock-victim aging makes hitting this a bug, not a workload
  /// property.
  std::size_t max_attempts = 1'000;
  /// Workload hint: expected distinct abstract-lock ids, pre-bucketing
  /// the lock table at construction (LockTable::reserve). 0 = no hint.
  /// The Zipfian large-state benches seed this from the account count.
  std::size_t lock_table_reserve = 0;
  /// Ablation: strictly-exclusive abstract locks (no READ/INCREMENT
  /// sharing). Blocks mined this way must be validated with the same
  /// setting. See bench_ablation_modes.
  bool exclusive_locks_only = false;
  /// ConcordSan: record per-transaction access logs during mining and run
  /// the lockset checker plus the schedule-soundness oracle on every
  /// mined block (see detect/detect.hpp). Off by default — the release
  /// hot path then pays one untaken null test per storage op. Building
  /// with -DCONCORD_DETECT=ON flips the default, giving a tree whose
  /// every test and bench runs instrumented.
#ifdef CONCORD_DETECT
  bool detect = true;
#else
  bool detect = false;
#endif

  /// The execution-side subset, shared verbatim with the Validator so
  /// both stages run on the same ExecutionEngine semantics.
  [[nodiscard]] ExecutionConfig engine() const noexcept {
    return ExecutionConfig{nanos_per_gas, exclusive_locks_only};
  }
};

/// Counters describing one mining run.
struct MinerStats {
  std::uint64_t transactions = 0;
  std::uint64_t attempts = 0;          ///< Total speculative attempts (≥ transactions).
  std::uint64_t conflict_aborts = 0;   ///< Attempts that rolled back and retried.
  std::uint64_t deadlock_victims = 0;  ///< Aborts initiated by the deadlock detector.
  std::size_t schedule_bytes = 0;      ///< Serialized size of the published schedule.
  /// Lock-table working set at end of this block's mining. The recycling
  /// LockTable::reset() retains nodes across blocks, so this is the
  /// cumulative retained set, not just the locks this block touched.
  std::size_t lock_table_size = 0;
  std::size_t lock_table_high_water = 0;  ///< Max table size over the miner's lifetime.
  std::size_t lock_table_bucket_count = 0;     ///< Hash buckets across stripes.
  std::size_t lock_table_memory_bytes = 0;     ///< LockTable::approx_memory_bytes now.
  std::size_t lock_table_memory_high_water = 0;  ///< Max of the above at boundaries.
  /// Arena counters of the mined world's lineage (all zero when the
  /// world runs the heap baseline). Snapshot at block assembly.
  vm::ArenaStats arena;
  /// Time computing the block's state root during assembly: O(pages the
  /// block dirtied) through the cached state trie, but a full pass after
  /// a directory doubling. Benches that study the execution/state layer
  /// subtract it.
  double state_root_ms = 0.0;
  /// ConcordSan violations found in this block (lockset + soundness);
  /// always 0 when MinerConfig::detect is off. Details live in
  /// Miner::last_detect_report().
  std::uint64_t detect_violations = 0;
};

/// The paper's miner. mine() implements Algorithm 1: execute the block's
/// transactions as speculative actions on a thread pool, record lock
/// profiles, derive the happens-before graph, topologically sort it into
/// the equivalent serial order, and publish everything in the block.
///
/// mine_serial() is the serial miner: it executes transactions one at a
/// time in block order (no locks, no speculation) and publishes the
/// trivially-correct sequential schedule — the paper's §4 aside about a
/// miner that publishes "a correct sequential schedule equivalent to, but
/// slower than its actual parallel schedule" made honest.
///
/// execute_serial_baseline() is the undecorated serial execution used as
/// the speedup baseline in §7 (no schedule capture at all).
class Miner {
 public:
  explicit Miner(vm::World& world, MinerConfig config = {});

  /// Speculative parallel mining (Algorithm 1). Mutates the world to the
  /// post-block state and returns the block extending `parent`.
  [[nodiscard]] chain::Block mine(const std::vector<chain::Transaction>& txs,
                                  const chain::Block& parent);

  /// Serial mining with schedule capture (one thread, no speculation).
  [[nodiscard]] chain::Block mine_serial(const std::vector<chain::Transaction>& txs,
                                         const chain::Block& parent);

  /// One shard's contribution to a merged block: the lane body in its
  /// schedule's serial order (so the lane order IS a topological order of
  /// the lane's own happens-before graph, the precondition
  /// chain::merge_shards states), plus the ConcordSan access logs when
  /// detect is on. The caller stamps `lane.shard`.
  struct LaneResult {
    chain::ShardLane lane;
    std::vector<stm::AccessRecorder> logs;  ///< Aligned with lane order; empty unless detect.
  };

  /// Speculative lane mining: Algorithm 1 without block assembly. Runs
  /// `txs` through the speculative pool on this miner's world (a fork of
  /// the block boundary for shard lanes ≥ 1), then re-sorts the outcome
  /// into the derived schedule's serial order. No state root, no header
  /// — per-lane root work is exactly what the merge layer avoids.
  [[nodiscard]] LaneResult mine_lane(const std::vector<chain::Transaction>& txs);

  /// Serial flavor of mine_lane() (lane order = input order).
  [[nodiscard]] LaneResult mine_lane_serial(const std::vector<chain::Transaction>& txs);

  /// Turns a shard-merge result into the one sealed block, on the miner
  /// that owns the PRIMARY world (lane 0's). Lane-0 winners already
  /// executed here; every other lane's winners are replayed serially in
  /// merged order, and each replay must reproduce the lane execution's
  /// status and lock footprint — arbitration guarantees it (any lower-
  /// lane winner that could change what a higher-lane winner observes
  /// conflicts with it, making it a loser), so divergence is an
  /// invariant violation (throws std::logic_error). `lane0_logs` are the
  /// primary lane's ConcordSan logs (moved into the merged log vector);
  /// replayed lanes are re-logged during replay. The assembled schedule
  /// carries the merged lane_counts as BlockSchedule::shard_lanes.
  [[nodiscard]] chain::Block seal_merged(chain::ShardMergeResult merged,
                                         std::vector<stm::AccessRecorder> lane0_logs,
                                         const chain::Block& parent);

  /// Plain serial execution; returns per-tx statuses. The §7 baseline.
  std::vector<vm::TxStatus> execute_serial_baseline(
      const std::vector<chain::Transaction>& txs);

  /// Resumable-from-snapshot entry point: re-points the miner at `world`
  /// (freshly materialized from the last accepted boundary snapshot
  /// after a rejected block invalidated the speculative suffix) and
  /// clears the boosting runtime — the retained lock working set and
  /// deadlock state describe executions that no longer exist. Must not
  /// be called while mining. The miner's stats (high-water marks
  /// included) survive the resume.
  void resume_from(vm::World& world);

  /// Binds this miner's executing threads (the speculative pool workers
  /// and whatever thread drives the serial/lane path) to a slice of the
  /// world arena's stripes: thread t → stripe (base + t mod width), mod
  /// PageArena::kStripeCount. The node keys this by shard id so
  /// concurrent lane miners recycle pages within their own stripe slice
  /// instead of meeting on shared free lists (surfaced as
  /// ArenaStats::steal_attempts/steal_hits). width 0 — the default —
  /// keeps the process-wide round-robin. Call before mining, not during.
  void set_arena_affinity(unsigned base, unsigned width) noexcept {
    affinity_base_ = base;
    affinity_width_ = width;
  }

  [[nodiscard]] const MinerStats& last_stats() const noexcept { return stats_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }

  /// ConcordSan findings for the last mined block. Empty (clean) when
  /// MinerConfig::detect is off or no block has been mined yet.
  [[nodiscard]] const detect::DetectReport& last_detect_report() const noexcept {
    return detect_report_;
  }

 private:
  /// Shared body of mine()/mine_lane(): speculative pool execution over
  /// `txs`, filling profiles/statuses/logs (logs sized only when detect
  /// is on) and the execution-side stats counters.
  void run_speculative(const std::vector<chain::Transaction>& txs,
                       std::vector<stm::LockProfile>& profiles,
                       std::vector<vm::TxStatus>& statuses,
                       std::vector<stm::AccessRecorder>& logs);

  /// Shared body of mine_serial()/mine_lane_serial(): traced in-order
  /// execution with synthetic use counters.
  void run_serial(const std::vector<chain::Transaction>& txs,
                  std::vector<stm::LockProfile>& profiles,
                  std::vector<vm::TxStatus>& statuses,
                  std::vector<stm::AccessRecorder>& logs);

  /// Builds the block: derives the happens-before graph from `profiles`,
  /// topologically sorts it, snapshots the state root. `shard_lanes` is
  /// the merged-block lane structure (empty for single-miner blocks).
  [[nodiscard]] chain::Block assemble(const std::vector<chain::Transaction>& txs,
                                      std::vector<vm::TxStatus> statuses,
                                      std::vector<stm::LockProfile> profiles,
                                      const chain::Block& parent,
                                      std::vector<std::uint32_t> shard_lanes = {});

  /// Runs ConcordSan over a just-assembled block when detect is on:
  /// populates detect_report_ and stats_.detect_violations.
  void run_detect(const chain::Block& block, std::span<const stm::AccessRecorder> logs);

  /// Applies the arena-affinity plan to the calling thread (no-op when
  /// width is 0 or the thread is already bound for this miner). Cheap
  /// enough to call at every task start: one thread_local compare.
  void bind_arena_stripe();

  MinerConfig config_;
  ExecutionEngine engine_;
  stm::BoostingRuntime runtime_;
  sched::ThreadPool pool_;
  MinerStats stats_;
  detect::DetectReport detect_report_;

  // Arena-affinity plan (see set_arena_affinity): threads binding for
  // this miner take stripes base, base+1, … base+width-1 round-robin.
  unsigned affinity_base_ = 0;
  unsigned affinity_width_ = 0;  ///< 0 = no affinity (global round-robin).
  std::atomic<unsigned> affinity_cursor_{0};

  // Worker-error capture (pool tasks must not throw).
  std::mutex error_mu_;
  std::string worker_error_;
};

}  // namespace concord::core
