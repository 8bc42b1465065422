#include "node/node.hpp"

#include <algorithm>
#include <variant>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "net/peer.hpp"

namespace concord::node {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::unique_ptr<vm::World> require_world(std::unique_ptr<vm::World> world) {
  if (world == nullptr) throw std::invalid_argument("node: world must not be null");
  return world;
}

/// Validated before any member is built: an invalid config must fail
/// fast, not after two world forks and two stage thread pools.
NodeConfig require_config(NodeConfig config) {
  if (config.miner.exclusive_locks_only != config.validator.exclusive_locks_only) {
    throw std::invalid_argument("node: miner/validator disagree on exclusive_locks_only");
  }
  if (config.pipeline_depth == 0) {
    throw std::invalid_argument("node: pipeline_depth must be >= 1");
  }
  if (config.mine_shards == 0) {
    throw std::invalid_argument("node: mine_shards must be >= 1");
  }
  return config;
}

}  // namespace

// Both stages are COW forks of one snapshot, so their genesis roots
// agree by construction — the old dual-world drift guard has nothing
// left to check.
Node::Node(std::unique_ptr<vm::World> world, NodeConfig config)
    : config_(require_config(std::move(config))),
      miner_world_(require_world(std::move(world))),
      genesis_(*miner_world_),
      validator_world_(genesis_.materialize()),
      mempool_(config_.batch, config_.mempool_capacity, config_.mine_shards),
      miner_(*miner_world_, config_.miner),
      validator_(*validator_world_, config_.validator),
      chain_(genesis_.state_root()),
      snapshots_(std::max<std::size_t>(config_.retain_snapshots, 1)) {
  // Lane miners for shards 1..N-1; lane 0 is the primary miner_. Each is
  // born on a throwaway genesis fork and re-pointed at a fresh fork of
  // the block boundary every block it mines.
  for (std::uint32_t s = 1; s < config_.mine_shards; ++s) {
    shard_worlds_.push_back(genesis_.materialize());
    shard_miners_.push_back(std::make_unique<core::Miner>(*shard_worlds_.back(), config_.miner));
  }

  // Per-shard arena affinity: concurrent lane miners each recycle pages
  // within their own slice of the arena's stripes instead of meeting on
  // shared free lists. Single-miner nodes keep the default round-robin —
  // the pre-shard path stays byte-for-byte untouched.
  if (config_.mine_shards > 1) {
    const unsigned width =
        std::max(1u, vm::PageArena::kStripeCount / config_.mine_shards);
    miner_.set_arena_affinity(0, width);
    for (std::uint32_t s = 1; s < config_.mine_shards; ++s) {
      shard_miners_[s - 1]->set_arena_affinity((s * width) % vm::PageArena::kStripeCount,
                                               width);
    }
  }

  // The read path serves genesis ("as of block 0") from the moment the
  // node exists; its root is already computed (the chain header above).
  if (read_path_enabled()) snapshots_.publish(0, genesis_);
}

void Node::run() {
  if (ran_) throw std::logic_error("Node::run() may only be called once");
  if (following_) throw std::logic_error("Node::run(): this node is a follower");
  ran_ = true;
  const auto start = Clock::now();
  try {
    if (config_.pipelined) {
      run_pipelined();
    } else {
      run_sequential();
    }
  } catch (...) {
    // Failure diagnostics still carry timing: a run that died after two
    // hours should not report wall_ms == 0.
    stats_.wall_ms = ms_since(start);
    fold_read_stats();
    // Producers must never hang on a node that has stopped consuming —
    // not even when a stage failed hard (e.g. the miner's livelock guard).
    mempool_.close();
    throw;
  }
  mempool_.close();
  stats_.wall_ms = ms_since(start);
  fold_read_stats();
}

void Node::fold_read_stats() {
  stats_.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats_.query_gas_used = query_gas_used_.load(std::memory_order_relaxed);
  stats_.pins_expired = pins_expired_.load(std::memory_order_relaxed);
  // Writer-thread fields, safe here: both stages have joined by now.
  stats_.snapshots_retained_high_water = snapshots_.retained_high_water();
}

void Node::run_sequential() {
  chain::Block parent = chain_.tip();
  // The pre-state boundary of the block about to be mined — genesis for
  // the first block, then refreshed after each accepted block. With
  // halt_on_rejection there is nothing to unwind to, so no snapshots.
  vm::WorldSnapshot boundary = recovery_enabled() ? genesis_ : vm::WorldSnapshot{};
  double mine_ms = 0.0;
  double validate_ms = 0.0;
  double mempool_wait = 0.0;
  double snapshot_ms = 0.0;
  std::uint64_t mined = 0;

  const bool sharded = config_.mine_shards > 1;
  while (config_.max_blocks == 0 || mined < config_.max_blocks) {
    const auto t_wait = Clock::now();
    std::optional<std::vector<chain::Transaction>> batch;
    std::optional<Mempool::Window> window;
    if (sharded) {
      window = mempool_.next_window();
    } else {
      batch = mempool_.next_batch();
    }
    mempool_wait += ms_since(t_wait);
    if (sharded ? !window.has_value() : !batch.has_value()) break;

    const auto t_mine = Clock::now();
    chain::Block block = sharded ? mine_window(*window, parent) : mine_batch(*batch, parent);
    mine_ms += ms_since(t_mine);
    ++mined;
    const std::size_t block_txs = block.transactions.size();
    parent = block;

    if (validate_and_append(std::move(block), validate_ms)) {
      if (recovery_enabled()) {
        // An O(contracts) COW fork; the accepted block's verified root
        // seeds the snapshot so no hash runs either.
        const auto t_snapshot = Clock::now();
        boundary = vm::WorldSnapshot(*miner_world_, parent.header.state_root);
        snapshot_ms += ms_since(t_snapshot);
      }
      continue;
    }
    if (!recovery_enabled()) break;

    // Re-org, sequential flavor: no speculative suffix exists, only the
    // rejected block itself unwinds. Both stages re-materialize from the
    // boundary the block was mined on (the last accepted state) and the
    // stream continues; the rejected batch is dropped.
    const auto t_recover = Clock::now();
    stats_.dropped_transactions += block_txs;
    validator_world_ = boundary.materialize();
    validator_.resume_from(*validator_world_);
    miner_world_ = boundary.materialize();
    miner_.resume_from(*miner_world_);
    parent = chain_.tip();
    // See the pipelined flavor: published boundaries are all accepted,
    // so this is invariant enforcement, not cleanup.
    if (read_path_enabled()) snapshots_.rewind_to(parent.header.number);
    ++stats_.recoveries;
    stats_.recovery_ms += ms_since(t_recover);
  }

  mining_done_.store(true, std::memory_order_release);
  stats_.mine_ms = mine_ms;
  stats_.validate_ms = validate_ms;
  stats_.mempool_wait_ms = mempool_wait;
  stats_.snapshot_ms = snapshot_ms;
}

void Node::run_pipelined() {
  // The depth-k ring between the stages. While the validator replays the
  // oldest in-flight block, the miner keeps mining up to pipeline_depth
  // blocks ahead against its own unvalidated output.
  HandoffRing ring(config_.pipeline_depth);
  std::atomic<bool> validation_stopped{false};
  std::exception_ptr validator_error;

  // Validator-stage locals, merged into stats_ after the join (the miner
  // thread owns other NodeStats fields while both are live).
  double validate_ms = 0.0;
  double validator_stall = 0.0;
  double v_recovery_ms = 0.0;
  std::uint64_t v_recoveries = 0;
  std::uint64_t v_aborted_blocks = 0;
  std::uint64_t v_dropped_txs = 0;

  std::jthread validator_thread([&] {
    try {
      while (true) {
        const auto t_wait = Clock::now();
        std::optional<InFlightBlock> entry = ring.pop();
        validator_stall += ms_since(t_wait);
        if (!entry) break;  // Mining finished and the ring drained.
        if (config_.pre_validate_hook) config_.pre_validate_hook(entry->block);
        const std::size_t block_txs = entry->block.transactions.size();
        if (validate_and_append(std::move(entry->block), validate_ms)) continue;

        // Rejected. Without a pre-state boundary (halt mode) it is fatal.
        if (!recovery_enabled() || !entry->pre_state.valid()) break;

        // Stamp the re-org coordinates onto the recorded report: the
        // post-root the in-flight block claimed and the boundary the
        // node recovered to (the rejected block itself was consumed by
        // the validator above, so the denormalized ring copy is what
        // still knows the claim).
        if (failure_.has_value() && stats_.rejected_blocks == 1) {
          failure_->detail += " [in-flight block claimed post-root " +
                              entry->expected_post_root.to_hex().substr(0, 16) +
                              "…, re-orged to boundary " +
                              entry->pre_state.state_root().to_hex().substr(0, 16) + "…]";
        }

        // Re-org: every queued entry was mined on top of the rejected
        // block — drain them, publish the recovery point, and rebuild
        // this stage's replica from the last accepted boundary. The
        // miner re-materializes its own world concurrently once it
        // observes the abort (cloning the shared frozen snapshot only
        // reads it). Reading chain_.tip() here is safe: nothing appends
        // until the handshake completes and a post-recovery block
        // validates.
        const auto t_recover = Clock::now();
        v_dropped_txs += block_txs;
        const HandoffRing::DrainResult drained =
            ring.abort_and_drain(RecoveryPoint{entry->pre_state, chain_.tip()});
        v_aborted_blocks += drained.blocks;
        v_dropped_txs += drained.transactions;
        validator_world_ = entry->pre_state.materialize();
        validator_.resume_from(*validator_world_);
        // Invariant enforcement more than necessity: only ACCEPTED
        // boundaries are ever published, so the ring's head cannot
        // exceed the surviving tip — but a rewind here keeps the read
        // path honest by construction even if that ever changes.
        if (read_path_enabled()) snapshots_.rewind_to(chain_.tip().header.number);
        ++v_recoveries;  // One re-org completed (the miner's half is lazy).
        v_recovery_ms += ms_since(t_recover);
      }
    } catch (...) {
      validator_error = std::current_exception();
    }
    // Covers halt-rejection, drain and error alike: release a miner
    // blocked on the ring or inside next_batch, and producers blocked on
    // mempool capacity.
    validation_stopped.store(true, std::memory_order_relaxed);
    ring.close();
    mempool_.close();
  });

  chain::Block parent = chain_.tip();
  vm::WorldSnapshot boundary = recovery_enabled() ? genesis_ : vm::WorldSnapshot{};
  double mine_ms = 0.0;
  double mempool_wait = 0.0;
  double handoff_wait = 0.0;
  double snapshot_ms = 0.0;
  double m_recovery_ms = 0.0;
  std::uint64_t mined = 0;
  std::uint64_t m_aborted_blocks = 0;
  std::uint64_t m_dropped_txs = 0;
  std::exception_ptr miner_error;

  // The producer half of the abort handshake: collect the recovery
  // point, rebuild the mining world from the last accepted boundary and
  // resume on top of the last accepted block. The boundary snapshot is
  // shared with the recovery point — the resumed world *is* that state,
  // so no fresh snapshot is needed until the next block is accepted.
  const auto recover = [&] {
    const auto t_recover = Clock::now();
    RecoveryPoint point = ring.acknowledge_abort();
    miner_world_ = point.world.materialize();
    miner_.resume_from(*miner_world_);
    parent = std::move(point.parent);
    boundary = std::move(point.world);
    m_recovery_ms += ms_since(t_recover);
  };

  const bool sharded = config_.mine_shards > 1;
  try {
    while (!validation_stopped.load(std::memory_order_relaxed) &&
           (config_.max_blocks == 0 || mined < config_.max_blocks)) {
      const auto t_wait = Clock::now();
      std::optional<std::vector<chain::Transaction>> batch;
      std::optional<Mempool::Window> window;
      if (sharded) {
        window = mempool_.next_window();
      } else {
        batch = mempool_.next_batch();
      }
      mempool_wait += ms_since(t_wait);
      if (sharded ? !window.has_value() : !batch.has_value()) break;

      // A rejection may have landed while this stage waited for traffic;
      // recover before mining the fresh batch on a doomed parent.
      if (ring.abort_requested()) recover();

      const auto t_mine = Clock::now();
      chain::Block block = sharded ? mine_window(*window, parent) : mine_batch(*batch, parent);
      mine_ms += ms_since(t_mine);
      ++mined;
      const std::size_t block_txs = block.transactions.size();
      parent = block;

      const auto t_handoff = Clock::now();
      const HandoffRing::PushOutcome outcome =
          ring.push(InFlightBlock{std::move(block), boundary, parent.header.state_root});
      handoff_wait += ms_since(t_handoff);
      if (outcome == HandoffRing::PushOutcome::kAborted) {
        // The block extends a rejected chain: part of the doomed suffix.
        ++m_aborted_blocks;
        m_dropped_txs += block_txs;
        recover();
        continue;
      }
      if (outcome == HandoffRing::PushOutcome::kClosed) break;

      if (recovery_enabled()) {
        // Freeze the post-block state: the pre-state boundary of the
        // next block. An O(contracts) COW fork — the miner detaches the
        // pages it dirties as it keeps mining. The root stays lazy and
        // is NOT seeded from the mined block's claimed root: that claim
        // is unvalidated here (a corrupt one would poison the cache for
        // any future consumer, e.g. mid-block read serving), and in
        // steady state nobody reads a boundary root anyway — only
        // exceptional paths do, and they hash the frozen world honestly
        // on first demand.
        const auto t_snapshot = Clock::now();
        boundary = vm::WorldSnapshot(*miner_world_);
        snapshot_ms += ms_since(t_snapshot);
      }
    }
  } catch (...) {
    // A mining-stage failure (e.g. the livelock guard) must still wind
    // the validator down — never leave it waiting on a ring fill that
    // will not come.
    miner_error = std::current_exception();
  }

  mining_done_.store(true, std::memory_order_release);
  ring.close();
  validator_thread.join();
  if (miner_error) std::rethrow_exception(miner_error);
  if (validator_error) std::rethrow_exception(validator_error);

  stats_.mine_ms = mine_ms;
  stats_.validate_ms = validate_ms;
  stats_.mempool_wait_ms = mempool_wait;
  stats_.handoff_wait_ms = handoff_wait;
  stats_.validator_stall_ms = validator_stall;
  stats_.snapshot_ms = snapshot_ms;
  stats_.aborted_blocks = v_aborted_blocks + m_aborted_blocks;
  stats_.dropped_transactions = v_dropped_txs + m_dropped_txs;
  stats_.recoveries = v_recoveries;
  stats_.recovery_ms = v_recovery_ms + m_recovery_ms;
  stats_.ring_high_water = ring.stats().high_water;
}

void Node::run_follower(net::Peer& peer) {
  if (ran_) throw std::logic_error("Node::run_follower(): this node already ran as a leader");
  if (in_session_) throw std::logic_error("Node::run_follower(): a session is already active");
  following_ = true;
  in_session_ = true;
  const auto start = Clock::now();
  // The recovery anchor survives across sessions: a reconnecting
  // follower resumes from its last accepted boundary, not from genesis.
  if (!follower_boundary_.has_value()) follower_boundary_ = genesis_;

  double validate_ms = 0.0;
  std::uint64_t leader_head = chain_.height();

  const auto send_nack = [&](std::uint64_t number, net::NackReason reason, std::string detail) {
    if (peer.send(net::Message{net::Nack{number, reason, std::move(detail)}})) {
      ++stats_.net_nacks_sent;
    }
  };
  // Catch-up pull: whenever the leader is known to be ahead of us, ask
  // for exactly the next block we need. Drives both reconnect catch-up
  // and post-Nack retransmission.
  const auto request_next = [&] {
    if (leader_head <= chain_.height()) return;
    if (config_.max_blocks != 0 && stats_.blocks >= config_.max_blocks) return;
    if (peer.send(net::Message{net::BlockRequest{chain_.height() + 1}})) {
      ++stats_.net_requests_sent;
    }
  };

  ++stats_.net_sessions;
  (void)peer.send(
      net::Message{net::Hello{net::kProtocolVersion, genesis_.state_root(), chain_.height()}});

  while (config_.max_blocks == 0 || stats_.blocks < config_.max_blocks) {
    std::optional<net::Message> message = peer.recv();
    if (!message.has_value()) break;  // Session over (clean close or wire failure).

    if (const auto* hello = std::get_if<net::Hello>(&*message)) {
      if (hello->protocol != net::kProtocolVersion ||
          hello->genesis_root != genesis_.state_root()) {
        send_nack(0, net::NackReason::kWrongChain,
                  hello->protocol != net::kProtocolVersion ? "protocol version mismatch"
                                                           : "genesis root mismatch");
        peer.close();
        break;
      }
      leader_head = std::max(leader_head, hello->head);
      request_next();
      continue;
    }

    if (auto* announce = std::get_if<net::BlockAnnounce>(&*message)) {
      ++stats_.net_announces;
      const std::uint64_t number = announce->block.header.number;
      leader_head = std::max(leader_head, number);
      const std::uint64_t expected = chain_.height() + 1;

      if (number < expected) {
        // A retransmission of a block we already hold: re-Ack with OUR
        // root at that height so the leader can detect divergence.
        if (peer.send(net::Message{
                net::Ack{number, chain_.at(number).header.state_root}})) {
          ++stats_.net_acks_sent;
        }
        continue;
      }
      if (number > expected) {
        // A gap: blocks only append in order, so name the one we need.
        send_nack(number, net::NackReason::kOutOfOrder,
                  "expected block " + std::to_string(expected));
        request_next();
        continue;
      }
      if (announce->block.header.parent_hash != chain_.tip().hash()) {
        // Right height, wrong parent: the leader is extending a chain we
        // do not have. No state was touched — Nack without recovery.
        send_nack(number, net::NackReason::kValidationFailed, "parent hash mismatch");
        request_next();
        continue;
      }

      // The real trust boundary: validate the announced block against
      // its published schedule exactly as the local pipeline would.
      bool accepted = false;
      std::string reject_detail;
      try {
        accepted = validate_and_append(std::move(announce->block), validate_ms);
        if (!accepted && last_rejection_.has_value()) {
          reject_detail = std::string(core::to_string(last_rejection_->reason)) + ": " +
                          last_rejection_->detail;
        }
      } catch (const chain::ChainError& e) {
        // Structural append failure after replay: treat as a rejection
        // (the replica is dirty — the recovery below re-materializes it).
        accepted = false;
        reject_detail = std::string("structural: ") + e.what();
      }

      if (accepted) {
        const chain::Block& tip = chain_.tip();
        // Refresh the recovery anchor to the new accepted boundary (the
        // verified root seeds the snapshot, as on the mining path).
        const auto t_snapshot = Clock::now();
        follower_boundary_ = vm::WorldSnapshot(*validator_world_, tip.header.state_root);
        stats_.snapshot_ms += ms_since(t_snapshot);
        if (peer.send(net::Message{net::Ack{number, tip.header.state_root}})) {
          ++stats_.net_acks_sent;
        }
        request_next();
        continue;
      }

      // Rejected: this is PR 4 recovery serving as fork-choice. Unwind
      // the replica to the last accepted boundary, tell the leader why,
      // and ask for an honest retransmission of the same height.
      const auto t_recover = Clock::now();
      validator_world_ = follower_boundary_->materialize();
      validator_.resume_from(*validator_world_);
      if (read_path_enabled()) snapshots_.rewind_to(chain_.tip().header.number);
      ++stats_.recoveries;
      stats_.recovery_ms += ms_since(t_recover);
      send_nack(number, net::NackReason::kValidationFailed, std::move(reject_detail));
      request_next();
      continue;
    }

    // Ack / Nack / BlockRequest addressed to a follower: not part of the
    // follower's protocol surface; ignored.
  }

  if (peer.failed()) ++stats_.net_wire_errors;
  stats_.validate_ms += validate_ms;
  stats_.wall_ms += ms_since(start);
  fold_read_stats();
  in_session_ = false;
}

void Node::fold_lane_stats(const core::MinerStats& mined) {
  stats_.attempts += mined.attempts;
  stats_.conflict_aborts += mined.conflict_aborts;
  stats_.deadlock_victims += mined.deadlock_victims;
  stats_.lock_table_high_water =
      std::max(stats_.lock_table_high_water, mined.lock_table_high_water);
  stats_.lock_table_memory_high_water =
      std::max(stats_.lock_table_memory_high_water, mined.lock_table_memory_high_water);
}

chain::Block Node::mine_batch(const std::vector<chain::Transaction>& batch,
                              const chain::Block& parent) {
  chain::Block block = config_.mining == MiningMode::kSerial ? miner_.mine_serial(batch, parent)
                                                             : miner_.mine(batch, parent);
  const core::MinerStats& mined = miner_.last_stats();
  fold_lane_stats(mined);
  stats_.schedule_bytes += mined.schedule_bytes;
  stats_.arena = mined.arena;
  stats_.detect_violations += mined.detect_violations;
  if (mined.detect_violations > 0 && !first_detect_report_.has_value()) {
    first_detect_report_ = miner_.last_detect_report();
  }
  if (config_.post_mine_hook) config_.post_mine_hook(block);
  return block;
}

chain::Block Node::mine_window(const Mempool::Window& window, const chain::Block& parent) {
  const std::uint32_t shards = config_.mine_shards;

  // Fork each busy lane's world off the primary BEFORE lane 0 mutates
  // it: every lane executes against the same block boundary.
  for (std::uint32_t s = 1; s < shards; ++s) {
    if (window.lanes[s].empty()) continue;
    shard_worlds_[s - 1] = miner_world_->fork();
    shard_miners_[s - 1]->resume_from(*shard_worlds_[s - 1]);
  }

  std::vector<core::Miner::LaneResult> lanes(shards);
  std::vector<std::exception_ptr> lane_errors(shards);
  {
    std::vector<std::jthread> workers;
    workers.reserve(shards - 1);
    for (std::uint32_t s = 1; s < shards; ++s) {
      if (window.lanes[s].empty()) continue;  // Nothing routed here this block.
      workers.emplace_back([this, s, &window, &lanes, &lane_errors] {
        try {
          core::Miner& lane_miner = *shard_miners_[s - 1];
          lanes[s] = config_.mining == MiningMode::kSerial
                         ? lane_miner.mine_lane_serial(window.lanes[s])
                         : lane_miner.mine_lane(window.lanes[s]);
        } catch (...) {
          lane_errors[s] = std::current_exception();
        }
      });
    }
    try {
      lanes[0] = config_.mining == MiningMode::kSerial ? miner_.mine_lane_serial(window.lanes[0])
                                                       : miner_.mine_lane(window.lanes[0]);
    } catch (...) {
      lane_errors[0] = std::current_exception();
    }
  }  // Joins the lane workers.
  for (const auto& error : lane_errors) {
    if (error) std::rethrow_exception(error);
  }
  for (std::uint32_t s = 1; s < shards; ++s) {
    if (!window.lanes[s].empty()) fold_lane_stats(shard_miners_[s - 1]->last_stats());
  }

  // Merge: lane index == shard id (empty lanes stay in so lane_counts
  // and ShardOrigin::lane read as shard ids end-to-end).
  std::vector<chain::ShardLane> merge_input;
  merge_input.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    lanes[s].lane.shard = s;
    merge_input.push_back(std::move(lanes[s].lane));
  }
  chain::ShardMergeResult merged = chain::merge_shards(merge_input);
  stats_.cross_shard_conflicts += merged.cross_shard_conflicts;
  if (!merged.requeued.empty()) {
    // Losers take another lap at the front of the global order, so they
    // land in the very next block (where, with the conflicting winner now
    // committed, the lowest occupied lane's total win guarantees they can
    // not lose forever).
    stats_.requeued_transactions += merged.requeued.size();
    mempool_.requeue_front(merged.requeued);
  }

  chain::Block block = miner_.seal_merged(std::move(merged), std::move(lanes[0].logs), parent);
  const core::MinerStats& sealed = miner_.last_stats();
  fold_lane_stats(sealed);
  stats_.schedule_bytes += sealed.schedule_bytes;
  stats_.arena = sealed.arena;
  stats_.detect_violations += sealed.detect_violations;
  if (sealed.detect_violations > 0 && !first_detect_report_.has_value()) {
    first_detect_report_ = miner_.last_detect_report();
  }
  if (config_.post_mine_hook) config_.post_mine_hook(block);
  return block;
}

bool Node::validate_and_append(chain::Block block, double& validate_ms) {
  const auto t_validate = Clock::now();
  core::ValidationReport report = validator_.validate_parallel(block);
  validate_ms += ms_since(t_validate);
  if (!report.ok) {
    ++stats_.rejected_blocks;
    last_rejection_ = report;  // Every rejection, for the follower's Nack.
    if (!failure_.has_value()) failure_ = std::move(report);
    return false;
  }
  stats_.blocks += 1;
  stats_.transactions += block.transactions.size();
  const std::uint64_t number = block.header.number;
  const util::Hash256 root = block.header.state_root;
  chain_.append(std::move(block));
  if (read_path_enabled()) {
    // Publish the accepted boundary to readers. validate_parallel left
    // validator_world_ at exactly the post-block state and cross-checked
    // `root` against it, so the snapshot is verified state and seeding
    // the root cache is sound (readers never pay for a root). The
    // fork is O(contracts), on the appending thread — the same thread
    // for every publish and rewind, which is the ring's single-writer
    // contract.
    snapshots_.publish(number, vm::WorldSnapshot(*validator_world_, root));
  }
  // Replication egress LAST: a remote follower never hears about a block
  // before the leader's own readers can pin it.
  if (config_.on_block_accepted) config_.on_block_accepted(chain_.tip());
  return true;
}

void Node::require_read_path() const {
  if (!read_path_enabled()) {
    throw std::logic_error("node read path disabled (retain_snapshots == 0)");
  }
}

Node::Pin Node::pin_latest() const {
  require_read_path();
  Pin pin = snapshots_.latest();
  if (pin == nullptr) {
    pins_expired_.fetch_add(1, std::memory_order_relaxed);
    throw SnapshotEvicted("latest boundary unavailable (persistent re-org churn)");
  }
  return pin;
}

Node::Pin Node::pin_at(std::uint64_t block) const {
  require_read_path();
  Pin pin = snapshots_.at(block);
  if (pin != nullptr) return pin;
  pins_expired_.fetch_add(1, std::memory_order_relaxed);
  // Explain WHY the pin failed — the distinction matters to clients
  // (retry later vs. gone forever vs. never existed on this chain).
  std::string reason = "snapshot evicted: block " + std::to_string(block);
  const std::optional<std::uint64_t> head = snapshots_.head_number();
  if (!head.has_value()) {
    reason += " (nothing published yet)";
  } else if (block > *head) {
    reason += " is beyond the newest accepted boundary " + std::to_string(*head);
  } else {
    reason += " left the retention window (head " + std::to_string(*head) + ", retain " +
              std::to_string(snapshots_.retain()) + ") or was re-orged away";
  }
  throw SnapshotEvicted(reason);
}

Node::Pin Node::pin_no_older_than(std::uint64_t block, std::chrono::milliseconds timeout) const {
  require_read_path();
  const auto deadline = Clock::now() + timeout;
  // wait_for_head returning true only means block N WAS published; a
  // re-org between the wake-up and the pin can drop the head again, so
  // re-check what was actually pinned and go back to waiting if it is
  // too old. The loop is bounded by the deadline.
  while (snapshots_.wait_for_head(block, deadline)) {
    Pin pin = snapshots_.latest();
    if (pin != nullptr && pin->number >= block) return pin;
    if (Clock::now() >= deadline) break;
  }
  pins_expired_.fetch_add(1, std::memory_order_relaxed);
  throw SnapshotEvicted("read-your-writes pin: block " + std::to_string(block) +
                        " not published within " + std::to_string(timeout.count()) + "ms");
}

core::QueryOutcome Node::query_pinned(const Pin& pin, const core::QueryFn& fn) const {
  require_read_path();
  if (pin == nullptr) throw std::logic_error("query_pinned on a null pin");
  const core::QueryOutcome outcome = core::run_query(pin->snapshot, config_.query, fn);
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  query_gas_used_.fetch_add(outcome.gas_used, std::memory_order_relaxed);
  return outcome;
}

core::QueryOutcome Node::query_latest(const core::QueryFn& fn) const {
  return query_pinned(pin_latest(), fn);
}

core::QueryOutcome Node::query_at(std::uint64_t block, const core::QueryFn& fn) const {
  return query_pinned(pin_at(block), fn);
}

core::QueryOutcome Node::query_call(const chain::Transaction& tx) const {
  const Pin pin = pin_latest();
  const core::QueryOutcome outcome = core::run_query_call(pin->snapshot, config_.query, tx);
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  query_gas_used_.fetch_add(outcome.gas_used, std::memory_order_relaxed);
  return outcome;
}

}  // namespace concord::node
