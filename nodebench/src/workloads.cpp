// The three workloads, untraced and traced.
//
// Untraced runs drive the node through its public API in rounds: each
// round builds a fresh node on a fork of the workload's genesis, pushes
// the same fixed stream through it and checks the outcome. Rounds repeat
// until the run's seconds are spent, so every run attempts whole rounds
// of identical operations. The end-to-end metrics come from each round's
// window, from the accept of warm-up block kWarmupBlocks to the accept
// of its last block, timed in NodeConfig::on_block_accepted.
//
// Traced runs drive the layers one call at a time on one round's stream
// and record a span around each call (see README.md).

#include <algorithm>
#include <cmath>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "chain/blockchain.hpp"
#include "contracts/etherdoc.hpp"
#include "contracts/token.hpp"
#include "core/execution.hpp"
#include "core/miner.hpp"
#include "core/query.hpp"
#include "core/validator.hpp"
#include "net/peer.hpp"
#include "net/replication.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "node/mempool.hpp"
#include "node/node.hpp"
#include "util/cycle_burner.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace nodebench {

namespace {

namespace core = concord::core;
namespace net = concord::net;
namespace node = concord::node;
namespace workload = concord::workload;

constexpr std::size_t kTxsPerBlock = 200;
constexpr unsigned kConflictPercent = 15;
/// Blocks of each round before its measured window opens.
constexpr std::size_t kWarmupBlocks = 3;
constexpr std::size_t kZipfAccounts = 100'000;
constexpr double kZipfSkew = 0.9;
/// Balances the reader draws per pinned boundary.
constexpr std::size_t kReadsPerPin = 8;
/// Reads the traced run issues against each published boundary.
constexpr std::size_t kTracedReadsPerBlock = 64;

/// Everything a workload fixes before its first measured submission.
struct Plan {
  std::size_t blocks_per_round = 40;
  unsigned miner_threads = 1;
  unsigned validator_threads = 1;
  unsigned reader_threads = 0;
  double nanos_per_gas = 0.0;  ///< 0 = burn off.
  workload::Fixture fixture;   ///< Genesis world + one round's stream.
  double genesis_ms = 0.0;
  /// follower-catchup: the leader's chain (blocks 1..R) and its stats.
  std::vector<chain::Block> leader_chain;
  node::NodeStats leader_stats;
  /// zipf-state-reads: the accounts the reader draws from (the stream's
  /// senders, so the draw keeps the stream's Zipf skew).
  std::vector<vm::Address> reader_accounts;
};

/// A pool size: at least one thread, at most the paper's three.
unsigned clamp_threads(int n) { return static_cast<unsigned>(std::clamp(n, 1, 3)); }

node::NodeConfig node_config(const Plan& plan) {
  node::NodeConfig config;
  config.miner.threads = plan.miner_threads;
  config.miner.nanos_per_gas = plan.nanos_per_gas;
  config.validator.threads = plan.validator_threads;
  config.validator.nanos_per_gas = plan.nanos_per_gas;
  config.batch.target_txs = kTxsPerBlock;
  return config;
}

/// Mines the follower-catchup leader chain: serial mining, so the chain
/// is a pure function of the seed.
void mine_leader_chain(Plan& plan) {
  node::NodeConfig config = node_config(plan);
  config.mining = node::MiningMode::kSerial;
  config.miner.threads = 1;
  node::Node leader(plan.fixture.world->fork(), config);
  (void)leader.mempool().submit_many(plan.fixture.transactions);
  leader.mempool().close();
  leader.run();
  if (!leader.ok() || leader.chain().height() != plan.blocks_per_round) {
    throw std::runtime_error("follower-catchup: the leader failed to mine its chain");
  }
  for (std::uint64_t n = 1; n <= leader.chain().height(); ++n) {
    plan.leader_chain.push_back(leader.chain().at(n));
  }
  plan.leader_stats = leader.stats();
}

Plan make_plan(const Options& options) {
  Plan plan;
  const int budget = static_cast<int>(cpu_budget());
  const auto t_genesis = Clock::now();
  switch (options.workload) {
    case Workload::kPaperMixed:
    case Workload::kFollowerCatchup: {
      plan.nanos_per_gas = fixed_burn_nanos_per_gas();
      workload::StreamSpec spec;
      spec.kind = workload::BenchmarkKind::kMixed;
      spec.blocks = plan.blocks_per_round;
      spec.txs_per_block = kTxsPerBlock;
      spec.conflict_percent = kConflictPercent;
      spec.seed = options.seed;
      plan.fixture = workload::make_stream_fixture(spec);
      break;
    }
    case Workload::kZipfStateReads: {
      plan.blocks_per_round = 20;
      workload::ZipfSpec spec;
      spec.scenario = workload::ZipfScenario::kTokenTransfers;
      spec.accounts = kZipfAccounts;
      spec.skew = kZipfSkew;
      spec.transactions = plan.blocks_per_round * kTxsPerBlock;
      spec.seed = options.seed;
      plan.fixture = workload::make_zipf_fixture(spec);
      for (const chain::Transaction& tx : plan.fixture.transactions) {
        plan.reader_accounts.push_back(tx.sender);
      }
      break;
    }
  }
  plan.genesis_ms = ms_between(t_genesis, Clock::now());

  // Thread budget: miner pool + validator pool + readers <= cores. The
  // validator's fork-join workers count as busy: they spin while a DAG
  // drains.
  switch (options.workload) {
    case Workload::kPaperMixed:
      plan.miner_threads = clamp_threads(budget / 2);
      plan.validator_threads = clamp_threads(budget - static_cast<int>(plan.miner_threads));
      break;
    case Workload::kZipfStateReads:
      plan.reader_threads = 1;
      plan.miner_threads = clamp_threads(budget / 2);
      plan.validator_threads = clamp_threads(budget - 1 - static_cast<int>(plan.miner_threads));
      break;
    case Workload::kFollowerCatchup:
      plan.miner_threads = 1;
      plan.validator_threads = clamp_threads(budget - 1);
      break;
  }
  if (options.validator_threads > 0) {
    // On follower-catchup the miner's share is the follower session thread.
    const int left = budget - static_cast<int>(plan.miner_threads + plan.reader_threads);
    if (static_cast<int>(options.validator_threads) > std::max(left, 1)) {
      throw std::runtime_error("--validator-threads " + std::to_string(options.validator_threads) +
                               " exceeds the " + std::to_string(std::max(left, 1)) +
                               " core(s) the thread budget leaves for the validator");
    }
    plan.validator_threads = options.validator_threads;
  }
  if (options.workload == Workload::kFollowerCatchup) mine_leader_chain(plan);
  return plan;
}

// ── Measured windows ───────────────────────────────────────────────────

/// End-to-end figures of every round's measured window. Rates are kept
/// per round, so a run reports the median round.
struct Window {
  std::uint64_t txs = 0;
  std::vector<double> tx_per_s;
  std::vector<double> cpu_us_per_tx;
  std::vector<double> intervals_ms;  ///< Between consecutive accepts.
  std::vector<double> steal_per_s;   ///< Host steal ticks per second.
};

/// One round's accept-side clock, fed from on_block_accepted (a single
/// thread: the validator stage, or the follower's session thread).
class AcceptClock {
 public:
  explicit AcceptClock(std::size_t last) : last_(last) { times_.reserve(last); }

  void on_accept(const chain::Block& block) {
    const auto now = Clock::now();
    const std::uint64_t number = block.header.number;
    if (number == kWarmupBlocks) {
      cpu_begin_ = cpu_seconds();
      steal_begin_ = steal_ticks();
    }
    if (number == last_) {
      cpu_end_ = cpu_seconds();
      steal_end_ = steal_ticks();
    }
    times_.push_back(now);
    txs_.push_back(block.transactions.size());
  }

  /// Adds this round's window to `window`; false when the round did not
  /// accept every block.
  bool fold_into(Window& window) const {
    if (times_.size() != last_ || last_ <= kWarmupBlocks) return false;
    std::uint64_t txs = 0;
    for (std::size_t i = kWarmupBlocks; i < last_; ++i) {
      txs += txs_[i];
      window.intervals_ms.push_back(ms_between(times_[i - 1], times_[i]));
    }
    const double ms = ms_between(times_[kWarmupBlocks - 1], times_.back());
    window.txs += txs;
    window.tx_per_s.push_back(static_cast<double>(txs) * 1e3 / std::max(ms, 1e-9));
    window.cpu_us_per_tx.push_back((cpu_end_ - cpu_begin_) * 1e6 /
                                   static_cast<double>(std::max<std::uint64_t>(txs, 1)));
    window.steal_per_s.push_back(static_cast<double>(steal_end_ - steal_begin_) * 1e3 /
                                 std::max(ms, 1e-9));
    return true;
  }

 private:
  std::size_t last_;
  std::vector<Clock::time_point> times_;
  std::vector<std::size_t> txs_;
  double cpu_begin_ = 0.0;
  double cpu_end_ = 0.0;
  std::uint64_t steal_begin_ = 0;
  std::uint64_t steal_end_ = 0;
};

// ── The zipf-state-reads reader ────────────────────────────────────────

/// One closed-loop reader thread: pins the newest boundary, reads
/// kReadsPerPin Zipf-drawn balances against it, repeats. Reads fold into
/// one digest per boundary for the model-ledger check; every
/// kLatencyStride-th read's latency is kept for the median.
class BalanceReader {
 public:
  BalanceReader(const node::Node& node, const vm::Address& token,
                const std::vector<vm::Address>& accounts, std::uint64_t seed)
      : node_(node), token_(token), draws_(accounts, seed) {}
  BalanceReader(const BalanceReader&) = delete;
  BalanceReader& operator=(const BalanceReader&) = delete;
  ~BalanceReader() { stop(); }

  void start() {
    thread_ = std::jthread([this] { loop(); });
  }
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after stop().
  std::uint64_t reads = 0;
  std::vector<std::uint64_t> failed_reads;  ///< Ordinals of reads that failed.
  std::vector<ReadDigest> digests;
  std::vector<double> latency_us;
  double busy_ms = 0.0;

 private:
  static constexpr std::uint64_t kLatencyStride = 64;

  void loop() {
    using concord::contracts::Token;
    const auto begin = Clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      node::Node::Pin pin;
      try {
        pin = node_.pin_latest();
      } catch (const node::SnapshotEvicted&) {
        continue;  // Never happens without re-orgs; no draw is consumed.
      }
      if (digests.empty() || digests.back().block != pin->number) {
        digests.push_back(ReadDigest{pin->number, 0, 0});
      }
      ReadDigest& digest = digests.back();
      for (std::size_t i = 0; i < kReadsPerPin; ++i) {
        const vm::Address& who = draws_.next();
        const std::uint64_t ordinal = reads++;
        ++digest.reads;
        vm::Amount value = 0;
        const auto t0 = Clock::now();
        const core::QueryOutcome outcome =
            node_.query_pinned(pin, [&](const vm::World& world, vm::ExecContext& ctx) {
              value = world.contracts().as<Token>(token_).balance_of(ctx, who);
            });
        if (ordinal % kLatencyStride == 0) {
          latency_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
        }
        if (outcome.status != core::QueryStatus::kOk) {
          failed_reads.push_back(ordinal);
          continue;
        }
        digest.digest += read_term(ordinal, value);
      }
    }
    busy_ms = ms_between(begin, Clock::now());
  }

  const node::Node& node_;
  vm::Address token_;
  AccountDraws draws_;
  std::atomic<bool> stop_{false};
  std::jthread thread_;  ///< Last: joins before the members it uses die.
};

// ── One round per workload ─────────────────────────────────────────────

struct Round {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  node::NodeStats stats;
  double reads_per_s = 0.0;
  double read_us_p50 = 0.0;
};

std::vector<chain::Block> chain_blocks(const chain::Blockchain& chain) {
  std::vector<chain::Block> blocks;
  for (std::uint64_t n = 1; n <= chain.height(); ++n) blocks.push_back(chain.at(n));
  return blocks;
}

/// A leader round (paper-mixed, zipf-state-reads): a fresh pipelined
/// speculative node mines the round's stream; zipf-state-reads runs the
/// reader beside it. Checks run after the node has stopped.
Round run_leader_round(const Options& options, const Plan& plan, Window& window,
                       RunResult& result) {
  const vm::World& genesis = *plan.fixture.world;
  const std::vector<chain::Transaction>& stream = plan.fixture.transactions;
  AcceptClock clock(plan.blocks_per_round);
  node::NodeConfig config = node_config(plan);
  config.on_block_accepted = [&clock](const chain::Block& block) { clock.on_accept(block); };
  node::Node leader(genesis.fork(), config);
  std::optional<BalanceReader> reader;
  if (plan.reader_threads > 0) {
    reader.emplace(leader, plan.fixture.token, plan.reader_accounts, options.seed);
  }

  Round round;
  round.attempted = stream.size();
  const std::size_t accepted = leader.mempool().submit_many(stream);
  leader.mempool().close();
  if (reader) reader->start();
  leader.run();
  if (reader) reader->stop();
  round.stats = leader.stats();
  round.failed = round.stats.dropped_transactions + (stream.size() - accepted);

  if (!clock.fold_into(window)) result.check("round", "not every block was accepted");

  const std::vector<chain::Block> blocks = chain_blocks(leader.chain());
  const node::Node::Pin head = leader.pin_latest();
  result.check("exactly-once", check_exactly_once(stream, blocks));
  if (options.workload == Workload::kPaperMixed) {
    result.check("serial-replay", check_serial_replay(genesis, blocks));
    result.check("ballot-total", check_ballot_total(genesis, head->snapshot.world(),
                                                    plan.fixture.ballot, blocks));
  } else {
    round.attempted += reader->reads;
    round.failed += reader->failed_reads.size();
    round.read_us_p50 = median(reader->latency_us);
    round.reads_per_s = static_cast<double>(reader->reads) * 1e3 / std::max(reader->busy_ms, 1e-9);
    result.check("model-ledger",
                 check_token_ledger(genesis, head->snapshot.world(), plan.fixture.token, blocks,
                                    plan.reader_accounts, options.seed, reader->digests,
                                    reader->failed_reads));
  }
  return round;
}

/// A follower-catchup round: the leader's chain is announced block by
/// block over an in-process pipe to a fresh follower node.
Round run_follower_round(const Plan& plan, Window& window, RunResult& result) {
  const vm::World& genesis = *plan.fixture.world;
  AcceptClock clock(plan.blocks_per_round);
  node::NodeConfig config = node_config(plan);
  config.on_block_accepted = [&clock](const chain::Block& block) { clock.on_accept(block); };
  node::Node follower(genesis.fork(), config);

  auto [follower_end, leader_end] = net::PipeTransport::make_pair();
  net::Peer follower_peer(std::move(follower_end), net::PeerConfig{.name = "follower"});
  auto peers = std::make_shared<net::PeerSet>();
  auto leader_peer =
      std::make_shared<net::Peer>(std::move(leader_end), net::PeerConfig{.name = "leader"});
  peers->add(leader_peer);
  net::Leader leader(peers, follower.genesis_snapshot().state_root());
  leader.start();
  std::jthread session([&follower, &follower_peer] { follower.run_follower(follower_peer); });

  // Finish the Hello exchange first, so the follower learns head 0 and
  // never pulls blocks that are about to be announced anyway.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (leader_peer->stats().frames_sent == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (const chain::Block& block : plan.leader_chain) leader.announce(block);
  const std::uint64_t height = plan.leader_chain.size();
  while (Clock::now() < deadline) {
    const std::vector<net::FollowerProgress> progress = leader.progress();
    if (progress.at(0).acked >= height || progress.at(0).nacks > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const net::FollowerProgress progress = leader.progress().at(0);
  leader.stop();
  session.join();

  Round round;
  round.attempted = height * kTxsPerBlock;
  round.stats = follower.stats();
  const std::vector<chain::Block> blocks = chain_blocks(follower.chain());
  std::uint64_t on_chain = 0;
  for (const chain::Block& block : blocks) on_chain += block.transactions.size();
  round.failed = round.attempted - std::min(round.attempted, on_chain);
  if (!clock.fold_into(window)) result.check("round", "not every block was accepted");
  result.check("exactly-once", check_exactly_once(plan.fixture.transactions, blocks));
  result.check("replica", check_replica(plan.leader_chain, blocks, progress.acked,
                                        progress.nacks + round.stats.net_nacks_sent));
  return round;
}

Round run_round(const Options& options, const Plan& plan, Window& window, RunResult& result) {
  return options.workload == Workload::kFollowerCatchup
             ? run_follower_round(plan, window, result)
             : run_leader_round(options, plan, window, result);
}

// ── Untraced run ───────────────────────────────────────────────────────

RunResult run_untraced(const Options& options, Clock::time_point start) {
  RunResult result;
  const Plan plan = make_plan(options);
  const auto measured = Clock::now();
  const double setup_s = std::chrono::duration<double>(measured - start).count();
  // The probe runs after set-up, so setup_s holds only the program's work;
  // rounds time their own windows, so it does not touch the metrics.
  const double probe_before = burn_probe_rate();
  const std::uint64_t steal_before = steal_ticks();

  Window window;
  std::uint64_t rounds = 0;
  do {
    const Round round = run_round(options, plan, window, result);
    result.attempted += round.attempted;
    result.failed += round.failed;
    ++rounds;
  } while (std::chrono::duration<double>(Clock::now() - measured).count() < options.seconds);

  const std::uint64_t steal_after = steal_ticks();
  const double probe_after = burn_probe_rate();

  result.metrics.set("tx_per_s", median(window.tx_per_s), "tx/s");
  result.metrics.set("block_ms_p50", median(window.intervals_ms), "ms");
  result.metrics.set("cpu_us_per_tx", median(window.cpu_us_per_tx), "us");
  result.metrics.set("setup_s", setup_s, "s");
  result.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

  result.reference.set("probe_before_iters_per_us", probe_before, "1/us");
  result.reference.set("probe_after_iters_per_us", probe_after, "1/us");
  result.reference.set("steal_ticks", static_cast<double>(steal_after - steal_before), "ticks");
  result.reference.set("round_steal_ticks_per_s_p50", median(window.steal_per_s), "1/s");
  result.reference.set("calibration_iters_per_us",
                       static_cast<double>(concord::util::iterations_per_microsecond()), "1/us");
  result.reference.set("burn_iters_per_gas", plan.nanos_per_gas > 0 ? kBurnIterationsPerGas : 0.0,
                       "1/gas");
  result.reference.set("rounds", static_cast<double>(rounds), "count");
  result.reference.set("window_txs", static_cast<double>(window.txs), "count");
  result.reference.set("miner_threads", plan.miner_threads, "count");
  result.reference.set("validator_threads", plan.validator_threads, "count");
  result.reference.set("reader_threads", plan.reader_threads, "count");
  return result;
}

// ── Traced run ─────────────────────────────────────────────────────────

/// Per-block layer measurements of the traced loop.
struct LayerSample {
  double cut_us = 0, mine_ms = 0, serial_ms = 0, attempts_per_tx = 0, aborts = 0, victims = 0;
  double gas_per_tx = 0, burn_ms = 0, overhead_us_per_tx = 0;
  double root_ms = 0, snapshot_us = 0;
  double validate_ms = 0, validate_serial_ms = 0, steals = 0;
  double append_us = 0, schedule_bytes = 0;
  double encode_us = 0, decode_us = 0, block_bytes = 0;
  double block_ms = 0;    ///< The whole block: every call and every span.
};

/// What one pass of the layer loop measured.
struct LayerPass {
  std::vector<LayerSample> samples;  ///< Blocks after the warm-up.
  std::vector<double> read_us;       ///< Quiet reads (no reader workload).
  double read_ms = 0.0;
  double arena_mb = 0.0;
};

double us_between(Clock::time_point a, Clock::time_point b) { return ms_between(a, b) * 1e3; }

/// Gas each transaction of `batch` uses, executed serially on a fork
/// with burn off (gas accounting does not depend on the burn).
std::uint64_t count_gas(const vm::World& boundary, const std::vector<chain::Transaction>& batch) {
  auto world = boundary.fork();
  std::uint64_t gas = 0;
  for (const chain::Transaction& tx : batch) {
    vm::ExecContext ctx = vm::ExecContext::serial(*world, vm::GasMeter(tx.gas_limit, 0.0));
    (void)core::execute_transaction(*world, tx, ctx);
    gas += ctx.gas().used();
  }
  return gas;
}

/// The layer loop over one round's stream: one call per layer per block,
/// each inside a span. Only one pool is busy at a time here, so both get
/// the paper's three threads (within the budget).
LayerPass run_layer_pass(const Options& options, const Plan& plan, SpanRecorder& spans,
                         RunResult& result) {
  const vm::World& genesis = *plan.fixture.world;
  const unsigned pool_threads = clamp_threads(static_cast<int>(cpu_budget()));
  core::MinerConfig miner_config = node_config(plan).miner;
  miner_config.threads = pool_threads;
  core::MinerConfig serial_miner_config = miner_config;
  serial_miner_config.threads = 1;
  core::ValidatorConfig validator_config = node_config(plan).validator;
  validator_config.threads = pool_threads;
  core::ValidatorConfig serial_validator_config = validator_config;
  serial_validator_config.threads = 1;

  auto miner_world = genesis.fork();
  auto validator_world = genesis.fork();
  auto scratch_world = genesis.fork();
  core::Miner miner(*miner_world, miner_config);
  core::Miner serial_miner(*scratch_world, serial_miner_config);
  core::Validator validator(*validator_world, validator_config);
  core::Validator serial_validator(*scratch_world, serial_validator_config);

  node::Mempool mempool(node::BatchPolicy{.target_txs = kTxsPerBlock});
  result.attempted += plan.fixture.transactions.size();
  (void)mempool.submit_many(plan.fixture.transactions);
  mempool.close();
  chain::Blockchain chain(vm::WorldSnapshot(genesis).state_root());
  chain::Block parent = chain.tip();

  // Quiet reads for the workloads without a reader: EtherDoc lookups
  // from the stream, call-shaped, against each published boundary.
  std::vector<chain::Transaction> lookups;
  for (const chain::Transaction& tx : plan.fixture.transactions) {
    if (tx.contract == plan.fixture.etherdoc &&
        tx.selector == concord::contracts::EtherDoc::kExists) {
      lookups.push_back(tx);
    }
  }
  LayerPass pass;
  concord::util::Rng read_rng(options.seed ^ 0x7EADE2ull);

  for (std::size_t b = 1; b <= plan.blocks_per_round; ++b) {
    LayerSample s;
    const auto t_block = Clock::now();

    auto t0 = Clock::now();
    std::optional<std::vector<chain::Transaction>> batch = mempool.next_batch();
    auto t1 = Clock::now();
    if (!batch) throw std::runtime_error("traced run: the mempool ran dry");
    spans.record("mempool.cut", b, "block", t0, t1);
    s.cut_us = us_between(t0, t1);
    const double txs = static_cast<double>(batch->size());

    const std::uint64_t gas = count_gas(*miner_world, *batch);
    const double block_probe_rate = burn_probe_rate();
    auto baseline_world = miner_world->fork();
    serial_miner.resume_from(*baseline_world);
    t0 = Clock::now();
    (void)serial_miner.execute_serial_baseline(*batch);
    t1 = Clock::now();
    spans.record("exec.serial_baseline", b, "block", t0, t1);
    s.serial_ms = ms_between(t0, t1);
    s.gas_per_tx = static_cast<double>(gas) / txs;
    const double iterations_per_gas = plan.nanos_per_gas > 0 ? kBurnIterationsPerGas : 0.0;
    s.burn_ms = static_cast<double>(gas) * iterations_per_gas / block_probe_rate / 1e3;
    s.overhead_us_per_tx = (s.serial_ms - s.burn_ms) * 1e3 / txs;

    t0 = Clock::now();
    chain::Block mined = miner.mine(*batch, parent);
    t1 = Clock::now();
    const core::MinerStats& mstats = miner.last_stats();
    spans.record("miner.mine", b, "block", t0, t1);
    spans.record("vm.state_root", b, "miner.mine",
                 t1 - std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(mstats.state_root_ms)),
                 t1);
    s.root_ms = mstats.state_root_ms;
    s.mine_ms = ms_between(t0, t1) - mstats.state_root_ms;
    s.attempts_per_tx = static_cast<double>(mstats.attempts) / txs;
    s.aborts = static_cast<double>(mstats.conflict_aborts);
    s.victims = static_cast<double>(mstats.deadlock_victims);
    pass.arena_mb = static_cast<double>(mstats.arena.chunk_bytes) / (1024.0 * 1024.0);
    parent = mined;

    // follower-catchup validates the leader's block, as the follower does.
    const chain::Block& announced = options.workload == Workload::kFollowerCatchup
                                        ? plan.leader_chain.at(b - 1)
                                        : mined;
    t0 = Clock::now();
    const std::vector<std::uint8_t> payload =
        net::encode_message(net::Message{net::BlockAnnounce{announced}});
    t1 = Clock::now();
    net::Message message = net::decode_message(payload);
    const auto t2 = Clock::now();
    spans.record("net.encode", b, "block", t0, t1);
    spans.record("net.decode", b, "block", t1, t2);
    s.encode_us = us_between(t0, t1);
    s.decode_us = us_between(t1, t2);
    s.block_bytes = static_cast<double>(payload.size());
    chain::Block block = std::move(std::get<net::BlockAnnounce>(message).block);

    auto replica = validator_world->fork();
    serial_validator.resume_from(*replica);
    t0 = Clock::now();
    const core::ValidationReport serial_report = serial_validator.validate_serial(block);
    t1 = Clock::now();
    spans.record("validator.validate_serial", b, "block", t0, t1);
    s.validate_serial_ms = ms_between(t0, t1);

    t0 = Clock::now();
    const core::ValidationReport report = validator.validate_parallel(block);
    t1 = Clock::now();
    spans.record("validator.validate_parallel", b, "block", t0, t1);
    s.validate_ms = ms_between(t0, t1);
    s.steals = static_cast<double>(report.steals);
    if (!report.ok || !serial_report.ok) {
      result.check("traced-validation", "block " + std::to_string(b) + " rejected: " +
                                            report.detail + serial_report.detail);
      break;
    }

    concord::util::ByteWriter schedule_bytes;
    block.schedule.encode(schedule_bytes);
    s.schedule_bytes = static_cast<double>(schedule_bytes.size());
    const concord::util::Hash256 root = block.header.state_root;
    t0 = Clock::now();
    chain.append(std::move(block));
    t1 = Clock::now();
    spans.record("chain.append", b, "block", t0, t1);
    s.append_us = us_between(t0, t1);

    t0 = Clock::now();
    const vm::WorldSnapshot published(*validator_world, root);
    t1 = Clock::now();
    spans.record("vm.snapshot", b, "block", t0, t1);
    s.snapshot_us = us_between(t0, t1);

    if (!lookups.empty()) {
      const auto t_reads = Clock::now();
      for (std::size_t i = 0; i < kTracedReadsPerBlock; ++i) {
        const chain::Transaction& tx = lookups[read_rng.below(lookups.size())];
        t0 = Clock::now();
        const core::QueryOutcome outcome = core::run_query_call(published, {}, tx);
        t1 = Clock::now();
        pass.read_us.push_back(us_between(t0, t1));
        ++result.attempted;
        if (outcome.status != core::QueryStatus::kOk) ++result.failed;
      }
      const auto t_done = Clock::now();
      spans.record("query.read", b, "block", t_reads, t_done);
      pass.read_ms += ms_between(t_reads, t_done);
    }
    spans.record("block", b, "", t_block, Clock::now());
    s.block_ms = ms_between(t_block, Clock::now());
    if (b > kWarmupBlocks) pass.samples.push_back(s);
  }
  if (chain.height() == plan.blocks_per_round) {
    result.check("traced-exactly-once",
                 check_exactly_once(plan.fixture.transactions, chain_blocks(chain)));
  } else {
    result.check("traced-run", "the layer loop did not reach the end of the stream");
  }
  return pass;
}

double block_ms_p50(const LayerPass& pass) {
  std::vector<double> values;
  for (const LayerSample& s : pass.samples) values.push_back(s.block_ms);
  return median(std::move(values));
}

RunResult run_traced(const Options& options, Clock::time_point start) {
  RunResult result;
  const Plan plan = make_plan(options);
  const auto setup_done = Clock::now();
  const double probe_rate = burn_probe_rate();

  // node.* (and query.* on zipf-state-reads) come from one untraced round.
  Window untraced_window;
  const Round untraced = run_round(options, plan, untraced_window, result);
  const node::NodeStats& node_stats =
      options.workload == Workload::kFollowerCatchup ? plan.leader_stats : untraced.stats;
  result.attempted += untraced.attempted;
  result.failed += untraced.failed;

  // The traced pass sits between two passes with span recording off: the
  // traced pass against their mean is what tracing costs, and the two
  // untraced passes against each other are the noise floor of that figure.
  SpanRecorder spans;
  SpanRecorder no_spans(false);
  const LayerPass before = run_layer_pass(options, plan, no_spans, result);
  const LayerPass pass = run_layer_pass(options, plan, spans, result);
  const LayerPass after = run_layer_pass(options, plan, no_spans, result);
  const std::vector<LayerSample>& samples = pass.samples;

  const auto med = [&samples](double LayerSample::*field) {
    std::vector<double> values;
    for (const LayerSample& s : samples) values.push_back(s.*field);
    return median(std::move(values));
  };
  Metrics& m = result.metrics;
  const double blocks = static_cast<double>(std::max<std::uint64_t>(node_stats.blocks, 1));
  m.set("mempool.cut_us", med(&LayerSample::cut_us), "us");
  m.set("miner.mine_ms", med(&LayerSample::mine_ms), "ms");
  m.set("miner.serial_ms", med(&LayerSample::serial_ms), "ms");
  m.set("miner.speedup", med(&LayerSample::serial_ms) / std::max(med(&LayerSample::mine_ms), 1e-9),
        "x");
  m.set("miner.attempts_per_tx", med(&LayerSample::attempts_per_tx), "ratio");
  m.set("miner.aborts", med(&LayerSample::aborts), "count");
  m.set("miner.deadlock_victims", med(&LayerSample::victims), "count");
  m.set("exec.gas_per_tx", med(&LayerSample::gas_per_tx), "gas");
  m.set("exec.burn_ms", med(&LayerSample::burn_ms), "ms");
  m.set("exec.overhead_us_per_tx", med(&LayerSample::overhead_us_per_tx), "us");
  m.set("vm.state_root_ms", med(&LayerSample::root_ms), "ms");
  m.set("vm.snapshot_us", med(&LayerSample::snapshot_us), "us");
  m.set("vm.arena_high_water_mb", pass.arena_mb, "MB");
  m.set("vm.genesis_ms", plan.genesis_ms, "ms");
  m.set("validator.validate_ms", med(&LayerSample::validate_ms), "ms");
  m.set("validator.serial_ms", med(&LayerSample::validate_serial_ms), "ms");
  m.set("validator.speedup",
        med(&LayerSample::validate_serial_ms) / std::max(med(&LayerSample::validate_ms), 1e-9),
        "x");
  m.set("validator.steals", med(&LayerSample::steals), "count");
  m.set("chain.append_us", med(&LayerSample::append_us), "us");
  m.set("chain.schedule_bytes", med(&LayerSample::schedule_bytes), "bytes");
  m.set("net.encode_us", med(&LayerSample::encode_us), "us");
  m.set("net.decode_us", med(&LayerSample::decode_us), "us");
  m.set("net.block_bytes", med(&LayerSample::block_bytes), "bytes");
  m.set("node.handoff_wait_ms", node_stats.handoff_wait_ms / blocks, "ms");
  m.set("node.validator_stall_ms", node_stats.validator_stall_ms / blocks, "ms");
  m.set("node.mempool_wait_ms", node_stats.mempool_wait_ms / blocks, "ms");
  if (options.workload == Workload::kZipfStateReads) {
    m.set("query.reads_per_s", untraced.reads_per_s, "1/s");
    m.set("query.read_us_p50", untraced.read_us_p50, "us");
  } else {
    m.set("query.reads_per_s",
          static_cast<double>(pass.read_us.size()) * 1e3 / std::max(pass.read_ms, 1e-9), "1/s");
    m.set("query.read_us_p50", median(pass.read_us), "us");
  }

  const double traced_ms = block_ms_p50(pass);
  const double before_ms = block_ms_p50(before);
  const double after_ms = block_ms_p50(after);
  const double untraced_ms = (before_ms + after_ms) / 2.0;
  result.reference.set("setup_s", std::chrono::duration<double>(setup_done - start).count(), "s");
  result.reference.set("layer_block_ms_p50_spans_on", traced_ms, "ms");
  result.reference.set("layer_block_ms_p50_spans_off", untraced_ms, "ms");
  result.reference.set("tracing_overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0, "%");
  result.reference.set("spans_off_passes_differ_pct",
                       std::abs(after_ms - before_ms) / untraced_ms * 100.0, "%");
  result.reference.set("probe_iters_per_us", probe_rate, "1/us");
  result.reference.set("spans", static_cast<double>(spans.size()), "count");
  result.reference.set("span_recording_ms", spans.recording_ms(), "ms");
  if (!options.trace_out.empty() && !spans.write(options.trace_out)) {
    result.check("trace-file", "cannot write " + options.trace_out);
  }
  return result;
}

}  // namespace

RunResult run_workload(const Options& options, Clock::time_point start) {
  return options.trace ? run_traced(options, start) : run_untraced(options, start);
}

}  // namespace nodebench
