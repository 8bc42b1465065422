// Negative tests for the benchmark's correctness checks: each check must
// pass on an honest run and fail on a corrupted copy of its input (a
// dropped transaction, a flipped balance, a forged root, ...). Exits 1
// when any expectation does not hold.
//
// Run: nodebench_selftest   (or ctest in the benchmark's build tree)

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "contracts/token.hpp"
#include "node/node.hpp"
#include "workload/workload.hpp"

namespace {

using namespace nodebench;
namespace node = concord::node;
namespace workload = concord::workload;

int failures = 0;

void expect(bool pass_expected, const std::string& error, const std::string& what) {
  const bool passed = error.empty();
  if (passed == pass_expected) {
    std::printf("ok    %s%s%s\n", what.c_str(), passed ? "" : " -> ", error.c_str());
    return;
  }
  ++failures;
  std::printf("FAIL  %s: expected the check to %s%s%s\n", what.c_str(),
              pass_expected ? "pass" : "fail", passed ? "" : ", got: ", error.c_str());
}

struct Run {
  std::vector<chain::Block> blocks;
  node::Node::Pin head;
  std::unique_ptr<node::Node> node;
};

/// Mines `fixture`'s stream on a fresh node (burn off, 40-tx blocks).
Run mine(const workload::Fixture& fixture) {
  node::NodeConfig config;
  config.miner.threads = 2;
  config.miner.nanos_per_gas = 0.0;
  config.validator.threads = 2;
  config.validator.nanos_per_gas = 0.0;
  config.batch.target_txs = 40;
  config.retain_snapshots = 64;
  Run run;
  run.node = std::make_unique<node::Node>(fixture.world->fork(), config);
  (void)run.node->mempool().submit_many(fixture.transactions);
  run.node->mempool().close();
  run.node->run();
  for (std::uint64_t n = 1; n <= run.node->chain().height(); ++n) {
    run.blocks.push_back(run.node->chain().at(n));
  }
  run.head = run.node->pin_latest();
  return run;
}

void mixed_checks() {
  workload::StreamSpec spec;
  spec.kind = workload::BenchmarkKind::kMixed;
  spec.blocks = 5;
  spec.txs_per_block = 40;
  spec.seed = 7;
  const workload::Fixture fixture = workload::make_stream_fixture(spec);
  const Run run = mine(fixture);
  const vm::World& genesis = *fixture.world;
  const vm::World& final_state = run.head->snapshot.world();

  expect(true, check_exactly_once(fixture.transactions, run.blocks), "exactly-once, honest chain");
  auto dropped = run.blocks;
  dropped[2].transactions.pop_back();
  expect(false, check_exactly_once(fixture.transactions, dropped), "exactly-once, dropped tx");
  auto doubled = run.blocks;
  doubled[1].transactions.push_back(doubled[3].transactions.front());
  expect(false, check_exactly_once(fixture.transactions, doubled), "exactly-once, duplicated tx");

  expect(true, check_serial_replay(genesis, run.blocks), "serial replay, honest chain");
  auto forged = run.blocks;
  forged[3].header.state_root.bytes[0] ^= 0x01;
  expect(false, check_serial_replay(genesis, forged), "serial replay, forged state root");
  auto flipped = run.blocks;
  flipped[1].statuses[0] = flipped[1].statuses[0] == vm::TxStatus::kSuccess
                               ? vm::TxStatus::kReverted
                               : vm::TxStatus::kSuccess;
  expect(false, check_serial_replay(genesis, flipped), "serial replay, flipped status");
  auto reordered = run.blocks;
  std::swap(reordered[0], reordered[1]);
  expect(false, check_serial_replay(genesis, reordered), "serial replay, reordered blocks");

  expect(true, check_ballot_total(genesis, final_state, fixture.ballot, run.blocks),
         "ballot total, honest chain");
  auto lost_vote = run.blocks;
  bool changed = false;
  for (auto& block : lost_vote) {
    for (std::size_t i = 0; i < block.transactions.size() && !changed; ++i) {
      if (block.transactions[i].contract == fixture.ballot &&
          block.statuses[i] == vm::TxStatus::kSuccess) {
        block.statuses[i] = vm::TxStatus::kReverted;
        changed = true;
      }
    }
  }
  expect(false, changed ? check_ballot_total(genesis, final_state, fixture.ballot, lost_vote)
                        : std::string(),
         "ballot total, a successful vote marked reverted");
}

void token_checks() {
  workload::ZipfSpec spec;
  spec.scenario = workload::ZipfScenario::kTokenTransfers;
  spec.accounts = 2'000;
  spec.transactions = 200;
  spec.seed = 7;
  const workload::Fixture fixture = workload::make_zipf_fixture(spec);
  const Run run = mine(fixture);
  const vm::World& genesis = *fixture.world;
  const vm::World& final_state = run.head->snapshot.world();

  // Read 50 drawn balances at every published boundary; `lag` reads
  // each boundary's balances from that many boundaries earlier (stale).
  std::vector<vm::Address> accounts;
  for (const chain::Transaction& tx : fixture.transactions) accounts.push_back(tx.sender);
  constexpr std::uint64_t kSeed = 11;
  const auto read_all = [&](std::uint64_t lag) {
    std::vector<ReadDigest> reads;
    AccountDraws draws(accounts, kSeed);
    std::uint64_t ordinal = 0;
    for (std::uint64_t n = 0; n <= run.node->chain().height(); ++n) {
      const node::Node::Pin pin = run.node->pin_at(n >= lag ? n - lag : 0);
      const auto& token =
          pin->snapshot.world().contracts().as<concord::contracts::Token>(fixture.token);
      ReadDigest digest{n, 0, 0};
      for (int r = 0; r < 50; ++r, ++ordinal, ++digest.reads) {
        digest.digest += read_term(ordinal, token.raw_balance(draws.next()));
      }
      reads.push_back(digest);
    }
    return reads;
  };
  const std::vector<ReadDigest> honest = read_all(0);
  const auto ledger = [&](const vm::World& final, const std::vector<ReadDigest>& reads,
                          const std::vector<std::uint64_t>& failed) {
    return check_token_ledger(genesis, final, fixture.token, run.blocks, accounts, kSeed, reads,
                              failed);
  };
  expect(true, ledger(final_state, honest, {}), "model ledger, honest reads");
  auto flipped = honest;
  flipped[flipped.size() / 2].digest ^= 1;
  expect(false, ledger(final_state, flipped, {}), "model ledger, flipped balance");
  expect(false, ledger(final_state, read_all(1), {}), "model ledger, stale reads");
  expect(false, ledger(genesis, honest, {}), "model ledger, final state not advanced");
  auto failed_read = honest;
  failed_read[2].digest -= read_term(120, [&] {
    AccountDraws draws(accounts, kSeed);
    for (int i = 0; i < 120; ++i) (void)draws.next();
    const auto& token = run.node->pin_at(2)->snapshot.world().contracts().as<concord::contracts::Token>(
        fixture.token);
    return token.raw_balance(draws.next());
  }());
  expect(true, ledger(final_state, failed_read, {120}), "model ledger, a failed read skipped");
  expect(false, ledger(final_state, failed_read, {}), "model ledger, a failed read not skipped");
  auto dropped = run.blocks;
  dropped[1].transactions.erase(dropped[1].transactions.begin());
  expect(false, check_exactly_once(fixture.transactions, dropped), "exactly-once, dropped transfer");
}

void replica_checks() {
  workload::StreamSpec spec;
  spec.kind = workload::BenchmarkKind::kMixed;
  spec.blocks = 3;
  spec.txs_per_block = 40;
  spec.seed = 9;
  const workload::Fixture fixture = workload::make_stream_fixture(spec);
  const Run run = mine(fixture);
  const std::uint64_t height = run.blocks.size();
  expect(true, check_replica(run.blocks, run.blocks, height, 0), "replica, identical chains");
  auto forged = run.blocks;
  forged[1].header.state_root.bytes[5] ^= 0x80;
  expect(false, check_replica(run.blocks, forged, height, 0), "replica, forged root");
  auto short_chain = run.blocks;
  short_chain.pop_back();
  expect(false, check_replica(run.blocks, short_chain, height, 0), "replica, missing block");
  expect(false, check_replica(run.blocks, run.blocks, height - 1, 0), "replica, block not Acked");
  expect(false, check_replica(run.blocks, run.blocks, height, 1), "replica, a Nack");
}

}  // namespace

int main() {
  mixed_checks();
  token_checks();
  replica_checks();
  std::printf("%s\n", failures == 0 ? "all checks behave" : "SELFTEST FAILED");
  return failures == 0 ? 0 : 1;
}
