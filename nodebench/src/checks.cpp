// The benchmark's correctness checks. They read only what a user of the
// node can see (the chain, published state, the leader's progress) and
// recompute the expected results with their own code: a serial
// re-execution on a fresh genesis fork, a model ledger, byte comparison.

#include <map>
#include <string>

#include "bench.hpp"
#include "contracts/ballot.hpp"
#include "contracts/token.hpp"
#include "core/execution.hpp"
#include "util/bytes.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"

namespace nodebench {

namespace {

std::string at_block(std::uint64_t number, const std::string& what) {
  return "block " + std::to_string(number) + ": " + what;
}

std::vector<std::uint8_t> encoded(const chain::Block& block) {
  concord::util::ByteWriter w;
  block.encode(w);
  return std::move(w).take();
}

/// Model ledger for Token transfers: balances over the genesis state,
/// advanced one block at a time in the published serial order.
class TokenModel {
 public:
  TokenModel(const vm::World& genesis, const vm::Address& token)
      : genesis_(genesis), token_(token) {}
  /// Applies the block's transfers; returns an error when a published
  /// status disagrees with the model's outcome.
  [[nodiscard]] std::string apply(const chain::Block& block);
  [[nodiscard]] vm::Amount balance(const vm::Address& account) const;
  [[nodiscard]] const std::map<vm::Address, vm::Amount>& touched() const { return balances_; }

 private:
  const vm::World& genesis_;
  vm::Address token_;
  std::map<vm::Address, vm::Amount> balances_;  ///< Current balance of each touched account.
};

}  // namespace

std::string check_exactly_once(const std::vector<chain::Transaction>& submitted,
                               const std::vector<chain::Block>& blocks) {
  std::map<concord::util::Hash256, std::int64_t> expected;
  for (const chain::Transaction& tx : submitted) ++expected[tx.hash()];
  for (const chain::Block& block : blocks) {
    for (const chain::Transaction& tx : block.transactions) {
      const auto it = expected.find(tx.hash());
      if (it == expected.end()) {
        return at_block(block.header.number, "transaction " + tx.hash().to_hex().substr(0, 16) +
                                                 " was never submitted");
      }
      if (--it->second < 0) {
        return at_block(block.header.number,
                        "transaction " + tx.hash().to_hex().substr(0, 16) + " is on the chain " +
                            "more often than it was submitted");
      }
    }
  }
  for (const auto& [hash, left] : expected) {
    if (left != 0) return "transaction " + hash.to_hex().substr(0, 16) + " never reached the chain";
  }
  return {};
}

std::string check_serial_replay(const vm::World& genesis,
                                const std::vector<chain::Block>& blocks) {
  auto world = genesis.fork();
  concord::util::Hash256 parent_hash;
  bool have_parent = false;
  std::uint64_t expected_number = blocks.empty() ? 0 : blocks.front().header.number;
  for (const chain::Block& block : blocks) {
    const chain::BlockHeader& h = block.header;
    if (h.number != expected_number) return at_block(h.number, "out of sequence");
    ++expected_number;
    if (have_parent && h.parent_hash != parent_hash) return at_block(h.number, "broken parent link");
    parent_hash = block.hash();
    have_parent = true;

    const std::size_t n = block.transactions.size();
    if (block.statuses.size() != n || block.schedule.serial_order.size() != n) {
      return at_block(h.number, "status or serial-order length differs from the body");
    }
    std::vector<bool> seen(n, false);
    for (const std::uint32_t index : block.schedule.serial_order) {
      if (index >= n || seen[index]) return at_block(h.number, "serial order is not a permutation");
      seen[index] = true;
      const chain::Transaction& tx = block.transactions[index];
      vm::ExecContext ctx = vm::ExecContext::serial(*world, vm::GasMeter(tx.gas_limit, 0.0));
      const vm::TxStatus status = concord::core::execute_transaction(*world, tx, ctx);
      if (status != block.statuses[index]) {
        return at_block(h.number, "transaction " + std::to_string(index) + " replayed as " +
                                      std::string(vm::to_string(status)) + ", published " +
                                      std::string(vm::to_string(block.statuses[index])));
      }
    }
    if (world->state_root() != h.state_root) return at_block(h.number, "state root not reproduced");
    if (block.compute_tx_root() != h.tx_root) return at_block(h.number, "tx root not reproduced");
    if (block.compute_status_root() != h.status_root) {
      return at_block(h.number, "status root not reproduced");
    }
    if (block.schedule.hash() != h.schedule_hash) {
      return at_block(h.number, "schedule hash not reproduced");
    }
  }
  return {};
}

std::string check_ballot_total(const vm::World& genesis, const vm::World& final_state,
                               const vm::Address& ballot,
                               const std::vector<chain::Block>& blocks) {
  using concord::contracts::Ballot;
  const auto& before = genesis.contracts().as<Ballot>(ballot);
  const auto& after = final_state.contracts().as<Ballot>(ballot);
  std::int64_t expected = 0;
  for (const chain::Block& block : blocks) {
    for (std::size_t i = 0; i < block.transactions.size(); ++i) {
      const chain::Transaction& tx = block.transactions[i];
      if (tx.contract != ballot || tx.selector != Ballot::kVote) continue;
      if (block.statuses[i] != vm::TxStatus::kSuccess) continue;
      expected += before.raw_voter(tx.sender).weight;
    }
  }
  std::int64_t total = 0;
  for (std::uint64_t p = 0; p < after.proposal_count(); ++p) total += after.raw_vote_count(p);
  for (std::uint64_t p = 0; p < before.proposal_count(); ++p) expected += before.raw_vote_count(p);
  if (total != expected) {
    return "ballot holds " + std::to_string(total) + " votes, successful votes weigh " +
           std::to_string(expected);
  }
  return {};
}

vm::Amount TokenModel::balance(const vm::Address& account) const {
  const auto it = balances_.find(account);
  if (it != balances_.end()) return it->second;
  return genesis_.contracts().as<concord::contracts::Token>(token_).raw_balance(account);
}

std::string TokenModel::apply(const chain::Block& block) {
  using concord::contracts::Token;
  for (const std::uint32_t index : block.schedule.serial_order) {
    const chain::Transaction& tx = block.transactions.at(index);
    if (tx.contract != token_ || tx.selector != Token::kTransfer) {
      return at_block(block.header.number, "unexpected non-transfer transaction");
    }
    concord::util::ByteReader args(tx.args);
    vm::Address to;
    const auto raw = args.get_raw(to.bytes.size());
    std::copy(raw.begin(), raw.end(), to.bytes.begin());
    const auto amount = static_cast<vm::Amount>(args.get_varint());
    const vm::Amount available = balance(tx.sender);
    const bool ok = amount > 0 && available >= amount;
    const vm::TxStatus expected = ok ? vm::TxStatus::kSuccess : vm::TxStatus::kReverted;
    if (block.statuses.at(index) != expected) {
      return at_block(block.header.number, "transfer " + std::to_string(index) +
                                               " status differs from the model ledger");
    }
    if (!ok) continue;
    balances_[tx.sender] = available - amount;
    balances_[to] = balance(to) + amount;
  }
  return {};
}

AccountDraws::AccountDraws(const std::vector<vm::Address>& accounts, std::uint64_t seed)
    : accounts_(accounts), state_(seed ^ 0x7EADE2ull) {}

const vm::Address& AccountDraws::next() {
  // splitmix64: cheap, and identical wherever the draws are replayed.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return accounts_[z % accounts_.size()];
}

std::string check_token_ledger(const vm::World& genesis, const vm::World& final_state,
                               const vm::Address& token,
                               const std::vector<chain::Block>& blocks,
                               const std::vector<vm::Address>& accounts, std::uint64_t seed,
                               const std::vector<ReadDigest>& reads,
                               const std::vector<std::uint64_t>& failed_reads) {
  using concord::contracts::Token;
  TokenModel model(genesis, token);
  AccountDraws draws(accounts, seed);
  std::uint64_t ordinal = 0;
  std::size_t next_failed = 0;
  std::size_t next = 0;
  const auto check_reads_at = [&](std::uint64_t number) -> std::string {
    for (; next < reads.size() && reads[next].block == number; ++next) {
      std::uint64_t expected = 0;
      for (std::uint64_t r = 0; r < reads[next].reads; ++r, ++ordinal) {
        const vm::Address& account = draws.next();
        if (next_failed < failed_reads.size() && failed_reads[next_failed] == ordinal) {
          ++next_failed;
          continue;
        }
        expected += read_term(ordinal, model.balance(account));
      }
      if (expected != reads[next].digest) {
        return at_block(number, "a balance the reader saw differs from the model ledger");
      }
    }
    return {};
  };
  const std::uint64_t first = blocks.empty() ? 1 : blocks.front().header.number;
  if (auto error = check_reads_at(first - 1); !error.empty()) return error;
  for (const chain::Block& block : blocks) {
    if (auto error = model.apply(block); !error.empty()) return error;
    if (auto error = check_reads_at(block.header.number); !error.empty()) return error;
  }
  if (next != reads.size()) return "reads out of block order or beyond the chain's head";

  const auto& genesis_token = genesis.contracts().as<Token>(token);
  const auto& final_token = final_state.contracts().as<Token>(token);
  if (final_token.raw_total_supply() != genesis_token.raw_total_supply()) {
    return "total supply " + std::to_string(final_token.raw_total_supply()) +
           " differs from genesis supply " + std::to_string(genesis_token.raw_total_supply());
  }
  for (const auto& [account, value] : model.touched()) {
    if (final_token.raw_balance(account) != value) {
      return "final balance of a touched account differs from the model ledger";
    }
  }
  return {};
}

std::string check_replica(const std::vector<chain::Block>& leader,
                          const std::vector<chain::Block>& follower, std::uint64_t acked,
                          std::uint64_t nacks) {
  if (follower.size() != leader.size()) {
    return "follower holds " + std::to_string(follower.size()) + " blocks, leader " +
           std::to_string(leader.size());
  }
  for (std::size_t i = 0; i < leader.size(); ++i) {
    if (encoded(leader[i]) != encoded(follower[i])) {
      return at_block(leader[i].header.number, "follower's bytes differ from the leader's");
    }
  }
  if (acked != leader.size()) {
    return "leader saw Acks up to block " + std::to_string(acked) + " of " +
           std::to_string(leader.size());
  }
  if (nacks != 0) return std::to_string(nacks) + " Nacks";
  return {};
}

}  // namespace nodebench
