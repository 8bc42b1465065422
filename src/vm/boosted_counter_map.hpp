#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "stm/lock_id.hpp"
#include "stm/lock_mode.hpp"
#include "vm/boosted_map.hpp"
#include "vm/codec.hpp"
#include "vm/cow.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"
#include "vm/state_hasher.hpp"
#include "vm/types.hpp"

namespace concord::vm {

/// A boosted map from keys to integer totals where *absent ≡ 0*.
///
/// This is the abstract type behind `proposals[p].voteCount += weight`,
/// `pendingReturns[bidder] += bid` and account balances. Formalizing it as
/// "a total function from keys to integers, zero by default" is what makes
/// `add` genuinely commutative in the boosting sense: two adds to the same
/// key map to a shared INCREMENT-mode abstract lock and run concurrently,
/// and the inverse of add(k, d) is add(k, -d) — which commutes with other
/// in-flight adds, so aborts are sound even under lock sharing.
///
/// The zero-normalization invariant (no entry ever stores 0) makes the
/// physical representation a function of the abstract value, so state
/// roots are identical no matter which interleaving of adds, aborts and
/// retries produced them.
template <typename K>
class BoostedCounterMap {
 public:
  using Value = std::int64_t;

  explicit BoostedCounterMap(std::uint64_t space) : space_(space) {}

  BoostedCounterMap(const BoostedCounterMap&) = delete;
  BoostedCounterMap& operator=(const BoostedCounterMap&) = delete;

  // --- Transactional storage operations -------------------------------

  /// Reads the total for `key` (0 when no entry). READ mode — commutes
  /// with other reads, conflicts with add and set.
  [[nodiscard]] Value get(ExecContext& ctx, const K& key) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kRead);
    ctx.on_data_access(lock_id(key), stm::LockMode::kRead, "counter.get");
    std::scoped_lock lk(mu_);
    const Value* value = data_.find(key);
    return value != nullptr ? *value : 0;
  }

  /// Reads the total for `key` while acquiring the lock in WRITE mode
  /// ("SELECT FOR UPDATE"); for read-then-overwrite sequences such as
  /// withdraw()'s read-balance-then-zero. See BoostedScalar::get_for_update.
  [[nodiscard]] Value get_for_update(ExecContext& ctx, const K& key) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kRead, "counter.get_for_update");
    std::scoped_lock lk(mu_);
    const Value* value = data_.find(key);
    return value != nullptr ? *value : 0;
  }

  /// Adds `delta` to the total for `key`. INCREMENT mode — commutes with
  /// concurrent adds on the same key, so a block full of votes for the
  /// same proposal still mines in parallel.
  void add(ExecContext& ctx, const K& key, Value delta) {
    ctx.gas().charge(gas::kSinc);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kIncrement);
    ctx.on_data_access(lock_id(key), stm::LockMode::kIncrement, "counter.add");
    raw_add(key, delta);
    ctx.log_inverse([this, key, delta]() { raw_add(key, -delta); });
  }

  /// Overwrites the total for `key`. WRITE mode — conflicts with
  /// everything; used for non-commutative updates such as zeroing a
  /// pending return on withdrawal.
  void set(ExecContext& ctx, const K& key, Value value) {
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kWrite, "counter.set");
    Value old = 0;
    {
      std::scoped_lock lk(mu_);
      const Value* existing = data_.find(key);
      old = existing != nullptr ? *existing : 0;
      store_normalized(key, value);
    }
    ctx.log_inverse([this, key, old]() {
      std::scoped_lock lk(mu_);
      store_normalized(key, old);
    });
  }

  // --- Non-transactional access (genesis state, tests, inspection) ----

  /// Copy-on-write fork (World::fork): adopts `other`'s committed state
  /// as a shared-page replica in O(1); first mutation on either side
  /// detaches only the touched page. The zero-normalization invariant
  /// travels with the shared pages, so the fork's state root matches by
  /// construction.
  void fork_state_from(const BoostedCounterMap& other) {
    if (space_ != other.space_) {
      throw std::logic_error("BoostedCounterMap::fork_state_from: lock-space mismatch");
    }
    std::scoped_lock lk(mu_, other.mu_);
    data_ = other.data_.fork();
  }

  void raw_set(const K& key, Value value) {
    std::scoped_lock lk(mu_);
    store_normalized(key, value);
  }

  /// Routes future page allocations through `arena` (Contract::bind_arena
  /// forwards here for each field). See CowPages::set_arena.
  void set_arena(ArenaHandle arena) {
    std::scoped_lock lk(mu_);
    data_.set_arena(std::move(arena));
  }

  /// Pre-sizes the page directory for `expected_entries`, so seeding a
  /// large genesis state skips the doubling/rehash walk.
  void raw_reserve(std::size_t expected_entries) {
    std::scoped_lock lk(mu_);
    data_.reserve(expected_entries);
  }

  [[nodiscard]] Value raw_get(const K& key) const {
    std::scoped_lock lk(mu_);
    const Value* value = data_.find(key);
    return value != nullptr ? *value : 0;
  }

  /// Number of non-zero entries.
  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lk(mu_);
    return data_.size();
  }

  /// Sum over all entries (diagnostic; e.g. total supply conservation).
  [[nodiscard]] Value raw_total() const {
    std::scoped_lock lk(mu_);
    Value total = 0;
    data_.for_each([&total](const K&, Value value) { total += value; });
    return total;
  }

  void hash_state(StateHasher& hasher, std::string_view label) const {
    std::scoped_lock lk(mu_);
    hasher.put_collection(label, data_.size(), data_.root());
  }

  [[nodiscard]] std::uint64_t space() const noexcept { return space_; }

 private:
  [[nodiscard]] stm::LockId lock_id(const K& key) const noexcept {
    return stm::LockId{space_, lock_key_of(key)};
  }

  /// Caller may or may not hold mu_ — this variant takes it.
  void raw_add(const K& key, Value delta) {
    std::scoped_lock lk(mu_);
    const Value* existing = data_.find(key);
    const Value current = existing != nullptr ? *existing : 0;
    store_normalized(key, current + delta);
  }

  /// Caller holds mu_. Maintains the no-zero-entries invariant.
  void store_normalized(const K& key, Value value) {
    if (value == 0) {
      data_.erase(key);
    } else {
      data_.insert_or_assign(key, value);
    }
  }

  std::uint64_t space_;
  mutable std::mutex mu_;
  CowPages<K, Value, StableKeyHash> data_;
};

}  // namespace concord::vm
