#pragma once

#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "stm/lock_id.hpp"
#include "stm/lock_mode.hpp"
#include "vm/codec.hpp"
#include "vm/cow.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"
#include "vm/state_hasher.hpp"
#include "vm/types.hpp"

namespace concord::vm {

/// Hasher funnelling all supported key types through the deterministic
/// lock_key_of overloads (std::hash is implementation-defined; we use one
/// hash function everywhere so behaviour is identical across hosts).
struct StableKeyHash {
  template <typename K>
  [[nodiscard]] std::size_t operator()(const K& k) const noexcept {
    return static_cast<std::size_t>(lock_key_of(k));
  }
};

/// The paper's boosted hashtable: "Solidity mapping objects are
/// implemented as boosted hashtables, where key values are used to index
/// abstract locks" (§6).
///
/// Each transactional operation (1) charges gas, (2) declares itself to
/// the ExecContext — which acquires the per-key abstract lock when mining
/// speculatively — then (3) applies to the underlying table under a short
/// internal mutex (the abstract lock provides *logical* isolation; the
/// mutex protects the *physical* store, e.g. against a concurrent page
/// detach), and (4) logs its inverse for rollback. Between (2) and (3)
/// the operation also reports its physical access class to ConcordSan
/// (ctx.on_data_access — a no-op unless detection is on), which is what
/// lets the lockset checker catch a declaration that went missing or was
/// too weak for the data touch that followed.
///
/// The physical store is a CowPages: committed state lives in immutable
/// pages shared with every fork of this map (fork_state_from), and a
/// write detaches a private copy of just the page it touches. Distinct
/// forks need no cross-instance locking — shared pages are never mutated
/// in place.
///
/// K must be one of the lock_key_of-supported key types; V must be
/// encodable (see codec.hpp) and copyable (old values are captured by
/// inverses).
template <typename K, typename V>
class BoostedMap {
 public:
  /// `space` is the abstract-lock space, normally Contract::field_space().
  explicit BoostedMap(std::uint64_t space) : space_(space) {}

  BoostedMap(const BoostedMap&) = delete;
  BoostedMap& operator=(const BoostedMap&) = delete;

  // --- Transactional storage operations -------------------------------

  /// Reads the value bound to `key`. READ mode: lookups of distinct keys
  /// commute, and so do concurrent lookups of the same key.
  [[nodiscard]] std::optional<V> get(ExecContext& ctx, const K& key) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kRead);
    ctx.on_data_access(lock_id(key), stm::LockMode::kRead, "map.get");
    std::scoped_lock lk(mu_);
    const V* value = data_.find(key);
    return value != nullptr ? std::optional<V>(*value) : std::nullopt;
  }

  /// Reads the value bound to `key`, or `fallback` when unbound. This is
  /// Solidity's mapping semantics, where every key implicitly maps to a
  /// default-constructed value.
  [[nodiscard]] V get_or(ExecContext& ctx, const K& key, V fallback) const {
    auto v = get(ctx, key);
    return v ? std::move(*v) : std::move(fallback);
  }

  /// Reads the value bound to `key` while acquiring the lock in WRITE
  /// mode ("SELECT FOR UPDATE"). Use when the transaction will write the
  /// same key afterwards; see BoostedScalar::get_for_update for why
  /// read-then-upgrade is an anti-pattern under contention.
  [[nodiscard]] std::optional<V> get_for_update(ExecContext& ctx, const K& key) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kRead, "map.get_for_update");
    std::scoped_lock lk(mu_);
    const V* value = data_.find(key);
    return value != nullptr ? std::optional<V>(*value) : std::nullopt;
  }

  [[nodiscard]] bool contains(ExecContext& ctx, const K& key) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kRead);
    ctx.on_data_access(lock_id(key), stm::LockMode::kRead, "map.contains");
    std::scoped_lock lk(mu_);
    return data_.contains(key);
  }

  /// Binds `key` to `value`. WRITE mode: conflicts with everything on the
  /// same key. The inverse restores the previous binding (or unbinds).
  void put(ExecContext& ctx, const K& key, V value) {
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kWrite, "map.put");
    std::optional<V> old;
    {
      std::scoped_lock lk(mu_);
      const V* existing = data_.find(key);
      if (existing != nullptr) old = *existing;
      data_.insert_or_assign(key, std::move(value));
    }
    ctx.log_inverse([this, key, old = std::move(old)]() {
      std::scoped_lock lk(mu_);
      if (old) {
        data_.insert_or_assign(key, *old);
      } else {
        data_.erase(key);
      }
    });
  }

  /// Removes the binding for `key`; returns whether one existed. WRITE
  /// mode ("binding Alice's address to a vote of 42 ... does not commute
  /// when deleting Alice's vote" — paper §3).
  bool erase(ExecContext& ctx, const K& key) {
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kWrite, "map.erase");
    std::optional<V> old;
    {
      std::scoped_lock lk(mu_);
      const V* existing = data_.find(key);
      if (existing == nullptr) return false;
      old = *existing;
      data_.erase(key);
    }
    ctx.log_inverse([this, key, old = std::move(old)]() {
      std::scoped_lock lk(mu_);
      data_.insert_or_assign(key, *old);
    });
    return true;
  }

  /// Reads, transforms and writes back the value at `key` in one WRITE
  /// operation (one gas charge for load + store; one lock acquisition).
  /// `fn` receives a mutable reference to the value, inserting `fallback`
  /// first when the key is unbound. This is how struct-valued mappings
  /// update a single member (e.g. `voters[msg.sender].voted = true`).
  template <typename Fn>
  void update(ExecContext& ctx, const K& key, V fallback, Fn&& fn) {
    ctx.gas().charge(gas::kSload + gas::kSstore);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kWrite, "map.update");
    std::optional<V> old;
    {
      std::scoped_lock lk(mu_);
      bool inserted = false;
      V& slot = data_.get_or_emplace(key, std::move(fallback), &inserted);
      if (!inserted) old = slot;
      fn(slot);
    }
    ctx.log_inverse([this, key, old = std::move(old)]() {
      std::scoped_lock lk(mu_);
      if (old) {
        data_.insert_or_assign(key, *old);
      } else {
        data_.erase(key);
      }
    });
  }

  // --- Non-transactional access (genesis state, tests, inspection) ----

  /// Copy-on-write fork (World::fork): adopts `other`'s committed state
  /// as a shared-page replica in O(1). Neither side observes the other's
  /// later writes — the first mutation on either side detaches only the
  /// touched page. Both maps must have been built over the same lock
  /// space, so forked state keeps its conflict structure by construction.
  void fork_state_from(const BoostedMap& other) {
    if (space_ != other.space_) {
      throw std::logic_error("BoostedMap::fork_state_from: lock-space mismatch");
    }
    std::scoped_lock lk(mu_, other.mu_);
    data_ = other.data_.fork();
  }

  void raw_put(const K& key, V value) {
    std::scoped_lock lk(mu_);
    data_.insert_or_assign(key, std::move(value));
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

  [[nodiscard]] std::optional<V> raw_get(const K& key) const {
    std::scoped_lock lk(mu_);
    const V* value = data_.find(key);
    return value != nullptr ? std::optional<V>(*value) : std::nullopt;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lk(mu_);
    return data_.size();
  }

  /// Folds (label, size, trie root) into the state root; the trie root
  /// rehashes only the pages written since the last call.
  void hash_state(StateHasher& hasher, std::string_view label) const {
    std::scoped_lock lk(mu_);
    hasher.put_collection(label, data_.size(), data_.root());
  }

  [[nodiscard]] std::uint64_t space() const noexcept { return space_; }

 private:
  [[nodiscard]] stm::LockId lock_id(const K& key) const noexcept {
    return stm::LockId{space_, lock_key_of(key)};
  }

  std::uint64_t space_;
  mutable std::mutex mu_;
  CowPages<K, V, StableKeyHash> data_;
};

}  // namespace concord::vm
