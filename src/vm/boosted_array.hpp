#pragma once

#include <concepts>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "stm/lock_id.hpp"
#include "stm/lock_mode.hpp"
#include "vm/codec.hpp"
#include "vm/cow.hpp"
#include "vm/errors.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"
#include "vm/state_hasher.hpp"

namespace concord::vm {

/// A boosted dynamically-sized array (Solidity `T[]`), with per-index
/// abstract locks plus one dedicated lock for the length.
///
/// Lock discipline:
///  - element reads/writes lock `(space, index)` — operations on distinct
///    indices commute, concurrent reads of one index commute;
///  - `length()` READ-locks the length lock: it commutes with element
///    updates and with other length reads, but not with push/pop;
///  - `push_back`/`pop_back` WRITE-lock the length lock *and* the slot
///    they create/destroy.
///
/// Out-of-range element access reverts, mirroring Solidity ("If proposal
/// is out of the range of the array, this will throw automatically").
/// The bounds check reads the length — so it takes the length READ lock,
/// which is exactly what makes "index i exists" a stable fact for the
/// rest of the transaction.
template <typename T>
class BoostedArray {
 public:
  explicit BoostedArray(std::uint64_t space) : space_(space) {}

  BoostedArray(const BoostedArray&) = delete;
  BoostedArray& operator=(const BoostedArray&) = delete;

  // --- Transactional storage operations -------------------------------

  [[nodiscard]] std::size_t length(ExecContext& ctx) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(length_lock(), stm::LockMode::kRead);
    ctx.on_data_access(length_lock(), stm::LockMode::kRead, "array.length");
    std::scoped_lock lk(mu_);
    return data_.size();
  }

  [[nodiscard]] T get(ExecContext& ctx, std::uint64_t index) const {
    check_bounds(ctx, index);
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(element_lock(index), stm::LockMode::kRead);
    ctx.on_data_access(element_lock(index), stm::LockMode::kRead, "array.get");
    std::scoped_lock lk(mu_);
    return data_.at(index);
  }

  void set(ExecContext& ctx, std::uint64_t index, T value) {
    check_bounds(ctx, index);
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(element_lock(index), stm::LockMode::kWrite);
    ctx.on_data_access(element_lock(index), stm::LockMode::kWrite, "array.set");
    T old;
    {
      std::scoped_lock lk(mu_);
      old = data_.at(index);
      data_.set(index, std::move(value));
    }
    ctx.log_inverse([this, index, old = std::move(old)]() {
      std::scoped_lock lk(mu_);
      if (index < data_.size()) data_.set(index, old);
    });
  }

  /// Commutative add on an integral element. INCREMENT mode: a block of
  /// `voteCount += w` on the same index mines in parallel.
  void add(ExecContext& ctx, std::uint64_t index, T delta)
    requires std::integral<T>
  {
    check_bounds(ctx, index);
    ctx.gas().charge(gas::kSinc);
    ctx.on_storage_op(element_lock(index), stm::LockMode::kIncrement);
    ctx.on_data_access(element_lock(index), stm::LockMode::kIncrement, "array.add");
    {
      std::scoped_lock lk(mu_);
      data_.mutate(index, [delta](T& value) { value += delta; });
    }
    ctx.log_inverse([this, index, delta]() {
      std::scoped_lock lk(mu_);
      if (index < data_.size()) data_.mutate(index, [delta](T& value) { value -= delta; });
    });
  }

  /// Appends a value; returns its index.
  std::uint64_t push_back(ExecContext& ctx, T value) {
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(length_lock(), stm::LockMode::kWrite);
    ctx.on_data_access(length_lock(), stm::LockMode::kWrite, "array.push_back");
    std::uint64_t index = 0;
    {
      std::scoped_lock lk(mu_);
      index = data_.size();
    }
    ctx.on_storage_op(element_lock(index), stm::LockMode::kWrite);
    ctx.on_data_access(element_lock(index), stm::LockMode::kWrite, "array.push_back");
    {
      std::scoped_lock lk(mu_);
      data_.push_back(std::move(value));
    }
    ctx.log_inverse([this]() {
      std::scoped_lock lk(mu_);
      data_.pop_back();
    });
    return index;
  }

  /// Removes the last element; reverts when empty.
  void pop_back(ExecContext& ctx) {
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(length_lock(), stm::LockMode::kWrite);
    ctx.on_data_access(length_lock(), stm::LockMode::kWrite, "array.pop_back");
    std::uint64_t index = 0;
    {
      std::scoped_lock lk(mu_);
      if (data_.empty()) throw RevertError("pop_back on empty array");
      index = data_.size() - 1;
    }
    ctx.on_storage_op(element_lock(index), stm::LockMode::kWrite);
    ctx.on_data_access(element_lock(index), stm::LockMode::kWrite, "array.pop_back");
    T old;
    {
      std::scoped_lock lk(mu_);
      old = data_.back();
      data_.pop_back();
    }
    ctx.log_inverse([this, old = std::move(old)]() {
      std::scoped_lock lk(mu_);
      data_.push_back(old);
    });
  }

  // --- Non-transactional access ----------------------------------------

  /// Copy-on-write fork (World::fork): shares `other`'s element chunks in
  /// O(1); the first set/push/pop on either side detaches only the
  /// touched chunk.
  void fork_state_from(const BoostedArray& other) {
    if (space_ != other.space_) {
      throw std::logic_error("BoostedArray::fork_state_from: lock-space mismatch");
    }
    std::scoped_lock lk(mu_, other.mu_);
    data_ = other.data_.fork();
  }

  void raw_push_back(T value) {
    std::scoped_lock lk(mu_);
    data_.push_back(std::move(value));
  }

  /// Routes future chunk allocations through `arena`. See
  /// CowChunks::set_arena.
  void set_arena(ArenaHandle arena) {
    std::scoped_lock lk(mu_);
    data_.set_arena(std::move(arena));
  }

  [[nodiscard]] T raw_get(std::uint64_t index) const {
    std::scoped_lock lk(mu_);
    if (index >= data_.size()) throw std::out_of_range("BoostedArray::raw_get");
    return data_.at(index);
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lk(mu_);
    return data_.size();
  }

  void hash_state(StateHasher& hasher, std::string_view label) const {
    std::scoped_lock lk(mu_);
    hasher.put_collection(label, data_.size(), data_.root());
  }

  [[nodiscard]] std::uint64_t space() const noexcept { return space_; }

 private:
  [[nodiscard]] stm::LockId element_lock(std::uint64_t index) const noexcept {
    return stm::LockId{space_, stm::mix64(index)};
  }
  /// Distinct from every element lock: key = ~0 is never a mix64 image we
  /// rely on; the length lock gets its own derived space instead.
  [[nodiscard]] stm::LockId length_lock() const noexcept {
    return stm::LockId{stm::mix64(space_ ^ 0x9e3779b97f4a7c15ULL), 0};
  }

  void check_bounds(ExecContext& ctx, std::uint64_t index) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(length_lock(), stm::LockMode::kRead);
    ctx.on_data_access(length_lock(), stm::LockMode::kRead, "array.bounds");
    std::scoped_lock lk(mu_);
    if (index >= data_.size()) throw RevertError("array index out of range");
  }

  std::uint64_t space_;
  mutable std::mutex mu_;
  CowChunks<T> data_;
};

}  // namespace concord::vm
