#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "stm/conflict.hpp"
#include "stm/runtime.hpp"
#include "vm/boosted_counter_map.hpp"
#include "vm/boosted_map.hpp"
#include "vm/boosted_scalar.hpp"
#include "vm/codec.hpp"
#include "vm/cow.hpp"
#include "vm/errors.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"
#include "vm/trace.hpp"
#include "vm/world.hpp"

namespace concord::vm {
namespace {

/// Gas meter that never burns CPU (pure accounting) — unit tests don't
/// need the calibrated workload.
GasMeter test_meter(std::uint64_t limit = gas::kDefaultTxGasLimit) {
  return GasMeter(limit, /*nanos_per_gas=*/0.0);
}

struct Env {
  World world;
  ExecContext serial_ctx() { return ExecContext::serial(world, test_meter()); }
};

// ------------------------------------------------------------- Types ---

TEST(Address, FromU64AndComparisons) {
  const Address a = Address::from_u64(1);
  const Address b = Address::from_u64(2);
  const Address a2 = Address::from_u64(1);
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_TRUE(kZeroAddress.is_zero());
  EXPECT_FALSE(a.is_zero());
}

TEST(Address, SaltDistinguishes) {
  EXPECT_NE(Address::from_u64(1, 0x01), Address::from_u64(1, 0x02));
}

TEST(Address, StableHashIsDeterministic) {
  EXPECT_EQ(Address::from_u64(77).stable_hash(), Address::from_u64(77).stable_hash());
  EXPECT_NE(Address::from_u64(77).stable_hash(), Address::from_u64(78).stable_hash());
}

TEST(Address, HexRendering) {
  EXPECT_EQ(kZeroAddress.to_hex(), std::string(40, '0'));
}

// --------------------------------------------------------------- Gas ---

TEST(Gas, ChargesAccumulate) {
  GasMeter meter = test_meter(1000);
  meter.charge(300);
  meter.charge(200);
  EXPECT_EQ(meter.used(), 500u);
  EXPECT_EQ(meter.remaining(), 500u);
}

TEST(Gas, ThrowsWhenExhausted) {
  GasMeter meter = test_meter(100);
  EXPECT_THROW(meter.charge(101), OutOfGas);
  EXPECT_EQ(meter.remaining(), 0u);  // Failed charge still consumed.
}

TEST(Gas, ExactLimitIsFine) {
  GasMeter meter = test_meter(100);
  meter.charge(100);
  EXPECT_EQ(meter.remaining(), 0u);
}

// -------------------------------------------------------- BoostedMap ---

TEST(BoostedMap, SerialPutGetErase) {
  Env env;
  BoostedMap<std::uint64_t, std::string> map(1);
  auto ctx = env.serial_ctx();
  EXPECT_EQ(map.get(ctx, 1), std::nullopt);
  map.put(ctx, 1, "one");
  EXPECT_EQ(map.get(ctx, 1), "one");
  EXPECT_TRUE(map.contains(ctx, 1));
  EXPECT_TRUE(map.erase(ctx, 1));
  EXPECT_FALSE(map.contains(ctx, 1));
  EXPECT_FALSE(map.erase(ctx, 1));
}

TEST(BoostedMap, GetOrDefault) {
  Env env;
  BoostedMap<std::uint64_t, std::int64_t> map(1);
  auto ctx = env.serial_ctx();
  EXPECT_EQ(map.get_or(ctx, 5, -1), -1);
  map.put(ctx, 5, 99);
  EXPECT_EQ(map.get_or(ctx, 5, -1), 99);
}

TEST(BoostedMap, RevertRestoresPriorValues) {
  Env env;
  BoostedMap<std::uint64_t, std::string> map(1);
  map.raw_put(1, "original");
  auto ctx = env.serial_ctx();
  map.put(ctx, 1, "changed");
  map.put(ctx, 2, "fresh");
  map.erase(ctx, 1);
  ctx.rollback_local();
  EXPECT_EQ(map.raw_get(1), "original");
  EXPECT_EQ(map.raw_get(2), std::nullopt);
}

TEST(BoostedMap, UpdateInsertsFallbackThenMutates) {
  Env env;
  BoostedMap<std::uint64_t, std::int64_t> map(1);
  auto ctx = env.serial_ctx();
  map.update(ctx, 7, 100, [](std::int64_t& v) { v += 1; });
  EXPECT_EQ(map.raw_get(7), 101);
  map.update(ctx, 7, 100, [](std::int64_t& v) { v += 1; });
  EXPECT_EQ(map.raw_get(7), 102);
  ctx.rollback_local();
  EXPECT_EQ(map.raw_get(7), std::nullopt);
}

TEST(BoostedMap, ChargesGasPerOp) {
  Env env;
  BoostedMap<std::uint64_t, std::int64_t> map(1);
  auto ctx = env.serial_ctx();
  const std::uint64_t before = ctx.gas().used();
  (void)map.get(ctx, 1);
  EXPECT_EQ(ctx.gas().used(), before + gas::kSload);
  map.put(ctx, 1, 2);
  EXPECT_EQ(ctx.gas().used(), before + gas::kSload + gas::kSstore);
}

TEST(BoostedMap, SpeculativeOpsAcquireLocks) {
  Env env;
  BoostedMap<std::uint64_t, std::int64_t> map(1);
  stm::BoostingRuntime rt;
  stm::SpeculativeAction action(rt, 0, rt.next_birth());
  ExecContext ctx = ExecContext::speculative(env.world, rt, action, test_meter());
  map.put(ctx, 42, 7);
  EXPECT_EQ(action.held_lock_count(), 1u);
  EXPECT_EQ(action.undo_size(), 1u);
  action.abort();
  EXPECT_EQ(map.raw_get(42), std::nullopt);  // Abort undid the put.
}

TEST(BoostedMap, ReplayOpsRecordTrace) {
  Env env;
  BoostedMap<std::uint64_t, std::int64_t> map(1);
  TraceRecorder trace;
  ExecContext ctx = ExecContext::replay(env.world, trace, test_meter());
  map.put(ctx, 42, 7);
  (void)map.get(ctx, 43);
  EXPECT_EQ(trace.size(), 2u);
  // canonical() sorts by (space, hashed key); find each op by its lock id.
  for (const auto& [lock, mode] : trace.canonical()) {
    if (lock.key == lock_key_of(std::uint64_t{42})) {
      EXPECT_EQ(mode, stm::LockMode::kWrite);
    } else {
      EXPECT_EQ(lock.key, lock_key_of(std::uint64_t{43}));
      EXPECT_EQ(mode, stm::LockMode::kRead);
    }
  }
}

TEST(BoostedMap, HashStateIndependentOfInsertionOrder) {
  BoostedMap<std::uint64_t, std::int64_t> a(1);
  BoostedMap<std::uint64_t, std::int64_t> b(1);
  a.raw_put(1, 10);
  a.raw_put(2, 20);
  b.raw_put(2, 20);
  b.raw_put(1, 10);
  StateHasher ha;
  StateHasher hb;
  a.hash_state(ha, "m");
  b.hash_state(hb, "m");
  EXPECT_EQ(ha.finish(), hb.finish());
}

TEST(BoostedMap, HashStateSensitiveToContent) {
  BoostedMap<std::uint64_t, std::int64_t> a(1);
  BoostedMap<std::uint64_t, std::int64_t> b(1);
  a.raw_put(1, 10);
  b.raw_put(1, 11);
  StateHasher ha;
  StateHasher hb;
  a.hash_state(ha, "m");
  b.hash_state(hb, "m");
  EXPECT_NE(ha.finish(), hb.finish());
}

// ------------------------------------------------- BoostedCounterMap ---

TEST(CounterMap, AbsentIsZero) {
  Env env;
  BoostedCounterMap<std::uint64_t> counters(2);
  auto ctx = env.serial_ctx();
  EXPECT_EQ(counters.get(ctx, 1), 0);
}

TEST(CounterMap, AddAccumulates) {
  Env env;
  BoostedCounterMap<std::uint64_t> counters(2);
  auto ctx = env.serial_ctx();
  counters.add(ctx, 1, 5);
  counters.add(ctx, 1, 7);
  EXPECT_EQ(counters.get(ctx, 1), 12);
}

TEST(CounterMap, ZeroEntriesAreErased) {
  Env env;
  BoostedCounterMap<std::uint64_t> counters(2);
  auto ctx = env.serial_ctx();
  counters.add(ctx, 1, 5);
  counters.add(ctx, 1, -5);
  EXPECT_EQ(counters.size(), 0u);  // Normalized: no zero entries.
  counters.set(ctx, 2, 0);
  EXPECT_EQ(counters.size(), 0u);
}

TEST(CounterMap, ZeroNormalizationKeepsHashCanonical) {
  BoostedCounterMap<std::uint64_t> a(2);
  BoostedCounterMap<std::uint64_t> b(2);
  {
    World w;
    auto ctx = ExecContext::serial(w, test_meter());
    a.add(ctx, 1, 5);
    a.add(ctx, 1, -5);  // Returns to zero → entry vanishes.
  }
  StateHasher ha;
  StateHasher hb;
  a.hash_state(ha, "c");
  b.hash_state(hb, "c");
  EXPECT_EQ(ha.finish(), hb.finish());
}

TEST(CounterMap, AddInverseIsNegativeAdd) {
  Env env;
  BoostedCounterMap<std::uint64_t> counters(2);
  counters.raw_set(1, 100);
  auto ctx = env.serial_ctx();
  counters.add(ctx, 1, 11);
  ctx.rollback_local();
  EXPECT_EQ(counters.raw_get(1), 100);
}

TEST(CounterMap, SetInverseRestoresOldValue) {
  Env env;
  BoostedCounterMap<std::uint64_t> counters(2);
  counters.raw_set(1, 100);
  auto ctx = env.serial_ctx();
  counters.set(ctx, 1, 7);
  counters.set(ctx, 3, 9);
  ctx.rollback_local();
  EXPECT_EQ(counters.raw_get(1), 100);
  EXPECT_EQ(counters.raw_get(3), 0);
  EXPECT_EQ(counters.size(), 1u);
}

TEST(CounterMap, ConcurrentAddsCommute) {
  // Two speculative actions add to the same key concurrently (INC mode
  // shares the lock); one aborts; the survivor's effect must be intact.
  World world;
  BoostedCounterMap<std::uint64_t> counters(2);
  stm::BoostingRuntime rt;

  stm::SpeculativeAction a(rt, 0, rt.next_birth());
  stm::SpeculativeAction b(rt, 1, rt.next_birth());
  ExecContext ctx_a = ExecContext::speculative(world, rt, a, test_meter());
  ExecContext ctx_b = ExecContext::speculative(world, rt, b, test_meter());

  counters.add(ctx_a, 1, 5);
  counters.add(ctx_b, 1, 3);  // Shares the INC lock with a.
  EXPECT_EQ(counters.raw_get(1), 8);
  a.abort();  // Inverse add(-5) must not clobber b's +3.
  EXPECT_EQ(counters.raw_get(1), 3);
  (void)b.commit();
  EXPECT_EQ(counters.raw_get(1), 3);
}

TEST(CounterMap, RawTotal) {
  BoostedCounterMap<std::uint64_t> counters(2);
  counters.raw_set(1, 5);
  counters.raw_set(2, -3);
  EXPECT_EQ(counters.raw_total(), 2);
}

// ----------------------------------------------------- BoostedScalar ---

TEST(Scalar, GetSet) {
  Env env;
  BoostedScalar<std::int64_t> scalar(3, 42);
  auto ctx = env.serial_ctx();
  EXPECT_EQ(scalar.get(ctx), 42);
  scalar.set(ctx, 7);
  EXPECT_EQ(scalar.get(ctx), 7);
}

TEST(Scalar, RevertRestores) {
  Env env;
  BoostedScalar<std::int64_t> scalar(3, 42);
  auto ctx = env.serial_ctx();
  scalar.set(ctx, 1);
  scalar.add(ctx, 10);
  ctx.rollback_local();
  EXPECT_EQ(scalar.raw_get(), 42);
}

TEST(Scalar, AddressScalar) {
  Env env;
  BoostedScalar<Address> scalar(3, kZeroAddress);
  auto ctx = env.serial_ctx();
  scalar.set(ctx, Address::from_u64(9));
  EXPECT_EQ(scalar.get(ctx), Address::from_u64(9));
}

TEST(Scalar, SpeculativeConflictOnSameScalar) {
  World world;
  BoostedScalar<std::int64_t> scalar(3, 0);
  stm::BoostingRuntime rt;
  stm::SpeculativeAction a(rt, 0, rt.next_birth());
  ExecContext ctx_a = ExecContext::speculative(world, rt, a, test_meter());
  scalar.set(ctx_a, 1);
  // A second action can't write the same scalar until `a` finishes; we
  // verify the holder bookkeeping rather than blocking the test thread.
  EXPECT_EQ(a.held_lock_count(), 1u);
  (void)a.commit();
}

// ------------------------------------------------------------ World ----

TEST(World, TransferMovesBalance) {
  Env env;
  env.world.balances().raw_set(Address::from_u64(1), 100);
  auto ctx = env.serial_ctx();
  env.world.transfer(ctx, Address::from_u64(1), Address::from_u64(2), 30);
  EXPECT_EQ(env.world.balances().raw_get(Address::from_u64(1)), 70);
  EXPECT_EQ(env.world.balances().raw_get(Address::from_u64(2)), 30);
}

TEST(World, StateRootChangesWithState) {
  World w;
  const auto root0 = w.state_root();
  w.balances().raw_set(Address::from_u64(1), 5);
  const auto root1 = w.state_root();
  EXPECT_NE(root0, root1);
  w.balances().raw_set(Address::from_u64(1), 0);  // Back to nothing.
  EXPECT_EQ(w.state_root(), root0);
}

// -------------------------------------------------------- State trie ---

using Pages = CowPages<std::uint64_t, std::int64_t, StableKeyHash>;
using Chunks = CowChunks<std::int64_t>;

std::int64_t value_of(std::uint64_t key) { return static_cast<std::int64_t>(key * 7 + 1); }

/// The root of `pages`' current entries, rebuilt in a fresh store that has
/// never cached a digest (and grows its directory its own way).
util::Hash256 fresh_root(const Pages& pages) {
  Pages fresh;
  pages.for_each([&fresh](std::uint64_t k, std::int64_t v) { fresh.insert_or_assign(k, v); });
  return fresh.root();
}

TEST(StateTrie, EmptyRootIsZeroAndContentMovesIt) {
  Pages pages;
  EXPECT_TRUE(pages.root().is_zero());
  pages.insert_or_assign(1, 10);
  const util::Hash256 one = pages.root();
  EXPECT_FALSE(one.is_zero());
  pages.insert_or_assign(1, 11);
  EXPECT_NE(pages.root(), one);
  pages.insert_or_assign(1, 10);
  EXPECT_EQ(pages.root(), one);
  EXPECT_TRUE(pages.erase(1));
  EXPECT_TRUE(pages.root().is_zero());
}

TEST(StateTrie, SameContentSameRootWhateverTheDirectoryHistory) {
  constexpr std::uint64_t kKeys = 3000;
  constexpr std::uint64_t kExtra = 1'000'000;

  Pages reserved;  // (a) Pre-sized, here well past the fill target.
  reserved.reserve(kKeys * 16);
  for (std::uint64_t k = 0; k < kKeys; ++k) reserved.insert_or_assign(k, value_of(k));

  Pages grown;  // (b) Plain growth, in the opposite order.
  for (std::uint64_t k = kKeys; k-- > 0;) grown.insert_or_assign(k, value_of(k));

  Pages churned;  // (c) Doubled by extra keys that are erased again.
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    churned.insert_or_assign(kExtra + k, -1);
    churned.insert_or_assign(k, value_of(k));
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) EXPECT_TRUE(churned.erase(kExtra + k));

  ASSERT_GT(reserved.page_count(), grown.page_count());
  ASSERT_GT(churned.page_count(), grown.page_count());
  EXPECT_EQ(reserved.root(), grown.root());
  EXPECT_EQ(churned.root(), grown.root());
}

TEST(StateTrie, StraddlingADoublingThresholdKeepsTheRoot) {
  // A directory of P pages doubles on the insert that finds P * 8
  // entries. One lineage stops at the threshold; the other crosses it
  // with an extra key and erases it again, keeping twice the pages.
  for (const std::uint64_t keys : {8U, 16U, 64U, 512U, 4096U}) {
    Pages at;
    Pages crossed;
    for (std::uint64_t k = 0; k < keys; ++k) {
      at.insert_or_assign(k, value_of(k));
      crossed.insert_or_assign(keys - 1 - k, value_of(keys - 1 - k));
    }
    const util::Hash256 before = crossed.root();  // Cached at the old size.
    crossed.insert_or_assign(keys, 0);
    EXPECT_TRUE(crossed.erase(keys));
    ASSERT_EQ(crossed.page_count(), 2 * at.page_count()) << keys << " keys";
    EXPECT_EQ(crossed.root(), at.root()) << keys << " keys";
    EXPECT_EQ(crossed.root(), before) << keys << " keys";
  }
}

TEST(StateTrie, IncrementalRootMatchesAFreshRebuildAfterEveryRound) {
  // Rounds of overwrites, inserts and erases on one lineage, with forks
  // holding earlier versions alive: the cached root after each round must
  // equal a rebuild with no caches, and the forks must keep theirs.
  Pages pages;
  for (std::uint64_t k = 0; k < 2000; ++k) pages.insert_or_assign(k, value_of(k));
  std::vector<std::pair<Pages, util::Hash256>> frozen;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (int round = 0; round < 24; ++round) {
    const util::Hash256 root = pages.root();
    ASSERT_EQ(root, fresh_root(pages)) << "round " << round;
    if (round % 3 == 0) frozen.emplace_back(pages.fork(), root);
    for (int w = 0; w < 40; ++w) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t key = x % 3000;
      if (x % 5 == 0) {
        (void)pages.erase(key);
      } else {
        pages.insert_or_assign(key, static_cast<std::int64_t>(x % 1000));
      }
    }
  }
  for (const auto& [fork, root] : frozen) EXPECT_EQ(fork.root(), root);
}

/// Every key has the same 64-bit hash: the trie cannot split them, so they
/// fall back to one key-sorted bucket.
struct CollidingHash {
  std::size_t operator()(std::uint64_t) const noexcept { return 42; }
};

TEST(StateTrie, FullHashCollisionsFallBackToOneSortedBucket) {
  using Colliding = CowPages<std::uint64_t, std::int64_t, CollidingHash>;
  Colliding forward;
  Colliding backward;
  backward.reserve(256);
  for (std::uint64_t k = 0; k < 40; ++k) {
    forward.insert_or_assign(k, value_of(k));
    backward.insert_or_assign(39 - k, value_of(39 - k));
  }
  EXPECT_EQ(forward.root(), backward.root());
  forward.insert_or_assign(7, -7);
  EXPECT_NE(forward.root(), backward.root());
}

TEST(StateTrie, ArrayRootDependsOnElementsOnly) {
  // 300 elements are 5 chunks (an 8-leaf trie); growing to 600 (16
  // leaves) and popping back restarts the trie cache twice.
  Chunks direct;
  for (std::int64_t i = 0; i < 300; ++i) direct.push_back(i);
  Chunks popped;
  for (std::int64_t i = 0; i < 600; ++i) popped.push_back(i);
  const util::Hash256 longer = popped.root();
  for (int i = 0; i < 300; ++i) popped.pop_back();
  EXPECT_NE(longer, direct.root());
  EXPECT_EQ(popped.root(), direct.root());

  Chunks fork = direct.fork();
  fork.set(130, -1);
  EXPECT_NE(fork.root(), direct.root());
  fork.mutate(130, [](std::int64_t& v) { v = 130; });
  EXPECT_EQ(fork.root(), direct.root());
  EXPECT_TRUE(Chunks{}.root().is_zero());
}

// ----------------------------------------------------- TraceRecorder ---

TEST(Trace, FoldsToStrongestMode) {
  TraceRecorder trace;
  const stm::LockId id{1, 1};
  trace.record(id, stm::LockMode::kRead);
  trace.record(id, stm::LockMode::kWrite);
  trace.record(id, stm::LockMode::kRead);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.canonical()[0].second, stm::LockMode::kWrite);
}

TEST(Trace, MatchesProfile) {
  TraceRecorder trace;
  trace.record({1, 1}, stm::LockMode::kWrite);
  trace.record({1, 2}, stm::LockMode::kRead);

  stm::LockProfile profile;
  profile.entries = {{{1, 1}, stm::LockMode::kWrite, 1}, {{1, 2}, stm::LockMode::kRead, 1}};
  EXPECT_TRUE(trace.matches(profile));

  stm::LockProfile wrong_mode = profile;
  wrong_mode.entries[1].mode = stm::LockMode::kWrite;
  EXPECT_FALSE(trace.matches(wrong_mode));

  stm::LockProfile missing = profile;
  missing.entries.pop_back();
  EXPECT_FALSE(trace.matches(missing));

  stm::LockProfile extra = profile;
  extra.entries.push_back({{2, 2}, stm::LockMode::kRead, 1});
  EXPECT_FALSE(trace.matches(extra));
}

// ----------------------------------------------------- Nested calls ----

TEST(NestedCall, SerialRevertRollsBackCalleeOnly) {
  Env env;
  BoostedMap<std::uint64_t, std::int64_t> map(1);
  auto ctx = env.serial_ctx();
  ctx.push_msg(MsgContext{Address::from_u64(1), Address::from_u64(2), 0});
  map.put(ctx, 1, 100);
  const bool ok = ctx.nested_call(Address::from_u64(3), 0, [&](ExecContext& inner) {
    map.put(inner, 2, 200);
    throw RevertError("child fails");
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(map.raw_get(1), 100);          // Caller effect intact.
  EXPECT_EQ(map.raw_get(2), std::nullopt);  // Callee effect undone.
  ctx.pop_msg();
}

TEST(NestedCall, MsgSenderBecomesCallingContract) {
  Env env;
  auto ctx = env.serial_ctx();
  const Address eoa = Address::from_u64(1);
  const Address contract_a = Address::from_u64(2);
  const Address contract_b = Address::from_u64(3);
  ctx.push_msg(MsgContext{eoa, contract_a, 0});
  EXPECT_EQ(ctx.msg().sender, eoa);
  (void)ctx.nested_call(contract_b, 5, [&](ExecContext& inner) {
    EXPECT_EQ(inner.msg().sender, contract_a);
    EXPECT_EQ(inner.msg().receiver, contract_b);
    EXPECT_EQ(inner.msg().value, 5);
  });
  EXPECT_EQ(ctx.msg().sender, eoa);  // Frame popped.
  ctx.pop_msg();
}

TEST(NestedCall, SpeculativeChildAbortKeepsParent) {
  World world;
  BoostedMap<std::uint64_t, std::int64_t> map(1);
  stm::BoostingRuntime rt;
  stm::SpeculativeAction action(rt, 0, rt.next_birth());
  ExecContext ctx = ExecContext::speculative(world, rt, action, test_meter());
  ctx.push_msg(MsgContext{Address::from_u64(1), Address::from_u64(2), 0});

  map.put(ctx, 1, 100);
  const bool ok = ctx.nested_call(Address::from_u64(3), 0, [&](ExecContext& inner) {
    map.put(inner, 2, 200);
    throw RevertError("child fails");
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(map.raw_get(1), 100);
  EXPECT_EQ(map.raw_get(2), std::nullopt);

  ctx.pop_msg();
  (void)action.commit();
  EXPECT_EQ(map.raw_get(1), 100);
}

}  // namespace
}  // namespace concord::vm
