#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "contracts/ballot.hpp"
#include "contracts/etherdoc.hpp"
#include "contracts/kv_store.hpp"
#include "contracts/payment_splitter.hpp"
#include "contracts/simple_auction.hpp"
#include "contracts/token.hpp"
#include "core/miner.hpp"
#include "vm/boosted_array.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"
#include "vm/world.hpp"
#include "workload/workload.hpp"

namespace concord::vm {
namespace {

Address addr(std::uint64_t n, std::uint8_t salt) { return Address::from_u64(n, salt); }

const Address kBallotAddr = addr(1, 0xCC);
const Address kAuctionAddr = addr(2, 0xCC);
const Address kEtherDocAddr = addr(3, 0xCC);
const Address kTokenAddr = addr(4, 0xCC);
const Address kSplitterAddr = addr(5, 0xCC);
const Address kEagerKvAddr = addr(6, 0xCC);
const Address kLazyKvAddr = addr(7, 0xCC);

/// One world holding every contract the repository ships — both KvStore
/// backends included — with non-trivial state in every boosted field
/// kind (map, counter map, scalar, lazy map) plus native balances.
std::unique_ptr<World> make_six_contract_world() {
  auto world = std::make_unique<World>();

  auto ballot = std::make_unique<contracts::Ballot>(
      kBallotAddr, addr(1, 0x04), std::vector<std::string>{"alpha", "beta"});
  ballot->raw_register_voter(addr(7, 0x01), 3);
  world->contracts().add(std::move(ballot));

  auto auction = std::make_unique<contracts::SimpleAuction>(kAuctionAddr, addr(2, 0x04));
  auction->raw_set_highest(addr(8, 0x02), 500);
  auction->raw_add_pending(addr(9, 0x02), 120);
  world->contracts().add(std::move(auction));

  auto etherdoc = std::make_unique<contracts::EtherDoc>(kEtherDocAddr, addr(3, 0x04));
  etherdoc->raw_add_document(42, addr(10, 0x03));
  world->contracts().add(std::move(etherdoc));

  auto token = std::make_unique<contracts::Token>(kTokenAddr, "CNC", addr(4, 0x04));
  token->raw_mint(addr(11, 0x05), 1'000);
  world->contracts().add(std::move(token));

  world->contracts().add(std::make_unique<contracts::PaymentSplitter>(
      kSplitterAddr, kTokenAddr, std::vector<Address>{addr(11, 0x05), addr(12, 0x05)}));

  auto eager = std::make_unique<contracts::KvStore>(kEagerKvAddr,
                                                    contracts::KvStore::Backend::kEager);
  eager->raw_put(1, 11);
  world->contracts().add(std::move(eager));

  auto lazy_kv = std::make_unique<contracts::KvStore>(kLazyKvAddr,
                                                      contracts::KvStore::Backend::kLazy);
  lazy_kv->raw_put(2, 22);
  world->contracts().add(std::move(lazy_kv));

  world->balances().raw_set(addr(20, 0x06), 9'000);
  return world;
}

// --------------------------------------------------------- World::fork ---

TEST(WorldFork, RoundTripsStateRootForAllSixContracts) {
  const auto world = make_six_contract_world();
  const auto replica = world->fork();
  EXPECT_EQ(replica->state_root(), world->state_root());
  EXPECT_EQ(replica->contracts().size(), world->contracts().size());
  // The fork resolves the same typed contracts at the same addresses.
  EXPECT_EQ(replica->contracts().as<contracts::Token>(kTokenAddr).raw_balance(addr(11, 0x05)),
            1'000);
  EXPECT_EQ(replica->contracts().as<contracts::KvStore>(kLazyKvAddr).raw_get(2), 22);
}

TEST(WorldFork, ForkIsIndependentInBothDirections) {
  const auto world = make_six_contract_world();
  const auto original_root = world->state_root();
  const auto replica = world->fork();

  // Mutating the fork leaves the original frozen (detach-on-write)…
  replica->contracts().as<contracts::Token>(kTokenAddr).raw_mint(addr(13, 0x05), 5);
  EXPECT_NE(replica->state_root(), original_root);
  EXPECT_EQ(world->state_root(), original_root);

  // …and mutating the original leaves the fork untouched.
  const auto replica_root = replica->state_root();
  world->balances().raw_set(addr(21, 0x06), 1);
  EXPECT_EQ(replica->state_root(), replica_root);
}

TEST(WorldFork, SurvivesItsParentWorld) {
  auto world = make_six_contract_world();
  const auto original_root = world->state_root();
  auto replica = world->fork();
  world.reset();  // Shared pages must outlive the lineage that made them.
  EXPECT_EQ(replica->state_root(), original_root);
  EXPECT_EQ(replica->contracts().as<contracts::KvStore>(kEagerKvAddr).raw_get(1), 11);
}

class WorldForkWorkloads : public ::testing::TestWithParam<workload::BenchmarkKind> {};

TEST_P(WorldForkWorkloads, RoundTripsGenesisStateRoot) {
  workload::WorkloadSpec spec;
  spec.kind = GetParam();
  spec.transactions = 60;
  spec.conflict_percent = 20;
  const auto fixture = workload::make_fixture(spec);
  EXPECT_EQ(fixture.world->fork()->state_root(), fixture.world->state_root());
}

/// Forks are taken at block boundaries in the node, so the root must
/// round-trip from post-block state too — not just pristine genesis.
TEST_P(WorldForkWorkloads, RoundTripsPostBlockStateRoot) {
  workload::WorkloadSpec spec;
  spec.kind = GetParam();
  spec.transactions = 40;
  spec.conflict_percent = 25;
  const auto fixture = workload::make_fixture(spec);
  core::MinerConfig config;
  config.nanos_per_gas = 0.0;
  core::Miner miner(*fixture.world, config);
  const chain::Block block = miner.mine_serial(fixture.transactions, fixture.genesis());

  const auto replica = fixture.world->fork();
  EXPECT_EQ(replica->state_root(), fixture.world->state_root());
  EXPECT_EQ(replica->state_root(), block.header.state_root);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorldForkWorkloads,
                         ::testing::ValuesIn(workload::kAllBenchmarks),
                         [](const auto& info) {
                           return std::string(workload::to_string(info.param));
                         });

// ----------------------------------------------- COW aliasing fuzz -------

/// One raw mutation against the six-contract world, replayable: the fuzz
/// compares every forked lineage against a reference world rebuilt from
/// genesis + its mutation log, so any page aliasing between lineages (a
/// write leaking through a shared page, a detach losing entries) shows
/// up as a root mismatch.
struct Mutation {
  std::uint64_t op = 0;
  std::uint64_t a = 0;
  std::int64_t b = 0;
};

/// Native-balance accounts the burst mutations draw from: enough that
/// bursts double the directory several times and erase bursts thin it.
constexpr std::uint64_t kBurstAccounts = 600;
constexpr std::uint64_t kBurstSize = 48;

void apply_mutation(World& world, const Mutation& m) {
  switch (m.op % 12) {
    case 8:  // Insert bursts: grow the balances directory.
    case 9:
      for (std::uint64_t i = 0; i < kBurstSize; ++i) {
        world.balances().raw_set(addr((m.a + i * 7) % kBurstAccounts, 0x07),
                                 1 + static_cast<Amount>((static_cast<std::uint64_t>(m.b) + i) % 999));
      }
      return;
    case 10:  // Erase burst: the directory keeps its size.
      for (std::uint64_t i = 0; i < kBurstSize; ++i) {
        world.balances().raw_set(addr((m.a + i * 5) % kBurstAccounts, 0x07), 0);
      }
      return;
    case 11:
      world.contracts().as<contracts::Token>(kTokenAddr).raw_set_balance(addr(m.a % 37, 0x05), 0);
      return;
    default:
      break;
  }
  switch (m.op % 8) {
    case 0:
      world.contracts().as<contracts::Token>(kTokenAddr).raw_mint(addr(m.a % 37, 0x05),
                                                                  1 + (m.b % 999));
      break;
    case 1:
      world.balances().raw_set(addr(m.a % 37, 0x06), m.b % 100'000);
      break;
    case 2:
      world.contracts().as<contracts::KvStore>(kEagerKvAddr).raw_put(m.a % 53, m.b);
      break;
    case 3:
      world.contracts().as<contracts::KvStore>(kLazyKvAddr).raw_put(m.a % 53, m.b);
      break;
    case 4:
      world.contracts().as<contracts::SimpleAuction>(kAuctionAddr)
          .raw_add_pending(addr(m.a % 37, 0x02), 1 + (m.b % 500));
      break;
    case 5:
      world.contracts().as<contracts::SimpleAuction>(kAuctionAddr)
          .raw_set_highest(addr(m.a % 37, 0x02), m.b % 10'000);
      break;
    case 6:
      world.contracts().as<contracts::EtherDoc>(kEtherDocAddr)
          .raw_add_document(m.a % 29, addr(static_cast<std::uint64_t>(m.b) % 37, 0x03));
      break;
    default:
      world.contracts().as<contracts::Ballot>(kBallotAddr)
          .raw_register_voter(addr(m.a % 37, 0x01), 1 + (m.b % 5));
      break;
  }
}

/// A forked lineage plus the full mutation history that produced it.
struct Lineage {
  std::unique_ptr<World> world;
  std::vector<Mutation> log;
};

util::Hash256 replay_reference_root(const std::vector<Mutation>& log) {
  const auto reference = make_six_contract_world();
  for (const Mutation& m : log) apply_mutation(*reference, m);
  return reference->state_root();
}

/// Every lineage computes its root incrementally at every step (its pages
/// and directories carry cached digests, shared with its forks); the
/// reference is a fresh world replayed from genesis that has hashed
/// nothing before. Insert and erase bursts on the native balances double
/// the directory and thin it again, so stale digests, a missed path
/// invalidation, or a root that depends on directory size all diverge.
TEST(WorldForkFuzz, InterleavedForkMutateMatchesEagerReplayReference) {
  constexpr int kSteps = 96;
  constexpr std::size_t kMaxLineages = 5;

  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng;
  };

  std::vector<Lineage> pool;
  pool.push_back(Lineage{make_six_contract_world(), {}});

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t r = next();
    if ((r >> 40) % 3 == 0) {
      // Fork a lineage. When the pool is full, retire the oldest lineage
      // first — forks must survive the worlds they came from.
      if (pool.size() == kMaxLineages) pool.erase(pool.begin());
      const std::size_t parent = (r >> 4) % pool.size();
      pool.push_back(Lineage{pool[parent].world->fork(), pool[parent].log});
    } else {
      const std::size_t pick = (r >> 4) % pool.size();
      Mutation m{next(), next(), static_cast<std::int64_t>(next() % 1'000'000)};
      apply_mutation(*pool[pick].world, m);
      pool[pick].log.push_back(m);
    }

    // Every lineage must equal an eagerly-rebuilt reference at every
    // step: no write may leak into (or be lost from) a sibling.
    for (std::size_t i = 0; i < pool.size(); ++i) {
      ASSERT_EQ(pool[i].world->state_root(), replay_reference_root(pool[i].log))
          << "lineage " << i << " diverged from its replay reference after step " << step;
    }
  }
}

// ----------------------------------------------- BoostedArray fork -------

util::Hash256 array_hash(const BoostedArray<std::int64_t>& array) {
  StateHasher hasher;
  array.hash_state(hasher, "array");
  return hasher.finish();
}

/// No shipped contract holds a BoostedArray, so the chunk-level COW gets
/// its aliasing coverage here: fork across chunk boundaries, then write,
/// push and pop on both sides.
TEST(BoostedArrayFork, DetachesOnlyTheTouchedChunkInEitherDirection) {
  World world;
  BoostedArray<std::int64_t> original(7);
  // Two full chunks plus a partial one.
  for (std::int64_t i = 0; i < 150; ++i) original.raw_push_back(i);

  BoostedArray<std::int64_t> replica(7);
  replica.fork_state_from(original);
  EXPECT_EQ(array_hash(replica), array_hash(original));

  GasMeter meter(gas::kDefaultTxGasLimit, 0.0);
  ExecContext ctx = ExecContext::serial(world, meter);

  replica.set(ctx, 3, -1);    // Chunk 0 of the replica detaches…
  replica.set(ctx, 140, -2);  // …and chunk 2.
  EXPECT_EQ(original.raw_get(3), 3);  // The original still reads the frozen chunks.
  EXPECT_EQ(original.raw_get(140), 140);
  EXPECT_EQ(replica.raw_get(3), -1);
  EXPECT_EQ(replica.raw_get(70), 70);  // Untouched chunk 1 is still shared.

  original.set(ctx, 70, -3);  // Writes on the original don't reach the fork.
  EXPECT_EQ(replica.raw_get(70), 70);
  EXPECT_EQ(original.raw_get(70), -3);

  (void)replica.push_back(ctx, 999);
  original.pop_back(ctx);
  EXPECT_EQ(replica.size(), 151u);
  EXPECT_EQ(original.size(), 149u);
  EXPECT_EQ(replica.raw_get(150), 999);
  EXPECT_EQ(replica.raw_get(149), 149);  // The popped element survives in the fork.
}

TEST(BoostedArrayFork, LockSpaceMismatchThrows) {
  BoostedArray<std::int64_t> a(7);
  BoostedArray<std::int64_t> b(8);
  EXPECT_THROW(b.fork_state_from(a), std::logic_error);
}

// ------------------------------------------------------- WorldSnapshot ---

TEST(WorldSnapshotHandle, StaysFrozenWhileTheSourceMutates) {
  auto world = make_six_contract_world();
  const WorldSnapshot snapshot(*world);
  const auto frozen_root = snapshot.state_root();
  EXPECT_EQ(frozen_root, world->state_root());

  world->balances().raw_set(addr(20, 0x06), 1);
  EXPECT_NE(world->state_root(), frozen_root);
  EXPECT_EQ(snapshot.state_root(), frozen_root);
  EXPECT_EQ(snapshot.world().state_root(), frozen_root);
}

TEST(WorldSnapshotHandle, MaterializeMintsIndependentReplicas) {
  const auto world = make_six_contract_world();
  const WorldSnapshot snapshot(*world);
  const WorldSnapshot handle = snapshot;  // Copies share the frozen state.
  EXPECT_EQ(handle.state_root(), snapshot.state_root());

  const auto replica = handle.materialize();
  EXPECT_EQ(replica->state_root(), snapshot.state_root());
  replica->balances().raw_set(addr(22, 0x06), 7);
  EXPECT_NE(replica->state_root(), snapshot.state_root());
  EXPECT_EQ(snapshot.world().state_root(), handle.state_root());
}

TEST(WorldSnapshotHandle, SeededRootSkipsTheHashAndMatches) {
  const auto world = make_six_contract_world();
  const auto known_root = world->state_root();
  // The node's fast path: the boundary's root was just computed (and
  // verified) by the block that ended there, so the snapshot takes it on
  // trust instead of hashing it again.
  const WorldSnapshot snapshot(*world, known_root);
  EXPECT_EQ(snapshot.state_root(), known_root);
  EXPECT_EQ(snapshot.world().state_root(), known_root);
  EXPECT_EQ(snapshot.materialize()->state_root(), known_root);
}

TEST(WorldSnapshotHandle, EmptyHandleIsInvalidWithZeroRoot) {
  const WorldSnapshot empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_TRUE(empty.state_root().is_zero());

  const auto world = make_six_contract_world();
  const WorldSnapshot frozen(*world);
  EXPECT_TRUE(frozen.valid());
  EXPECT_FALSE(frozen.state_root().is_zero());
}

TEST(WorldSnapshotHandle, UseCountTracksSharedHandles) {
  const auto world = make_six_contract_world();
  WorldSnapshot snapshot(*world);
  EXPECT_EQ(snapshot.use_count(), 1);
  {
    const WorldSnapshot shared = snapshot;  // The ring-entry case.
    EXPECT_EQ(snapshot.use_count(), 2);
    EXPECT_EQ(shared.use_count(), 2);
    // Materializing forks the state; it does not pin another handle.
    const auto replica = shared.materialize();
    EXPECT_EQ(snapshot.use_count(), 2);
  }
  EXPECT_EQ(snapshot.use_count(), 1);

  // A moved-from handle releases its share and reads as empty.
  const WorldSnapshot taken = std::move(snapshot);
  EXPECT_EQ(taken.use_count(), 1);
  EXPECT_TRUE(taken.valid());
}

// --------------------------------------------- concurrent COW sharing ----

/// The TSan target for the COW redesign: materialize() on handles sharing
/// one frozen world is now pointer-sharing (refcount bumps on shared
/// pages), not a memcpy of private state — and it runs concurrently with
/// a writer detaching pages from that same frozen state. Any in-place
/// mutation of a shared page, or a non-atomic handoff in the ensure-
/// unique path, is a data race this test exposes under -fsanitize=thread.
TEST(WorldForkConcurrency, SharedFrozenPagesServeConcurrentMaterializeAndWrites) {
  auto world = make_six_contract_world();
  // Enough balance entries for a multi-page directory, so readers and
  // the writer actually overlap on shared pages.
  for (std::uint64_t i = 0; i < 512; ++i) {
    world->balances().raw_set(addr(1'000 + i, 0x06), static_cast<Amount>(i + 1));
  }
  const WorldSnapshot boundary(*world);
  const util::Hash256 frozen_root = boundary.state_root();

  std::atomic<int> mismatches{0};
  {
    std::vector<std::jthread> validators;
    for (int t = 0; t < 3; ++t) {
      validators.emplace_back([&boundary, &frozen_root, &mismatches, t] {
        for (int round = 0; round < 4; ++round) {
          auto replica = boundary.materialize();
          if (replica->state_root() != frozen_root) mismatches.fetch_add(1);
          // Replica writes detach pages shared with the frozen world.
          for (std::uint64_t i = 0; i < 64; ++i) {
            replica->balances().raw_set(
                addr(2'000 + static_cast<std::uint64_t>(t) * 100 + i, 0x06), 7);
          }
          if (replica->state_root() == frozen_root) mismatches.fetch_add(1);
        }
      });
    }
    // Meanwhile the "miner" keeps advancing the original world, peeling
    // its own pages off the same frozen state.
    for (std::uint64_t i = 0; i < 256; ++i) {
      world->balances().raw_set(addr(1'000 + (i % 512), 0x06), static_cast<Amount>(i));
      world->contracts().as<contracts::KvStore>(kEagerKvAddr).raw_put(i % 64, 1);
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(boundary.state_root(), frozen_root);
}

/// The TSan target for the state-trie caches: digests are published into
/// pages and directories that forks share. Two page-sharing forks and a
/// snapshot hash on three threads at once (racing to fill the same
/// slots), then one fork mutates and all three hash again. Every root
/// must match a single-threaded reference built from scratch.
TEST(WorldForkConcurrency, ConcurrentRootsOnSharedPagesMatchSingleThreadedReference) {
  const auto load = [](World& world) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      world.balances().raw_set(addr(1'000 + i, 0x06), static_cast<Amount>(i + 1));
    }
  };
  const auto mutate = [](World& world) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      world.balances().raw_set(addr(1'000 + i * 13, 0x06), (i % 3 == 0) ? 0 : 5);
    }
    world.contracts().as<contracts::KvStore>(kEagerKvAddr).raw_put(3, 33);
  };
  const auto reference = make_six_contract_world();
  load(*reference);
  const util::Hash256 base_root = reference->state_root();
  mutate(*reference);
  const util::Hash256 mutated_root = reference->state_root();
  ASSERT_NE(base_root, mutated_root);

  for (int round = 0; round < 4; ++round) {
    auto world = make_six_contract_world();
    load(*world);
    auto left = world->fork();
    auto right = world->fork();
    const WorldSnapshot snapshot(*world);
    world.reset();  // The forks and the snapshot now share every page.

    const auto hash_all = [&] {
      std::array<util::Hash256, 3> roots{};
      std::atomic<int> ready{0};
      {
        std::vector<std::jthread> threads;
        const auto run = [&ready, &roots](std::size_t slot, auto&& root_of) {
          ready.fetch_add(1);
          while (ready.load() < 3) std::this_thread::yield();
          roots[slot] = root_of();
        };
        threads.emplace_back([&] { run(0, [&] { return left->state_root(); }); });
        threads.emplace_back([&] { run(1, [&] { return right->state_root(); }); });
        threads.emplace_back([&] { run(2, [&] { return snapshot.state_root(); }); });
      }
      return roots;
    };

    const auto first = hash_all();
    EXPECT_EQ(first[0], base_root);
    EXPECT_EQ(first[1], base_root);
    EXPECT_EQ(first[2], base_root);

    mutate(*left);
    const auto second = hash_all();
    EXPECT_EQ(second[0], mutated_root);
    EXPECT_EQ(second[1], base_root);
    EXPECT_EQ(second[2], base_root);
    EXPECT_EQ(snapshot.world().state_root(), base_root);
  }
}

}  // namespace
}  // namespace concord::vm
