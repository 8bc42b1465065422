// State-scale bench: sustained mining throughput and allocation traffic
// as a function of account count and Zipf skew, with the page arena on
// versus the plain-heap baseline (the ablation axis of the COW memory
// layer — see vm/arena.hpp and the README's "Memory layer" section).
//
// Each point builds one Zipf fixture (a world holding `accounts` genesis
// entries plus a deterministic transaction stream), then repeatedly
// materializes a fresh replica from the genesis snapshot and mines the
// stream block by block at the node's recovery cadence: a boundary
// snapshot is frozen after every block, and retiring the previous
// boundary is what returns the prior block's private pages to the arena
// for the next block's detaches to recycle.
//
// Metric definitions (all emitted per point):
//  - sustained_tx_per_sec: transactions over the mining loop's wall time
//    MINUS state-root publication time. The root (the cached state
//    trie rehashing the block's dirty pages) is byte-for-byte identical
//    work with the arena on or off — including it would only blur the
//    allocator ablation. This is the state layer's honest sustained
//    rate.
//  - end_to_end_tx_per_sec: the same loop with root publication
//    included (the number a full node would see; state_root_ms makes
//    the difference explicit).
//  - heap_allocs / heap_alloc_bytes: global operator new calls during
//    the measured loop, counted by this binary's allocator shims. The
//    arena turns per-page mallocs into pooled free-list hits, so
//    arena-on must come in well below the baseline here.
//  - genesis_build_ms / genesis_heap_allocs: cost of seeding the
//    `accounts`-entry world — the bulk-ingest side of the same story.
//
// Synthetic gas burn defaults to OFF (--nanos-per-gas=0): this bench
// measures the state layer, not simulated contract compute.
//
// Usage: bench_state_scale [--quick] [--accounts=100000,1000000]
//                          [--skews=0.9] [--blocks=N] [--block-txs=N]
//                          [--conflict=N] [--samples=N] [--threads=N]
//                          [--json=FILE] ...

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chain/block.hpp"
#include "core/miner.hpp"
#include "harness.hpp"
#include "util/cycle_burner.hpp"
#include "util/stats.hpp"
#include "vm/world.hpp"
#include "workload/workload.hpp"

// ---------------------------------------------------------------------
// Global allocation counters. Replacing operator new/delete is the one
// portable way to count every heap allocation the process makes —
// including those inside std:: containers — without an interposing
// malloc library. The replacements must have external linkage, so they
// live outside the anonymous namespace.
// ---------------------------------------------------------------------

namespace bench_alloc {
std::atomic<std::uint64_t> count{0};
std::atomic<std::uint64_t> bytes{0};

inline void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* alloc(std::size_t size) {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

inline void* alloc_aligned(std::size_t size, std::size_t align) {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace bench_alloc

void* operator new(std::size_t size) { return bench_alloc::checked(bench_alloc::alloc(size)); }
void* operator new[](std::size_t size) { return bench_alloc::checked(bench_alloc::alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return bench_alloc::alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return bench_alloc::alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return bench_alloc::checked(
      bench_alloc::alloc_aligned(size, static_cast<std::size_t>(align)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return bench_alloc::checked(
      bench_alloc::alloc_aligned(size, static_cast<std::size_t>(align)));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace concord;

/// One mining pass over the whole stream against a fresh replica.
struct RunResult {
  double wall_ms = 0.0;       ///< Full loop, root publication included.
  double root_ms = 0.0;       ///< Sum of per-block state-root time.
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
  core::MinerStats last;      ///< Stats after the final block.
  util::Hash256 final_root;
};

/// Aggregated point result across samples.
struct PointResult {
  util::TimingSummary state_wall;  ///< wall - root per run.
  util::TimingSummary full_wall;   ///< wall per run.
  double root_ms = 0.0;            ///< Mean per-run root total.
  double genesis_build_ms = 0.0;
  std::uint64_t genesis_heap_allocs = 0;
  RunResult last;
  util::Hash256 genesis_root;
  std::size_t transactions = 0;

  [[nodiscard]] double state_tx_per_sec() const {
    return state_wall.mean_ms > 0
               ? static_cast<double>(transactions) * 1e3 / state_wall.mean_ms
               : 0.0;
  }
  [[nodiscard]] double end_to_end_tx_per_sec() const {
    return full_wall.mean_ms > 0
               ? static_cast<double>(transactions) * 1e3 / full_wall.mean_ms
               : 0.0;
  }
};

RunResult run_block_loop(const vm::WorldSnapshot& genesis_snap, const chain::Block& genesis,
                         const std::vector<chain::Transaction>& stream, std::size_t blocks,
                         std::size_t block_txs, const bench::RunConfig& config,
                         std::size_t accounts) {
  std::unique_ptr<vm::World> world = genesis_snap.materialize();
  core::MinerConfig miner_config;
  miner_config.threads = config.threads;
  miner_config.nanos_per_gas = config.nanos_per_gas;
  miner_config.exclusive_locks_only = config.exclusive_locks_only;
  miner_config.lock_table_reserve = accounts;  // The workload hint the knob exists for.
  core::Miner miner(*world, miner_config);

  RunResult result;
  chain::Block parent = genesis;
  // Rolling boundary snapshot, the node's recovery cadence: freezing
  // post-block state re-shares every page, so the next block's writes
  // detach again, and retiring the previous boundary frees the pages
  // those detaches recycle.
  vm::WorldSnapshot boundary = genesis_snap;
  std::vector<chain::Transaction> batch;

  const bool phase_debug = std::getenv("SS_PHASES") != nullptr;
  double mine_ms = 0.0, boundary_ms = 0.0;
  const std::uint64_t allocs0 = bench_alloc::count.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 = bench_alloc::bytes.load(std::memory_order_relaxed);
  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < blocks; ++b) {
    batch.assign(stream.begin() + static_cast<std::ptrdiff_t>(b * block_txs),
                 stream.begin() + static_cast<std::ptrdiff_t>((b + 1) * block_txs));
    const auto t0 = std::chrono::steady_clock::now();
    chain::Block block = miner.mine(batch, parent);
    const auto t1 = std::chrono::steady_clock::now();
    result.root_ms += miner.last_stats().state_root_ms;
    boundary = vm::WorldSnapshot(*world, block.header.state_root);
    const auto t2 = std::chrono::steady_clock::now();
    mine_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    boundary_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
    parent = std::move(block);
  }
  if (phase_debug) {
    const vm::ArenaStats a = world->arena_stats();
    std::fprintf(stderr,
                 "SS_PHASES mine=%.2fms (root=%.2fms, exec=%.2fms) boundary=%.2fms "
                 "arena_total=%llu\n",
                 mine_ms, result.root_ms, mine_ms - result.root_ms, boundary_ms,
                 static_cast<unsigned long long>(a.fresh_allocs + a.recycle_hits));
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - begin)
          .count();
  result.heap_allocs = bench_alloc::count.load(std::memory_order_relaxed) - allocs0;
  result.heap_bytes = bench_alloc::bytes.load(std::memory_order_relaxed) - bytes0;
  result.last = miner.last_stats();
  result.final_root = parent.header.state_root;
  return result;
}

PointResult measure_point(const workload::ZipfSpec& spec, std::size_t blocks,
                          std::size_t block_txs, const bench::RunConfig& config) {
  PointResult point;
  point.transactions = blocks * block_txs;

  const std::uint64_t allocs0 = bench_alloc::count.load(std::memory_order_relaxed);
  const auto build_begin = std::chrono::steady_clock::now();
  workload::Fixture fixture = workload::make_zipf_fixture(spec);
  point.genesis_build_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - build_begin)
                               .count();
  point.genesis_heap_allocs =
      bench_alloc::count.load(std::memory_order_relaxed) - allocs0;

  const chain::Block genesis = fixture.genesis();  // One cold, full root per point.
  point.genesis_root = genesis.header.state_root;
  const vm::WorldSnapshot genesis_snap(*fixture.world, genesis.header.state_root);

  std::vector<double> state_runs;
  std::vector<double> full_runs;
  double root_total = 0.0;
  int measured = 0;
  for (int r = 0; r < config.warmups + config.samples; ++r) {
    const RunResult run = run_block_loop(genesis_snap, genesis, fixture.transactions, blocks,
                                         block_txs, config, spec.accounts);
    if (r >= config.warmups) {
      state_runs.push_back(run.wall_ms - run.root_ms);
      full_runs.push_back(run.wall_ms);
      root_total += run.root_ms;
      ++measured;
    }
    point.last = run;
  }
  point.state_wall = util::summarize_ms(state_runs);
  point.full_wall = util::summarize_ms(full_runs);
  point.root_ms = measured > 0 ? root_total / measured : 0.0;
  return point;
}

void emit_json(const workload::ZipfSpec& spec, std::size_t blocks, std::size_t block_txs,
               const PointResult& point) {
  const vm::ArenaStats& arena = point.last.last.arena;
  std::ostringstream object;
  object << "{\"benchmark\": \"StateScale/"
         << bench::json_escape(workload::to_string(spec.scenario)) << "\""
         << ", \"accounts\": " << spec.accounts
         << ", \"skew\": " << spec.skew
         << ", \"conflict_percent\": " << spec.conflict_percent
         << ", \"arena\": " << (spec.use_arena ? "true" : "false")
         << ", \"blocks\": " << blocks
         << ", \"txs_per_block\": " << block_txs
         << ", \"transactions\": " << point.transactions
         << ", \"sustained_tx_per_sec\": " << point.state_tx_per_sec()
         << ", \"end_to_end_tx_per_sec\": " << point.end_to_end_tx_per_sec()
         << ", \"wall_ms\": " << point.state_wall.mean_ms
         << ", \"wall_stddev_ms\": " << point.state_wall.stddev_ms
         << ", \"state_root_ms\": " << point.root_ms
         << ", \"genesis_build_ms\": " << point.genesis_build_ms
         << ", \"genesis_heap_allocs\": " << point.genesis_heap_allocs
         << ", \"heap_allocs\": " << point.last.heap_allocs
         << ", \"heap_alloc_bytes\": " << point.last.heap_bytes
         << ", \"conflict_aborts\": " << point.last.last.conflict_aborts
         << ", \"lock_table_memory_high_water\": "
         << point.last.last.lock_table_memory_high_water
         << ", \"arena_chunks\": " << arena.chunks
         << ", \"arena_chunk_bytes\": " << arena.chunk_bytes
         << ", \"arena_live_blocks\": " << arena.live_blocks
         << ", \"arena_live_bytes\": " << arena.live_bytes
         << ", \"arena_live_high_water\": " << arena.live_high_water
         << ", \"arena_fresh_allocs\": " << arena.fresh_allocs
         << ", \"arena_recycle_hits\": " << arena.recycle_hits
         << ", \"arena_oversize_allocs\": " << arena.oversize_allocs
         << ", \"state_root\": \"" << point.last.final_root.to_hex() << "\""
         << ", \"machine_iters_per_us\": " << util::iterations_per_microsecond() << "}";
  bench::write_json_object(object.str());
}

std::vector<std::size_t> parse_size_csv(std::string_view csv) {
  std::vector<std::size_t> out;
  while (!csv.empty()) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(csv.data(), &end, 10);
    if (end == csv.data() || v == 0) return {};
    out.push_back(static_cast<std::size_t>(v));
    csv.remove_prefix(static_cast<std::size_t>(end - csv.data()));
    if (!csv.empty() && csv.front() == ',') csv.remove_prefix(1);
  }
  return out;
}

std::vector<double> parse_double_csv(std::string_view csv) {
  std::vector<double> out;
  while (!csv.empty()) {
    char* end = nullptr;
    const double v = std::strtod(csv.data(), &end);
    if (end == csv.data() || v < 0.0) return {};
    out.push_back(v);
    csv.remove_prefix(static_cast<std::size_t>(end - csv.data()));
    if (!csv.empty() && csv.front() == ',') csv.remove_prefix(1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig config = bench::RunConfig::from_args(argc, argv);

  std::vector<std::size_t> account_axis =
      config.quick ? std::vector<std::size_t>{20'000}
                   : std::vector<std::size_t>{100'000, 1'000'000};
  std::vector<double> skew_axis{0.9};
  std::size_t blocks = config.quick ? 4 : 8;
  std::size_t block_txs = config.quick ? 100 : 250;
  unsigned conflict = 15;
  bool gas_flag_given = false;
  std::string_view scenario_filter;  // Substring match; empty = all.
  std::string_view arena_filter;     // "on", "off" or empty = both.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--accounts=")) account_axis = parse_size_csv(arg.substr(11));
    if (arg.starts_with("--scenarios=")) scenario_filter = arg.substr(12);
    if (arg.starts_with("--arena=")) arena_filter = arg.substr(8);
    if (arg.starts_with("--skews=")) skew_axis = parse_double_csv(arg.substr(8));
    if (arg.starts_with("--blocks=")) blocks = std::strtoul(arg.data() + 9, nullptr, 10);
    if (arg.starts_with("--block-txs=")) {
      block_txs = std::strtoul(arg.data() + 12, nullptr, 10);
    }
    if (arg.starts_with("--conflict=")) {
      conflict = static_cast<unsigned>(std::strtoul(arg.data() + 11, nullptr, 10));
    }
    if (arg.starts_with("--nanos-per-gas=")) gas_flag_given = true;
  }
  if (account_axis.empty() || skew_axis.empty() || blocks == 0 || block_txs == 0) {
    std::fprintf(stderr,
                 "bench_state_scale: --accounts/--skews need positive comma lists, "
                 "--blocks/--block-txs positive integers\n");
    return 2;
  }
  // This bench measures the state layer; simulated contract compute
  // would only dilute every point identically. Opt back in explicitly.
  if (!gas_flag_given) config.nanos_per_gas = 0.0;

  std::printf("State scale: %zu blocks x %zu txs per point, %u miner threads, gas %s\n",
              blocks, block_txs, config.threads,
              config.nanos_per_gas > 0 ? "on" : "off");
  std::printf("# %-16s %9s %5s %6s %10s %12s %12s %12s %12s\n", "scenario", "accounts",
              "skew", "arena", "build_ms", "state_tx/s", "e2e_tx/s", "heap_allocs",
              "recycles");

  // Final roots keyed by (scenario, accounts, skew): the arena must be
  // invisible to state — byte-identical roots on and off.
  std::map<std::string, std::string> roots;
  bool roots_match = true;

  for (const workload::ZipfScenario scenario : workload::kAllZipfScenarios) {
    if (!scenario_filter.empty() &&
        std::string_view(workload::to_string(scenario)).find(scenario_filter) ==
            std::string_view::npos) {
      continue;
    }
    for (const std::size_t accounts : account_axis) {
      for (const double skew : skew_axis) {
        for (const bool use_arena : {true, false}) {
          if (arena_filter == "on" && !use_arena) continue;
          if (arena_filter == "off" && use_arena) continue;
          workload::ZipfSpec spec;
          spec.scenario = scenario;
          spec.accounts = accounts;
          spec.skew = skew;
          spec.transactions = blocks * block_txs;
          spec.conflict_percent = conflict;
          spec.use_arena = use_arena;

          const PointResult point = measure_point(spec, blocks, block_txs, config);

          std::printf("%-18s %9zu %5.2f %6s %10.0f %12.0f %12.0f %12llu %12llu\n",
                      std::string(workload::to_string(scenario)).c_str(), accounts, skew,
                      use_arena ? "on" : "off", point.genesis_build_ms,
                      point.state_tx_per_sec(), point.end_to_end_tx_per_sec(),
                      static_cast<unsigned long long>(point.last.heap_allocs),
                      static_cast<unsigned long long>(point.last.last.arena.recycle_hits));
          std::fflush(stdout);

          emit_json(spec, blocks, block_txs, point);

          std::ostringstream key;
          key << static_cast<int>(scenario) << "/" << accounts << "/" << skew;
          const std::string root_hex =
              point.genesis_root.to_hex() + ":" + point.last.final_root.to_hex();
          auto [it, inserted] = roots.emplace(key.str(), root_hex);
          if (!inserted && it->second != root_hex) {
            roots_match = false;
            std::fprintf(stderr,
                         "state-root mismatch at %s: arena on/off disagree (%s vs %s)\n",
                         key.str().c_str(), it->second.c_str(), root_hex.c_str());
          }
        }
      }
    }
  }

  if (!roots_match) {
    std::fprintf(stderr, "bench_state_scale: arena changed observable state — FAIL\n");
    return 1;
  }
  std::printf("state roots: arena on/off byte-identical across all points\n");
  return 0;
}
