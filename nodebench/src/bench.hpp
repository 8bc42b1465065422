#pragma once
// Shared declarations of the node benchmark: workload selection, the
// measurement record every workload fills, the noise-control helpers and
// the correctness checks (implemented apart from the program in
// checks.cpp, so a check never trusts the code it checks).

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "vm/types.hpp"
#include "vm/world.hpp"

namespace nodebench {

using Clock = std::chrono::steady_clock;
namespace chain = concord::chain;
namespace vm = concord::vm;

// ── Run options ─────────────────────────────────────────────────────────

enum class Workload { kPaperMixed, kZipfStateReads, kFollowerCatchup };

struct Options {
  Workload workload = Workload::kPaperMixed;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event file (traced runs only).
  /// Validator pool size; 0 = the workload's share of the thread budget.
  /// A larger value must fit the cores the miner and reader leave free.
  unsigned validator_threads = 0;
};

// ── Measurement record ─────────────────────────────────────────────────

/// Metrics are emitted in insertion order as {"name": {"value", "unit"}}.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values.emplace_back(name, std::make_pair(value, unit));
  }
};

/// What one run prints: the result object (last stdout line) plus
/// reference fields on the line before it.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Failed checks, printed to stderr.
  Metrics metrics;
  Metrics reference;

  void check(const std::string& name, const std::string& error) {
    if (error.empty()) return;
    correct = false;
    errors.push_back(name + ": " + error);
  }
};

// ── Noise controls (common.cpp) ─────────────────────────────────────────

/// Fixed synthetic work per unit of gas, in CycleBurner iterations. Every
/// run converts it to nanos_per_gas through its own process calibration,
/// so every run burns the same iterations whatever that calibration read.
inline constexpr double kBurnIterationsPerGas = 3.0;
[[nodiscard]] double fixed_burn_nanos_per_gas();

/// Cores this process may run on (its affinity mask): the thread budget.
[[nodiscard]] unsigned cpu_budget();

/// Times a fixed CycleBurner probe; returns iterations per microsecond.
[[nodiscard]] double burn_probe_rate();

/// Aggregate steal ticks from /proc/stat (0 when unreadable).
[[nodiscard]] std::uint64_t steal_ticks();

/// Process user+sys CPU seconds (getrusage).
[[nodiscard]] double cpu_seconds();

/// Peak resident set of the process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

// ── Tracing (common.cpp) ────────────────────────────────────────────────

/// In-memory span log written out as Chrome trace-event JSON (opens in
/// chrome://tracing and Perfetto). A span is a complete ("X") event; the
/// block number is its request identifier and `parent` names the span
/// that caused it. A disabled recorder drops every span, so the same code
/// can run with tracing off to measure what tracing costs.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled), origin_(Clock::now()) {}
  void record(const std::string& name, std::uint64_t block, const std::string& parent,
              Clock::time_point begin, Clock::time_point end);
  /// Writes the trace file; returns false when it cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Wall time spent inside record(): the direct cost of tracing.
  [[nodiscard]] double recording_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(recording_).count();
  }

 private:
  struct Span {
    std::string name;
    std::string parent;
    std::uint64_t block = 0;
    double begin_us = 0.0;
    double duration_us = 0.0;
  };
  bool enabled_;
  Clock::time_point origin_;
  Clock::duration recording_{};
  std::vector<Span> spans_;
};

// ── Correctness checks (checks.cpp) ────────────────────────────────────
// Each returns an empty string on success, else the first failure.

/// Every submitted transaction is on `blocks` exactly as many times as it
/// was submitted (by hash), and nothing else is.
[[nodiscard]] std::string check_exactly_once(const std::vector<chain::Transaction>& submitted,
                                             const std::vector<chain::Block>& blocks);

/// Re-executes every block serially, in its published serial order, on a
/// fork of `genesis`, and requires the published statuses, the block
/// links and every header root to be reproduced.
[[nodiscard]] std::string check_serial_replay(const vm::World& genesis,
                                              const std::vector<chain::Block>& blocks);

/// The Ballot's summed vote counts in `final_state` equal the summed
/// genesis weight of the voters whose vote transactions succeeded.
[[nodiscard]] std::string check_ballot_total(const vm::World& genesis,
                                             const vm::World& final_state,
                                             const vm::Address& ballot,
                                             const std::vector<chain::Block>& blocks);

/// The reader's account draws: a uniform pick among `accounts` from a
/// seeded stream, so a check can replay exactly which accounts were read.
class AccountDraws {
 public:
  AccountDraws(const std::vector<vm::Address>& accounts, std::uint64_t seed);
  [[nodiscard]] const vm::Address& next();

 private:
  const std::vector<vm::Address>& accounts_;
  std::uint64_t state_;
};

/// The reads the reader served from one boundary, folded into a digest
/// (memory stays flat however many reads a run makes). Read number k of
/// the round adds value × (k + 1).
struct ReadDigest {
  std::uint64_t block = 0;
  std::uint64_t reads = 0;  ///< Draws made against this boundary.
  std::uint64_t digest = 0;
};

[[nodiscard]] inline std::uint64_t read_term(std::uint64_t ordinal, vm::Amount value) {
  return static_cast<std::uint64_t>(value) * (ordinal + 1);
}

/// Replays `blocks` through a model ledger and requires every balance the
/// reader saw at block N to equal the model at N (replaying the reader's
/// draws from `accounts` and `seed`, skipping the read ordinals in
/// `failed_reads`), and the final state's total supply and touched
/// balances to equal genesis supply and the model.
[[nodiscard]] std::string check_token_ledger(const vm::World& genesis,
                                             const vm::World& final_state,
                                             const vm::Address& token,
                                             const std::vector<chain::Block>& blocks,
                                             const std::vector<vm::Address>& accounts,
                                             std::uint64_t seed,
                                             const std::vector<ReadDigest>& reads,
                                             const std::vector<std::uint64_t>& failed_reads);

/// The follower's chain is byte-identical to the leader's at every
/// height, every block was Acked and nothing was Nacked.
[[nodiscard]] std::string check_replica(const std::vector<chain::Block>& leader,
                                        const std::vector<chain::Block>& follower,
                                        std::uint64_t acked, std::uint64_t nacks);

// ── Workloads (workloads.cpp) ───────────────────────────────────────────

/// Runs the selected workload. `start` is the process's start (main()
/// entry), from which setup_s is measured.
[[nodiscard]] RunResult run_workload(const Options& options, Clock::time_point start);

}  // namespace nodebench
