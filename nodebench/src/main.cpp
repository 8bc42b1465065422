// nodebench: one benchmark command for the concord node.
//
//   nodebench --workload <paper-mixed|zipf-state-reads|follower-catchup>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--validator-threads <n>]
//
// Prints reference fields as a JSON line, then, as the last line of
// standard output, the result object {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer metrics. Exits 1 without a result when the run cannot finish.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using nodebench::Metrics;
using nodebench::Options;
using nodebench::Workload;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "nodebench: %s\nusage: nodebench --workload <paper-mixed|zipf-state-reads|"
               "follower-catchup> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "                 [--validator-threads <n>]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload_name = value;
        have_workload = true;
        if (value == "paper-mixed") {
          options.workload = Workload::kPaperMixed;
        } else if (value == "zipf-state-reads") {
          options.workload = Workload::kZipfStateReads;
        } else if (value == "follower-catchup") {
          options.workload = Workload::kFollowerCatchup;
        } else {
          usage("unknown workload " + value);
        }
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--validator-threads") {
        options.validator_threads = static_cast<unsigned>(std::stoul(value));
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

/// Shortest decimal form that reads back as the same double.
std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.values.size(); ++i) {
    const auto& [name, entry] = metrics.values[i];
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + number(entry.first) +
           ", \"unit\": \"" + entry.second + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = nodebench::Clock::now();
  const Options options = parse(argc, argv);
  try {
    const nodebench::RunResult result = nodebench::run_workload(options, start);
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "nodebench: check failed: %s\n", error.c_str());
    }
    std::printf("{\"reference\": %s}\n", metrics_json(result.reference).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics_json(result.metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nodebench: %s: %s\n", options.workload_name.c_str(), e.what());
    return 1;
  }
}
