// Noise controls, process counters and the span recorder.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "util/cycle_burner.hpp"

namespace nodebench {

double fixed_burn_nanos_per_gas() {
  // GasMeter burns nanos_per_gas × 1e-3 × iterations_per_microsecond()
  // iterations per gas; invert that through this process's calibration.
  const auto per_us = static_cast<double>(concord::util::iterations_per_microsecond());
  return kBurnIterationsPerGas * 1e3 / per_us;
}

unsigned cpu_budget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double burn_probe_rate() {
  constexpr std::uint64_t kProbeIterations = 5'000'000;
  const auto begin = Clock::now();
  volatile std::uint64_t sink = concord::util::burn_iterations(kProbeIterations);
  (void)sink;
  const double us = std::chrono::duration<double, std::micro>(Clock::now() - begin).count();
  return us > 0 ? static_cast<double>(kProbeIterations) / us : 0.0;
}

std::uint64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return 0;
  // user nice system idle iowait irq softirq steal
  std::uint64_t field = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(stat >> field)) return 0;
  }
  return field;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void SpanRecorder::record(const std::string& name, std::uint64_t block, const std::string& parent,
                          Clock::time_point begin, Clock::time_point end) {
  if (!enabled_) return;
  const auto entered = Clock::now();
  spans_.push_back(Span{name, parent, block,
                        std::chrono::duration<double, std::micro>(begin - origin_).count(),
                        std::chrono::duration<double, std::micro>(end - begin).count()});
  recording_ += Clock::now() - entered;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char timing[96];
    std::snprintf(timing, sizeof(timing), "\"ts\": %.3f, \"dur\": %.3f", s.begin_us, s.duration_us);
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.'))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << timing
        << ", \"args\": {\"block\": " << s.block << ", \"parent\": \"" << s.parent << "\"}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace nodebench
