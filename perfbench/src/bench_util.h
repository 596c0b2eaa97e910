// Small helpers shared by the benchmark's workloads: host timing, medians,
// the metric list a run prints, oracle checks, and process memory.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/latency_histogram.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the two middle values for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's command-line arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< Where the traced pass's spans go ("": none).
};

/// Outcome of one invocation: the printed metric lists plus the operation
/// counts of the result line.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Host time of each pass, printed before the metrics.
  std::vector<std::string> notes;

  void Note(const std::string& pass, double setup_s, double run_s) {
    notes.push_back(pass + ": setup " + std::to_string(setup_s) +
                    " s, measured window " + std::to_string(run_s) + " s");
  }
};

/// Returns a Corruption status naming the failed oracle when `ok` is false.
inline flashdb::Status Check(bool ok, const std::string& what) {
  return ok ? flashdb::Status::OK()
            : flashdb::Status::Corruption("oracle failed: " + what);
}

/// Percentile `p` (0..100) of a virtual-latency histogram, interpolated
/// linearly inside the bucket that holds the target rank (the usual
/// histogram-quantile estimate; error bounded by the bucket width, <= 3.2%).
/// The histogram exposes only per-rank lookups, so the bucket's rank range is
/// found by binary search over ValueAtPercentile.
double InterpolatedPercentile(const flashdb::workload::LatencyHistogram& h,
                              double p);

/// Peak resident set size of this process in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
