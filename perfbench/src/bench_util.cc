#include "bench_util.h"

#include <sys/resource.h>

#include <cmath>

namespace perfbench {

double InterpolatedPercentile(const flashdb::workload::LatencyHistogram& h,
                              double p) {
  using flashdb::workload::LatencyHistogram;
  const uint64_t n = h.count();
  if (n == 0) return 0;
  // Rank k (1-based) maps to percentile 100 * (k - 0.5) / n, which the
  // histogram rounds up to exactly rank k.
  auto at_rank = [&](uint64_t k) {
    return h.ValueAtPercentile(100.0 * (static_cast<double>(k) - 0.5) /
                               static_cast<double>(n));
  };
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<uint64_t>(rank, 1, n);
  const uint64_t v = at_rank(rank);
  if (v < LatencyHistogram::kUnitBuckets) return static_cast<double>(v);
  // First and last rank whose value lies in v's bucket.
  uint64_t lo = 1, hi = rank;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < v) lo = mid + 1; else hi = mid;
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at_rank(mid) > v) hi = mid - 1; else lo = mid;
  }
  const uint64_t last = lo;
  const uint32_t idx = LatencyHistogram::BucketIndex(v);
  const double lower =
      static_cast<double>(LatencyHistogram::BucketLowerBound(idx));
  const double upper =
      static_cast<double>(LatencyHistogram::BucketLowerBound(idx + 1));
  const double pos = (static_cast<double>(rank - first) + 0.5) /
                     static_cast<double>(last - first + 1);
  return std::clamp(lower + pos * (upper - lower),
                    static_cast<double>(h.min()),
                    static_cast<double>(h.max()));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace perfbench
