// Virtual-time figures of one pass, the per-layer unit-cost probes, and the
// arithmetic that turns both into the benchmark's metrics.

#ifndef PERFBENCH_FIGURES_H_
#define PERFBENCH_FIGURES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bytes.h"
#include "flash/flash_config.h"
#include "flash/flash_device.h"
#include "storage/buffer_pool.h"
#include "timed_store.h"
#include "workload/update_driver.h"

namespace perfbench {

/// Device counters and clocks of a set of chips at one instant.
struct ChipSnap {
  flashdb::flash::OpCounters total;
  std::array<flashdb::flash::OpCounters, flashdb::flash::kNumOpCategories>
      by_category;
  std::vector<uint64_t> clock_us;  ///< Per chip.
};
ChipSnap Snap(const std::vector<flashdb::flash::FlashDevice*>& chips);

/// Everything a pass measures in virtual time or as a count. Each field must
/// be identical across the passes of one invocation (timed repetitions,
/// untraced single-thread pass, traced pass); any difference fails the run.
struct VirtualFigures {
  uint64_t ops = 0;         ///< Operations (transactions on TPC-C).
  uint64_t update_ops = 0;  ///< Update operations (0 on TPC-C).
  flashdb::flash::OpCounters total;
  std::array<flashdb::flash::OpCounters, flashdb::flash::kNumOpCategories>
      by_category;
  std::vector<uint64_t> chip_advance_us;  ///< Clock advance per chip.
  flashdb::storage::BufferPoolStats buffer;  ///< Summed over shards.
  std::array<uint64_t, 5> txn_types{};       ///< TPC-C per-type counts.
  /// Per-op virtual latency; recorded by every TPC-C pass and by the
  /// latency pass of the update workloads (empty elsewhere).
  flashdb::workload::LatencyHistogram latency;
  flashdb::workload::WorstOpSample worst;

  /// Fills the device fields from two snapshots of the same chips.
  void SetDevice(const ChipSnap& before, const ChipSnap& after);

  uint64_t elapsed_us() const;
  const flashdb::flash::OpCounters& gc() const {
    return by_category[static_cast<int>(flashdb::flash::OpCategory::kGc)];
  }
};

/// Names the first field in which `a` and `b` differ ("" when equal).
/// Latency fields are compared only when `with_latency`.
std::string FirstDifference(const VirtualFigures& a, const VirtualFigures& b,
                            bool with_latency);

/// Host cost of one call into each layer's public function, timed in
/// isolation on page images drawn from the workload (nanoseconds, median of
/// several timed batches).
struct UnitCosts {
  double crc_ns = 0;          ///< Crc32c over one page.
  double diff_compute_ns = 0; ///< pdl::ComputeDifferential of one page pair.
  double diff_apply_ns = 0;   ///< Differential::ApplyTo onto one page.
  double program_ns = 0;      ///< FlashDevice::ProgramPage on a private chip.
  double read_ns = 0;         ///< FlashDevice::ReadPage on a private chip.
};

/// Times the layer functions. `bases` are page images taken from the
/// workload's own store; the updated image of each is the base with 1 to 4
/// regions of `changed_bytes` bytes overwritten, drawn from `seed`.
UnitCosts ProbeUnitCosts(const std::vector<flashdb::ByteBuffer>& bases,
                         uint32_t changed_bytes,
                         const flashdb::flash::FlashConfig& chip_config,
                         uint64_t seed);

/// Host-time results of the passes of one invocation.
struct HostTimes {
  std::vector<double> setup_s;      ///< One per prepared rig.
  std::vector<double> timed_wall_s; ///< Measured window of each timed rep.
  /// Ops per host second of each timed rep, or of each chunk of it where the
  /// workload times its window in chunks; `ops_per_s` is their median.
  std::vector<double> rates;
  double single_wall_s = 0;         ///< Untraced single-thread pass.
  /// Untraced wall of the traced pass's own run mode: the single-thread
  /// pass, or the timed median where the timed mode is single-threaded.
  double untraced_wall_s = 0;
  double traced_wall_s = 0;         ///< Traced pass.
  uint64_t executor_tasks = 0;      ///< Tasks submitted in one timed rep.
};

/// Adds the end-to-end metrics to `report`.
void AddEndToEnd(const VirtualFigures& fig,
                 const flashdb::workload::LatencyHistogram& latency,
                 const HostTimes& host, RunReport* report);

/// Adds the per-layer metrics to `report`: span totals of the traced pass,
/// and store host time attributed by layer as unit cost times count (see
/// README.md, "Attribution"). `worst_gc_us` is the GC time inside the
/// slowest recorded op.
void AddPerLayer(const VirtualFigures& fig, const HostTimes& host,
                 const SpanLog& spans, const UnitCosts& unit,
                 uint64_t worst_gc_us, bool has_buffer, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_FIGURES_H_
