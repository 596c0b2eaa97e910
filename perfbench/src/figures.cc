#include "figures.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/random.h"
#include "pdl/differential.h"

namespace perfbench {

using flashdb::ByteBuffer;
using flashdb::flash::OpCounters;
using flashdb::workload::LatencyHistogram;

ChipSnap Snap(const std::vector<flashdb::flash::FlashDevice*>& chips) {
  ChipSnap s;
  for (flashdb::flash::FlashDevice* dev : chips) {
    const flashdb::flash::FlashStats& st = dev->stats();
    s.total += st.total;
    for (int c = 0; c < flashdb::flash::kNumOpCategories; ++c) {
      s.by_category[c] += st.by_category[c];
    }
    s.clock_us.push_back(dev->clock().now_us());
  }
  return s;
}

void VirtualFigures::SetDevice(const ChipSnap& before, const ChipSnap& after) {
  total = after.total - before.total;
  for (int c = 0; c < flashdb::flash::kNumOpCategories; ++c) {
    by_category[c] = after.by_category[c] - before.by_category[c];
  }
  chip_advance_us.clear();
  for (size_t i = 0; i < after.clock_us.size(); ++i) {
    chip_advance_us.push_back(after.clock_us[i] - before.clock_us[i]);
  }
}

uint64_t VirtualFigures::elapsed_us() const {
  uint64_t m = 0;
  for (uint64_t a : chip_advance_us) m = std::max(m, a);
  return m;
}

namespace {
bool SameCounters(const OpCounters& a, const OpCounters& b) {
  return a.reads == b.reads && a.writes == b.writes && a.erases == b.erases &&
         a.read_us == b.read_us && a.write_us == b.write_us &&
         a.erase_us == b.erase_us;
}
}  // namespace

std::string FirstDifference(const VirtualFigures& a, const VirtualFigures& b,
                            bool with_latency) {
  if (a.ops != b.ops) return "ops";
  if (a.update_ops != b.update_ops) return "update_ops";
  if (!SameCounters(a.total, b.total)) return "device counters";
  for (int c = 0; c < flashdb::flash::kNumOpCategories; ++c) {
    if (!SameCounters(a.by_category[c], b.by_category[c])) {
      return "device counters of category " + std::to_string(c);
    }
  }
  if (a.chip_advance_us != b.chip_advance_us) return "chip clocks";
  if (a.buffer.hits != b.buffer.hits || a.buffer.misses != b.buffer.misses ||
      a.buffer.evictions != b.buffer.evictions ||
      a.buffer.dirty_writebacks != b.buffer.dirty_writebacks) {
    return "buffer pool counters";
  }
  if (a.txn_types != b.txn_types) return "transaction mix";
  if (with_latency) {
    if (!(a.latency == b.latency)) return "latency histogram";
    if (!(a.worst == b.worst)) return "worst op";
  }
  return "";
}

namespace {

/// Median ns per call of `fn(i)` over `batches` timed batches of `per_batch`
/// calls each.
template <typename Fn>
double TimePerCall(int batches, size_t per_batch, Fn&& fn) {
  std::vector<double> samples;
  size_t i = 0;
  for (int b = 0; b < batches; ++b) {
    const uint64_t t0 = NowNs();
    for (size_t k = 0; k < per_batch; ++k) fn(i++);
    samples.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(per_batch));
  }
  return Median(samples);
}

}  // namespace

UnitCosts ProbeUnitCosts(const std::vector<ByteBuffer>& bases,
                         uint32_t changed_bytes,
                         const flashdb::flash::FlashConfig& chip_config,
                         uint64_t seed) {
  UnitCosts u;
  const size_t n = bases.size();
  const uint32_t page = static_cast<uint32_t>(bases[0].size());
  flashdb::Random rng(seed ^ 0xC0DECC0DEULL);
  std::vector<ByteBuffer> updated = bases;
  for (ByteBuffer& img : updated) {
    const uint64_t regions = 1 + rng.Uniform(4);
    for (uint64_t r = 0; r < regions; ++r) {
      const uint32_t off =
          static_cast<uint32_t>(rng.Uniform(page - changed_bytes + 1));
      rng.Fill(flashdb::MutBytes(img.data() + off, changed_bytes));
    }
  }
  constexpr int kBatches = 15;
  // The sink keeps the compiler from dropping the timed calls.
  volatile uint64_t sink = 0;

  u.crc_ns = TimePerCall(kBatches, 512, [&](size_t i) {
    sink = sink + flashdb::Crc32c(bases[i % n]);
  });

  std::vector<flashdb::pdl::Differential> diffs(n);
  for (size_t i = 0; i < n; ++i) {
    diffs[i] = flashdb::pdl::ComputeDifferential(
        bases[i], updated[i], static_cast<flashdb::PageId>(i), 1);
  }
  flashdb::pdl::Differential scratch;
  u.diff_compute_ns = TimePerCall(kBatches, 512, [&](size_t i) {
    flashdb::pdl::ComputeDifferentialInto(
        bases[i % n], updated[i % n], static_cast<flashdb::PageId>(i % n), 1,
        flashdb::pdl::kExtentHeaderSize, &scratch);
    sink = sink + scratch.EncodedSize();
  });

  ByteBuffer work(page);
  u.diff_apply_ns = TimePerCall(kBatches, 512, [&](size_t i) {
    // The merge reads the base image into the frame first, as a read does.
    std::copy(bases[i % n].begin(), bases[i % n].end(), work.begin());
    (void)diffs[i % n].ApplyTo(work);
    sink = sink + work[i % page];
  });

  // A private chip of the workload's page geometry: program every page of
  // one block in order, erasing it (untimed) when full.
  flashdb::flash::FlashConfig cfg = chip_config;
  cfg.geometry.num_blocks = 4;
  cfg.geometry.meta_blocks = 0;
  flashdb::flash::FlashDevice dev(cfg);
  const uint32_t ppb = cfg.geometry.pages_per_block;
  ByteBuffer spare(cfg.geometry.spare_size, 0xFF);
  std::vector<double> prog, read;
  ByteBuffer out(page), out_spare(cfg.geometry.spare_size);
  for (int b = 0; b < kBatches; ++b) {
    const uint32_t block = static_cast<uint32_t>(b) % cfg.geometry.num_blocks;
    (void)dev.EraseBlock(block);
    uint64_t t0 = NowNs();
    for (uint32_t p = 0; p < ppb; ++p) {
      spare[0] = static_cast<uint8_t>(p);
      (void)dev.ProgramPage(dev.AddrOf(block, p), bases[(b * ppb + p) % n],
                            spare);
    }
    prog.push_back(static_cast<double>(NowNs() - t0) / ppb);
    t0 = NowNs();
    for (uint32_t p = 0; p < ppb; ++p) {
      (void)dev.ReadPage(dev.AddrOf(block, p), out, out_spare);
      sink = sink + out[p];
    }
    read.push_back(static_cast<double>(NowNs() - t0) / ppb);
  }
  u.program_ns = Median(prog);
  u.read_ns = Median(read);
  return u;
}

namespace {
double InterpolatedOr0(const LatencyHistogram& h, double p) {
  return h.count() == 0 ? 0 : InterpolatedPercentile(h, p);
}
}  // namespace

void AddEndToEnd(const VirtualFigures& fig, const LatencyHistogram& latency,
                 const HostTimes& host, RunReport* report) {
  const double ops = static_cast<double>(fig.ops);
  auto& m = report->end_to_end;
  m.push_back({"setup_s", Median(host.setup_s), "s"});
  m.push_back({"ops_per_s", Median(host.rates), "ops/s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  m.push_back({"vt_us_per_op",
               static_cast<double>(fig.total.total_us()) / ops, "us"});
  m.push_back({"vt_kops_per_s",
               Ratio(ops * 1000.0, static_cast<double>(fig.elapsed_us())),
               "kops/s"});
  m.push_back({"vt_p50_us", InterpolatedOr0(latency, 50.0), "us"});
  m.push_back({"vt_p999_us", InterpolatedOr0(latency, 99.9), "us"});
  m.push_back({"flash_pages_per_op",
               static_cast<double>(fig.total.writes) / ops, "pages"});
  m.push_back({"erases_per_kop",
               1000.0 * static_cast<double>(fig.total.erases) / ops,
               "erases"});
}

void AddPerLayer(const VirtualFigures& fig, const HostTimes& host,
                 const SpanLog& spans, const UnitCosts& unit,
                 uint64_t worst_gc_us, bool has_buffer, RunReport* report) {
  const double ops = static_cast<double>(fig.ops);
  const auto rd = spans.Totals(SpanKind::kReadPage);
  const auto wb = spans.Totals(SpanKind::kWriteBack);
  const auto batch = spans.Totals(SpanKind::kWriteBatch);
  const auto flush = spans.Totals(SpanKind::kFlush);
  const auto work = spans.Totals(SpanKind::kWorkload);
  const double store_ns =
      static_cast<double>(rd.ns + wb.ns + batch.ns + flush.ns);
  const double pages_written = static_cast<double>(wb.pages + batch.pages);

  // Attribution: unit cost x count. Every data read is verified and every
  // program is checksummed, so checksum pages = device reads + programs.
  // Each page written back computes one differential; each read that needed
  // more than the base page (device reads outside GC beyond one per
  // ReadPage) merges one.
  const double reads = static_cast<double>(fig.total.reads);
  const double programs = static_cast<double>(fig.total.writes);
  const double crc_pages = reads + programs;
  const double crc_ns = crc_pages * unit.crc_ns;
  const double flash_ns = reads * unit.read_ns + programs * unit.program_ns;
  const double applies = std::max(
      0.0, reads - static_cast<double>(fig.gc().reads) -
               static_cast<double>(rd.calls) - pages_written);
  const double codec_ns =
      pages_written * unit.diff_compute_ns + applies * unit.diff_apply_ns;

  auto& m = report->per_layer;
  m.push_back({"checksum.ns_per_page", unit.crc_ns, "ns"});
  m.push_back({"checksum.pages_per_op", crc_pages / ops, "pages"});
  m.push_back({"checksum.store_share", Ratio(crc_ns, store_ns), "fraction"});
  m.push_back({"flash.program_ns", unit.program_ns, "ns"});
  m.push_back({"flash.read_ns", unit.read_ns, "ns"});
  m.push_back({"flash.reads_per_op", reads / ops, "count"});
  m.push_back({"flash.programs_per_op", programs / ops, "count"});
  m.push_back({"flash.read_us_per_op",
               static_cast<double>(fig.total.read_us) / ops, "us"});
  m.push_back({"flash.write_us_per_op",
               static_cast<double>(fig.total.write_us) / ops, "us"});
  m.push_back({"codec.compute_ns", unit.diff_compute_ns, "ns"});
  m.push_back({"codec.apply_ns", unit.diff_apply_ns, "ns"});
  m.push_back({"gc.us_per_op", static_cast<double>(fig.gc().total_us()) / ops,
               "us"});
  m.push_back({"gc.pages_per_op", static_cast<double>(fig.gc().writes) / ops,
               "count"});
  m.push_back({"gc.worst_op_us", static_cast<double>(worst_gc_us), "us"});
  m.push_back({"store.read_host_us",
               Ratio(static_cast<double>(rd.ns) / 1e3,
                     static_cast<double>(rd.pages)),
               "us"});
  m.push_back({"store.write_host_us",
               Ratio(static_cast<double>(wb.ns + batch.ns + flush.ns) / 1e3,
                     pages_written),
               "us"});
  m.push_back({"store.host_share",
               Ratio(store_ns, static_cast<double>(work.ns)), "fraction"});
  m.push_back({"store.unattributed_share",
               Ratio(store_ns - crc_ns - flash_ns - codec_ns, store_ns),
               "fraction"});
  double median_timed = Median(host.timed_wall_s);
  m.push_back({"executor.speedup", Ratio(host.single_wall_s, median_timed),
               "x"});
  m.push_back({"executor.tasks_per_op",
               static_cast<double>(host.executor_tasks) / ops, "count"});
  const double above_store_us =
      (static_cast<double>(work.ns) - store_ns) / 1e3 / ops;
  m.push_back({"workload.host_us_per_op", above_store_us, "us"});
  const double txns = ops;
  m.push_back({"buffer.hit_rate", has_buffer ? fig.buffer.hit_rate() : 0,
               "fraction"});
  m.push_back({"buffer.misses_per_txn",
               has_buffer ? static_cast<double>(fig.buffer.misses) / txns : 0,
               "count"});
  m.push_back({"buffer.evictions_per_txn",
               has_buffer ? static_cast<double>(fig.buffer.evictions) / txns
                          : 0,
               "count"});
  m.push_back(
      {"buffer.writebacks_per_txn",
       has_buffer ? static_cast<double>(fig.buffer.dirty_writebacks) / txns
                  : 0,
       "count"});
  m.push_back({"dbms.host_us_per_txn", has_buffer ? above_store_us : 0, "us"});
  m.push_back({"trace.overhead",
               Ratio(host.traced_wall_s, host.untraced_wall_s), "x"});
  // Diagnostics beside the contract metrics: the other attributed shares.
  m.push_back({"flash.store_share", Ratio(flash_ns, store_ns), "fraction"});
  m.push_back({"codec.store_share", Ratio(codec_ns, store_ns), "fraction"});
}

}  // namespace perfbench
