// update_pdl and read_mostly_pdl: the paper's Sec. 5.1 update operations on
// PDL(256B), driven through UpdateDriver from pre-drawn schedules.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "figures.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "timed_store.h"
#include "workload/update_driver.h"
#include "workloads.h"

namespace perfbench {

namespace {

using flashdb::ByteBuffer;
using flashdb::PageId;
using flashdb::PageStore;
using flashdb::Result;
using flashdb::Status;
using flashdb::workload::RunStats;
using flashdb::workload::Schedule;
namespace flash = flashdb::flash;
namespace ftl = flashdb::ftl;

struct UpdateConfig {
  uint32_t chips = 1;
  uint32_t blocks_per_chip = 64;
  double pct_update_ops = 100;
  uint64_t measure_ops = 0;
  /// Timed mode: RunPipelined on a `chips`-worker executor when true,
  /// sequential Run otherwise.
  bool pipelined = false;
  uint32_t batch = 1;    ///< Window size of the scheduled modes.
  uint32_t credits = 1;  ///< RunPipelined windows in flight per shard.
  /// Every pass runs the measured schedule in consecutive chunks of this
  /// many ops, each timed on its own; `ops_per_s` is the median over the
  /// chunks of every timed repetition, so a neighbour's burst on the shared
  /// cores slows a few chunks instead of the whole figure.
  uint64_t chunk_ops = 0;
};

constexpr double kUtilization = 0.5;
constexpr double kChangedPct = 2.0;  // %ChangedByOneU_Op
/// GC steady state: the warm-up runs until the chips have erased this many
/// blocks per block since the load.
constexpr double kWarmupErasesPerBlock = 2.0;
/// Update operations per warm-up schedule chunk.
constexpr uint64_t kWarmupChunkUpdates = 4096;
constexpr uint32_t kMaxWarmupChunks = 200;
constexpr int kMinTimedReps = 3;

UpdateConfig ConfigFor(const std::string& workload) {
  UpdateConfig c;
  if (workload == "update_pdl") {
    c.chips = 3;
    c.blocks_per_chip = 64;
    c.pct_update_ops = 100;
    c.measure_ops = 100000;
    c.pipelined = true;
    c.batch = 8;
    // Deep enough that a worker rarely drains its queue while the submitting
    // thread waits for a core: on shared cores a shallow queue turns every
    // late wake-up into an idle chip.
    c.credits = 32;
    c.chunk_ops = 2000;
  } else {  // read_mostly_pdl
    c.chips = 1;
    c.blocks_per_chip = 64;
    c.pct_update_ops = 10;
    c.measure_ops = 200000;
    // One chunk: the single-threaded window is steady as a whole.
    c.chunk_ops = c.measure_ops;
  }
  return c;
}

const flashdb::methods::MethodSpec kPdl256{flashdb::methods::MethodKind::kPdl,
                                           256};

/// The initial image UpdateDriver::LoadDatabase gives `pid`, rebuilt here from
/// the seed alone: the shadow's starting point.
void InitialImage(uint64_t seed, PageId pid, flashdb::MutBytes page) {
  flashdb::Random r(seed ^ (0x517CC1B727220A95ULL * (pid + 1)));
  r.Fill(page);
}

void ApplyToShadow(const Schedule& schedule, std::vector<ByteBuffer>* shadow) {
  for (const auto& op : schedule) {
    if (!op.is_update) continue;
    for (const auto& u : op.updates) {
      std::memcpy((*shadow)[op.pid].data() + u.offset, u.data.data(),
                  u.data.size());
    }
  }
}

/// One chip set at GC steady state with its driver, measured schedule and
/// benchmark-owned shadow of every logical page.
struct Rig {
  std::vector<std::unique_ptr<flash::FlashDevice>> devs;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<flashdb::workload::UpdateDriver> driver;
  Schedule measured;
  std::vector<ByteBuffer> shadow;
  uint64_t warmup_ops = 0;
  double setup_s = 0;

  std::vector<flash::FlashDevice*> chips() const {
    std::vector<flash::FlashDevice*> v;
    for (const auto& d : devs) v.push_back(d.get());
    return v;
  }
};

/// PDL(256B) over `devs`: the plain single-chip store for one chip, a
/// ShardedStore otherwise. With `log` each chip's store is wrapped in a
/// TimedStore.
std::unique_ptr<PageStore> Mount(
    const std::vector<std::unique_ptr<flash::FlashDevice>>& devs,
    SpanLog* log) {
  auto make = [&](size_t i) -> std::unique_ptr<PageStore> {
    auto s = flashdb::methods::CreateStore(devs[i].get(), kPdl256);
    if (log == nullptr) return s;
    return std::make_unique<TimedStore>(std::move(s),
                                        static_cast<uint16_t>(i), log);
  };
  if (devs.size() == 1) return make(0);
  std::vector<ftl::ShardedStore::Shard> shards(devs.size());
  for (size_t i = 0; i < devs.size(); ++i) {
    shards[i].device = devs[i].get();
    shards[i].store = make(i);
  }
  return std::make_unique<ftl::ShardedStore>(std::move(shards));
}

/// Formats, loads and warms up a rig, then draws the measured schedule.
/// `setup_s` covers only the store and driver work; the shadow's upkeep is
/// oracle work and stays out of it.
Result<Rig> Prepare(const UpdateConfig& cfg, uint64_t seed,
                    bool record_latency, SpanLog* log) {
  Rig rig;
  auto t = Clock::now();
  for (uint32_t i = 0; i < cfg.chips; ++i) {
    rig.devs.push_back(std::make_unique<flash::FlashDevice>(
        flash::FlashConfig::Small(cfg.blocks_per_chip)));
  }
  rig.store = Mount(rig.devs, log);
  flashdb::workload::WorkloadParams wp;
  wp.pct_changed_by_one_op = kChangedPct;
  wp.updates_till_write = 1;
  wp.pct_update_ops = cfg.pct_update_ops;
  wp.seed = seed;
  wp.record_latency = record_latency;
  rig.driver =
      std::make_unique<flashdb::workload::UpdateDriver>(rig.store.get(), wp);
  const auto& g = rig.devs[0]->geometry();
  const uint32_t pages = static_cast<uint32_t>(
      kUtilization * (g.total_pages() - 2 * g.pages_per_block) * cfg.chips);
  FLASHDB_RETURN_IF_ERROR(rig.driver->LoadDatabase(pages));
  std::unique_ptr<ftl::ShardExecutor> exec;
  if (cfg.pipelined) exec = std::make_unique<ftl::ShardExecutor>(cfg.chips);
  const uint64_t target =
      rig.store->total_erases() +
      static_cast<uint64_t>(kWarmupErasesPerBlock * cfg.blocks_per_chip *
                            cfg.chips);
  const uint64_t chunk_ops = static_cast<uint64_t>(
      static_cast<double>(kWarmupChunkUpdates) * 100.0 / cfg.pct_update_ops);
  double setup = SecondsSince(t);

  rig.shadow.assign(pages, ByteBuffer(g.data_size));
  for (PageId pid = 0; pid < pages; ++pid) {
    InitialImage(seed, pid, rig.shadow[pid]);
  }

  // Warm-up through pre-drawn schedules, so that every update it applies is
  // visible to the shadow. Only the update operations of each drawn chunk
  // run: reads change no page and would only slow the warm-up.
  for (uint32_t chunk = 0;; ++chunk) {
    t = Clock::now();
    if (rig.store->total_erases() >= target) {
      setup += SecondsSince(t);
      break;
    }
    if (chunk == kMaxWarmupChunks) {
      return Status::Aborted("warm-up did not reach GC steady state");
    }
    Schedule drawn = rig.driver->MakeSchedule(chunk_ops);
    Schedule warm;
    for (auto& op : drawn) {
      if (op.is_update) warm.push_back(std::move(op));
    }
    RunStats rs;
    FLASHDB_RETURN_IF_ERROR(
        exec != nullptr
            ? rig.driver->RunPipelined(warm, cfg.batch, cfg.credits,
                                       exec.get(), &rs)
            : rig.driver->RunBatched(warm, cfg.batch, &rs));
    setup += SecondsSince(t);
    rig.warmup_ops += warm.size();
    ApplyToShadow(warm, &rig.shadow);
  }

  t = Clock::now();
  // Run() draws its own operations; restoring the generator after drawing
  // the schedule makes Run() execute exactly the drawn operations.
  const flashdb::Random saved = rig.driver->rng();
  rig.measured = rig.driver->MakeSchedule(cfg.measure_ops);
  if (!cfg.pipelined) rig.driver->rng() = saved;
  exec.reset();
  rig.setup_s = setup + SecondsSince(t);
  return rig;
}

/// Every logical page of `store` must equal the shadow.
Status CheckPages(PageStore* store, const std::vector<ByteBuffer>& shadow,
                  const std::string& when) {
  ByteBuffer page(shadow[0].size());
  for (PageId pid = 0; pid < shadow.size(); ++pid) {
    FLASHDB_RETURN_IF_ERROR(store->ReadPage(pid, page));
    if (page != shadow[pid]) {
      return Status::Corruption("oracle failed: page " + std::to_string(pid) +
                                " differs from the shadow " + when);
    }
  }
  return Status::OK();
}

enum class Pass { kTimed, kSingle, kLatency, kTraced };

struct PassResult {
  VirtualFigures fig;
  double wall_s = 0;
  std::vector<double> chunk_rates;  ///< Ops per host second by chunk.
  uint64_t tasks = 0;
};

/// Runs the measured schedule on `rig` in the pass's mode, then checks the
/// oracles: op counts and, with `check_pages`, every page against the shadow,
/// and every page again after Flush, a remount over the same chips and
/// Recover().
Result<PassResult> Execute(const UpdateConfig& cfg, Rig* rig, Pass pass,
                           SpanLog* log, bool check_pages) {
  const bool threaded =
      cfg.pipelined && (pass == Pass::kTimed || pass == Pass::kLatency);
  std::unique_ptr<ftl::ShardExecutor> exec;
  if (threaded) exec = std::make_unique<ftl::ShardExecutor>(cfg.chips);
  auto* driver = rig->driver.get();
  RunStats rs;
  const ChipSnap before = Snap(rig->chips());
  if (log != nullptr) {
    log->set_enabled(true);
    log->BeginWorkload();
  }
  // Chunks are cut before the clock starts. A chunk ends every shard's
  // last window, in every pass alike.
  std::vector<Schedule> chunks;
  for (size_t b = 0; b < rig->measured.size(); b += cfg.chunk_ops) {
    const size_t e = std::min<size_t>(rig->measured.size(), b + cfg.chunk_ops);
    chunks.emplace_back(rig->measured.begin() + static_cast<ptrdiff_t>(b),
                        rig->measured.begin() + static_cast<ptrdiff_t>(e));
  }
  PassResult r;
  Status s;
  const auto t0 = Clock::now();
  for (const Schedule& chunk : chunks) {
    const auto c0 = Clock::now();
    if (threaded) {
      s = driver->RunPipelined(chunk, cfg.batch, cfg.credits, exec.get(), &rs);
    } else if (cfg.pipelined || pass == Pass::kSingle) {
      // The single-thread scheduled mode; with one-op windows it is the
      // sequential Run() sequence.
      s = driver->RunBatched(chunk, cfg.pipelined ? cfg.batch : 1, &rs);
    } else {
      s = driver->Run(chunk.size(), &rs);
    }
    if (!s.ok()) break;
    r.chunk_rates.push_back(static_cast<double>(chunk.size()) /
                            SecondsSince(c0));
  }
  r.wall_s = SecondsSince(t0);
  if (log != nullptr) {
    log->EndWorkload();
    log->set_enabled(false);
  }
  FLASHDB_RETURN_IF_ERROR(s);
  if (exec != nullptr) {
    for (uint32_t w = 0; w < exec->num_workers(); ++w) {
      r.tasks += exec->submitted_count(w);
    }
    exec.reset();
  }
  r.fig.SetDevice(before, Snap(rig->chips()));
  r.fig.ops = rs.operations;
  r.fig.update_ops = rs.update_ops;
  r.fig.latency = rs.latency;
  r.fig.worst = rs.worst_op;

  const uint64_t planned_updates = static_cast<uint64_t>(
      std::count_if(rig->measured.begin(), rig->measured.end(),
                    [](const auto& op) { return op.is_update; }));
  FLASHDB_RETURN_IF_ERROR(Check(rs.operations == rig->measured.size(),
                                "RunStats.operations equals the schedule"));
  FLASHDB_RETURN_IF_ERROR(Check(rs.update_ops == planned_updates,
                                "RunStats.update_ops equals the schedule"));
  if (!check_pages) return r;
  ApplyToShadow(rig->measured, &rig->shadow);
  FLASHDB_RETURN_IF_ERROR(
      CheckPages(rig->store.get(), rig->shadow, "after the run"));
  FLASHDB_RETURN_IF_ERROR(rig->store->Flush());
  std::unique_ptr<PageStore> remounted = Mount(rig->devs, nullptr);
  FLASHDB_RETURN_IF_ERROR(remounted->Recover());
  FLASHDB_RETURN_IF_ERROR(CheckPages(remounted.get(), rig->shadow,
                                     "after Flush, remount and Recover"));
  return r;
}

/// Fails when `fig` differs from the reference figures of the first pass.
Status Agree(const VirtualFigures& ref, const VirtualFigures& fig,
             const char* pass) {
  const std::string diff = FirstDifference(ref, fig, false);
  return diff.empty() ? Status::OK()
                      : Status::Corruption(
                            std::string("determinism: ") + pass +
                            " differs from the timed pass in " + diff);
}

}  // namespace

Status RunUpdateWorkload(const Args& args, RunReport* report) {
  const UpdateConfig cfg = ConfigFor(args.workload);
  HostTimes host;
  VirtualFigures ref;

  // Timed repetitions, each on a freshly prepared rig, until --seconds. The
  // repetitions reach identical states (the determinism check), so the page
  // oracles run on the first one only and leave time for more repetitions.
  const auto start = Clock::now();
  for (int rep = 0; rep < kMinTimedReps || SecondsSince(start) < args.seconds;
       ++rep) {
    FLASHDB_ASSIGN_OR_RETURN(Rig rig, Prepare(cfg, args.seed, false, nullptr));
    host.setup_s.push_back(rig.setup_s);
    FLASHDB_ASSIGN_OR_RETURN(
        PassResult pr, Execute(cfg, &rig, Pass::kTimed, nullptr, rep == 0));
    host.timed_wall_s.push_back(pr.wall_s);
    host.rates.insert(host.rates.end(), pr.chunk_rates.begin(),
                      pr.chunk_rates.end());
    host.executor_tasks = pr.tasks;
    report->Note("timed rep", rig.setup_s, pr.wall_s);
    if (rep == 0) ref = pr.fig;
    FLASHDB_RETURN_IF_ERROR(Agree(ref, pr.fig, "a timed repetition"));
    report->attempted += pr.fig.ops;
    if (rep == 0) {
      report->notes.push_back(
          "input: " + std::to_string(cfg.chips) + " chip(s) x " +
          std::to_string(cfg.blocks_per_chip) +
          " blocks x 64 pages x 2048 B, " +
          std::to_string(rig.shadow.size()) + " logical pages, warm-up " +
          std::to_string(rig.warmup_ops) + " update ops, measured " +
          std::to_string(ref.ops) + " ops (" + std::to_string(ref.update_ops) +
          " updates)");
    }
  }

  // Untraced single-thread pass.
  {
    FLASHDB_ASSIGN_OR_RETURN(Rig rig, Prepare(cfg, args.seed, false, nullptr));
    host.setup_s.push_back(rig.setup_s);
    FLASHDB_ASSIGN_OR_RETURN(
        PassResult pr, Execute(cfg, &rig, Pass::kSingle, nullptr, true));
    host.single_wall_s = pr.wall_s;
    report->Note("single-thread pass", rig.setup_s, pr.wall_s);
    FLASHDB_RETURN_IF_ERROR(Agree(ref, pr.fig, "the single-thread pass"));
    report->attempted += pr.fig.ops;
  }
  host.untraced_wall_s =
      cfg.pipelined ? host.single_wall_s : Median(host.timed_wall_s);

  // Latency pass: the timed mode with per-op latency recording on.
  VirtualFigures lat;
  {
    FLASHDB_ASSIGN_OR_RETURN(Rig rig, Prepare(cfg, args.seed, true, nullptr));
    host.setup_s.push_back(rig.setup_s);
    FLASHDB_ASSIGN_OR_RETURN(
        PassResult pr, Execute(cfg, &rig, Pass::kLatency, nullptr, true));
    lat = pr.fig;
    report->Note("latency pass", rig.setup_s, pr.wall_s);
    FLASHDB_RETURN_IF_ERROR(Agree(ref, lat, "the latency pass"));
    FLASHDB_RETURN_IF_ERROR(Check(lat.latency.count() == lat.ops,
                                  "one latency sample per operation"));
    report->attempted += pr.fig.ops;
  }

  // Traced pass: the single-thread mode with every chip's store wrapped.
  SpanLog spans;
  VirtualFigures traced;
  std::vector<ByteBuffer> sample_pages;
  {
    FLASHDB_ASSIGN_OR_RETURN(Rig rig, Prepare(cfg, args.seed, false, &spans));
    FLASHDB_ASSIGN_OR_RETURN(
        PassResult pr, Execute(cfg, &rig, Pass::kTraced, &spans, true));
    host.traced_wall_s = pr.wall_s;
    report->Note("traced pass", rig.setup_s, pr.wall_s);
    traced = pr.fig;
    FLASHDB_RETURN_IF_ERROR(Agree(ref, traced, "the traced pass"));
    report->attempted += pr.fig.ops;
    for (size_t i = 0; i < 64; ++i) {
      sample_pages.push_back(rig.shadow[i * rig.shadow.size() / 64]);
    }
  }
  const UnitCosts unit = ProbeUnitCosts(
      sample_pages,
      static_cast<uint32_t>(kChangedPct / 100.0 * sample_pages[0].size() + 0.5),
      flash::FlashConfig::Small(cfg.blocks_per_chip), args.seed);

  AddEndToEnd(ref, lat.latency, host, report);
  AddPerLayer(traced, host, spans, unit, lat.worst.gc_us, false, report);
  if (!args.spans_path.empty()) {
    FLASHDB_RETURN_IF_ERROR(spans.WriteCsv(args.spans_path));
  }
  return Status::OK();
}

}  // namespace perfbench
