// tpcc_pdl: TpccDriver serving 3 warehouses from 3 clients over 3 PDL(256B)
// shards, write-through commits, 5% hot and 10% remote traffic.

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "figures.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "timed_store.h"
#include "workload/tpcc_driver.h"
#include "workloads.h"

namespace perfbench {

namespace {

using flashdb::ByteBuffer;
using flashdb::PageId;
using flashdb::Result;
using flashdb::Status;
using flashdb::methods::MethodKind;
using flashdb::methods::MethodSpec;
using flashdb::workload::TpccCommitLog;
using flashdb::workload::TpccDriver;
using flashdb::workload::TpccDriverOptions;
using flashdb::workload::TpccRunStats;
namespace flash = flashdb::flash;
namespace ftl = flashdb::ftl;

constexpr uint32_t kShards = 3;
constexpr uint32_t kPageSize = 2048;  // FlashConfig::Small geometry
constexpr uint64_t kWarmupTxns = 2000;
constexpr uint64_t kMeasureTxns = 15000;
/// The measured window is served in chunks of this many transactions, each
/// timed on its own, so that `ops_per_s` is a median over many short
/// windows: a neighbour's burst on the shared cores then slows a few chunks
/// instead of the whole figure. A multiple of the client count, so chunked
/// serving draws exactly the transactions one Serve() call would.
constexpr uint64_t kChunkTxns = 300;
constexpr uint32_t kClients = 3;
static_assert(kMeasureTxns % kChunkTxns == 0 && kChunkTxns % kClients == 0);
/// Flash pages per hosted page: tight enough that GC runs in the measured
/// window (at 2x, 40k transactions erase nothing).
constexpr double kFlashPerHostedPage = 1.25;
constexpr int kMinTimedReps = 3;
/// Bytes per changed region in the codec probe's page pairs: 2% of a page,
/// the update workloads' region size.
constexpr uint32_t kProbeChangedBytes = 41;
const MethodSpec kPdl256{MethodKind::kPdl, 256};
const MethodSpec kOpu{MethodKind::kOpu, 0};

TpccDriverOptions Options(uint64_t seed) {
  TpccDriverOptions o;
  o.scale.warehouses = 3;
  o.scale.districts_per_warehouse = 4;
  o.scale.customers_per_district = 40;
  o.scale.items = 400;
  o.scale.init_orders_per_district = 15;
  // Every insert of the warm-up and measured transactions fits, so no
  // transaction fails for lack of table space.
  o.scale.transaction_headroom =
      static_cast<uint32_t>(kWarmupTxns + kMeasureTxns + 500);
  o.num_clients = kClients;
  o.seed = seed;
  o.frames_per_shard = 64;
  o.hot_warehouse_pct = 5.0;
  o.remote_pct = 10.0;
  // Deep enough that the producer seldom parks on a credit: every park is a
  // wake-up through the scheduler, whose latency on shared cores would
  // otherwise set the throughput.
  o.max_inflight_per_shard = 64;
  o.flush_every_txn = true;
  return o;
}

struct Rig {
  std::vector<std::unique_ptr<flash::FlashDevice>> devs;
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<TpccDriver> driver;
  TpccCommitLog warm_log;
  double setup_s = 0;

  std::vector<flash::FlashDevice*> chips() const {
    std::vector<flash::FlashDevice*> v;
    for (const auto& d : devs) v.push_back(d.get());
    return v;
  }
};

std::unique_ptr<ftl::ShardedStore> Mount(
    const std::vector<std::unique_ptr<flash::FlashDevice>>& devs,
    const MethodSpec& spec, SpanLog* log) {
  std::vector<ftl::ShardedStore::Shard> shards(devs.size());
  for (size_t i = 0; i < devs.size(); ++i) {
    shards[i].device = devs[i].get();
    auto s = flashdb::methods::CreateStore(devs[i].get(), spec);
    if (log != nullptr) {
      s = std::make_unique<TimedStore>(std::move(s), static_cast<uint16_t>(i),
                                       log);
    }
    shards[i].store = std::move(s);
  }
  return std::make_unique<ftl::ShardedStore>(std::move(shards));
}

/// Formats and loads a rig; `warmup` is served when non-null (executor
/// threads when `threaded`), or else the caller replays a warm-up log.
Result<Rig> Prepare(const MethodSpec& spec, uint64_t seed, SpanLog* log,
                    bool threaded, bool serve_warmup) {
  Rig rig;
  const auto t0 = Clock::now();
  const TpccDriverOptions opts = Options(seed);
  const uint32_t pages_per_shard =
      TpccDriver::PagesPerShard(opts.scale, kPageSize, kShards);
  const uint32_t blocks = static_cast<uint32_t>(
      std::ceil(pages_per_shard * kFlashPerHostedPage / 64.0)) + 4;
  for (uint32_t i = 0; i < kShards; ++i) {
    rig.devs.push_back(std::make_unique<flash::FlashDevice>(
        flash::FlashConfig::Small(blocks)));
  }
  rig.store = Mount(rig.devs, spec, log);
  FLASHDB_RETURN_IF_ERROR(
      rig.store->Format(kShards * pages_per_shard, nullptr, nullptr));
  rig.driver = std::make_unique<TpccDriver>(rig.store.get(), opts);
  std::unique_ptr<ftl::ShardExecutor> exec;
  if (threaded) exec = std::make_unique<ftl::ShardExecutor>(kShards);
  FLASHDB_RETURN_IF_ERROR(rig.driver->Load(exec.get()));
  if (serve_warmup) {
    FLASHDB_RETURN_IF_ERROR(
        rig.driver->Serve(kWarmupTxns, exec.get(), nullptr));
    rig.warm_log = rig.driver->commit_log();
  }
  exec.reset();
  rig.setup_s = SecondsSince(t0);
  return rig;
}

flashdb::storage::BufferPoolStats PoolStats(Rig* rig) {
  flashdb::storage::BufferPoolStats sum;
  for (uint32_t s = 0; s < kShards; ++s) {
    const auto& st = rig->driver->shard_pool(s)->stats();
    sum.hits += st.hits;
    sum.misses += st.misses;
    sum.evictions += st.evictions;
    sum.dirty_writebacks += st.dirty_writebacks;
  }
  return sum;
}

/// Reads every logical page of `store`.
Result<std::vector<ByteBuffer>> ReadAll(ftl::ShardedStore* store) {
  std::vector<ByteBuffer> pages(store->num_logical_pages(),
                                ByteBuffer(kPageSize));
  for (PageId pid = 0; pid < pages.size(); ++pid) {
    FLASHDB_RETURN_IF_ERROR(store->ReadPage(pid, pages[pid]));
  }
  return pages;
}

/// Every logical page of `store` must equal `pages`.
Status ComparePages(ftl::ShardedStore* store,
                    const std::vector<ByteBuffer>& pages,
                    const std::string& what) {
  ByteBuffer page(kPageSize);
  for (PageId pid = 0; pid < pages.size(); ++pid) {
    FLASHDB_RETURN_IF_ERROR(store->ReadPage(pid, page));
    if (page != pages[pid]) {
      return Status::Corruption("oracle failed: page " + std::to_string(pid) +
                                " differs " + what);
    }
  }
  return Status::OK();
}

struct PassResult {
  VirtualFigures fig;
  double wall_s = 0;
  std::vector<double> chunk_rates;     ///< Txns per host second by chunk.
  uint64_t tasks = 0;
  std::vector<uint64_t> clocks;        ///< Shard clocks after the run.
  std::vector<ByteBuffer> pages;       ///< Logical pages after the run.
  TpccCommitLog log;                   ///< Commit order of the run.
};

/// Serves the measured transactions, then checks the serving oracles and,
/// with `check_pages`, reads every page and checks that it reads back
/// unchanged after FlushAll, a remount over the same chips and Recover().
Result<PassResult> Execute(Rig* rig, bool threaded, SpanLog* log,
                           bool check_pages) {
  std::unique_ptr<ftl::ShardExecutor> exec;
  if (threaded) exec = std::make_unique<ftl::ShardExecutor>(kShards);
  const ChipSnap before = Snap(rig->chips());
  const auto pool_before = PoolStats(rig);
  TpccRunStats stats;
  if (log != nullptr) {
    log->set_enabled(true);
    log->BeginWorkload();
  }
  PassResult r;
  Status s;
  const auto t0 = Clock::now();
  for (uint64_t done = 0; done < kMeasureTxns && s.ok(); done += kChunkTxns) {
    const auto c0 = Clock::now();
    s = rig->driver->Serve(kChunkTxns, exec.get(), &stats);
    r.chunk_rates.push_back(static_cast<double>(kChunkTxns) /
                            SecondsSince(c0));
    // Serve() clears the commit log, so the window's log is the
    // concatenation of the chunks' logs.
    const TpccCommitLog& chunk_log = rig->driver->commit_log();
    r.log.insert(r.log.end(), chunk_log.begin(), chunk_log.end());
  }
  r.wall_s = SecondsSince(t0);
  if (log != nullptr) {
    log->EndWorkload();
    log->set_enabled(false);
  }
  FLASHDB_RETURN_IF_ERROR(s);
  if (exec != nullptr) {
    for (uint32_t w = 0; w < kShards; ++w) r.tasks += exec->submitted_count(w);
    exec.reset();
  }
  r.fig.SetDevice(before, Snap(rig->chips()));
  r.clocks = rig->store->shard_clocks();
  const auto pool_after = PoolStats(rig);
  r.fig.buffer.hits = pool_after.hits - pool_before.hits;
  r.fig.buffer.misses = pool_after.misses - pool_before.misses;
  r.fig.buffer.evictions = pool_after.evictions - pool_before.evictions;
  r.fig.buffer.dirty_writebacks =
      pool_after.dirty_writebacks - pool_before.dirty_writebacks;
  r.fig.ops = stats.transactions;
  r.fig.latency = stats.latency;
  r.fig.worst = stats.worst_op;

  // Serving oracles: every attempted transaction committed, the per-type
  // counts add up, and the mix stays near 45/43/4/4/4.
  FLASHDB_RETURN_IF_ERROR(Check(stats.transactions == kMeasureTxns &&
                                    r.log.size() == kMeasureTxns,
                                "committed transactions equal attempted"));
  std::array<uint64_t, 5> logged{};
  for (const auto& c : r.log) logged[static_cast<size_t>(c.type)]++;
  uint64_t sum = 0;
  const double kMix[5] = {45, 43, 4, 4, 4};
  for (size_t t = 0; t < 5; ++t) {
    r.fig.txn_types[t] = stats.by_type[t].count;
    sum += stats.by_type[t].count;
    FLASHDB_RETURN_IF_ERROR(Check(stats.by_type[t].count == logged[t],
                                  "per-type counts match the commit log"));
    const double pct = 100.0 * static_cast<double>(logged[t]) / kMeasureTxns;
    FLASHDB_RETURN_IF_ERROR(Check(std::abs(pct - kMix[t]) <= 2.5,
                                  "transaction mix near 45/43/4/4/4"));
  }
  FLASHDB_RETURN_IF_ERROR(
      Check(sum == stats.transactions, "per-type counts add up"));
  if (!check_pages) return r;

  FLASHDB_RETURN_IF_ERROR(rig->driver->FlushAll());
  FLASHDB_ASSIGN_OR_RETURN(r.pages, ReadAll(rig->store.get()));
  auto remounted = Mount(rig->devs, kPdl256, nullptr);
  FLASHDB_RETURN_IF_ERROR(remounted->Recover());
  FLASHDB_RETURN_IF_ERROR(ComparePages(
      remounted.get(), r.pages, "after FlushAll, remount and Recover"));
  return r;
}

/// Replays the warm-up and measured logs single-threaded on a fresh rig of
/// `spec`. The logical pages must equal `pages`; with `clocks` non-null the
/// shard clocks right after the replay must equal them too.
Status ReplayOn(const MethodSpec& spec, uint64_t seed,
                const TpccCommitLog& warm, const TpccCommitLog& measured,
                const std::vector<uint64_t>* clocks,
                const std::vector<ByteBuffer>& pages) {
  FLASHDB_ASSIGN_OR_RETURN(Rig rig, Prepare(spec, seed, nullptr, false, false));
  FLASHDB_RETURN_IF_ERROR(rig.driver->Replay(warm, nullptr));
  FLASHDB_RETURN_IF_ERROR(rig.driver->Replay(measured, nullptr));
  if (clocks != nullptr) {
    FLASHDB_RETURN_IF_ERROR(Check(rig.store->shard_clocks() == *clocks,
                                  spec.ToString() +
                                      " replay reproduces the chip clocks"));
  }
  FLASHDB_RETURN_IF_ERROR(rig.driver->FlushAll());
  return ComparePages(rig.store.get(), pages,
                      "after the " + spec.ToString() + " replay");
}

Status Agree(const VirtualFigures& ref, const VirtualFigures& fig,
             const char* pass) {
  const std::string diff = FirstDifference(ref, fig, true);
  return diff.empty() ? Status::OK()
                      : Status::Corruption(
                            std::string("determinism: ") + pass +
                            " differs from the timed pass in " + diff);
}

}  // namespace

Status RunTpccWorkload(const Args& args, RunReport* report) {
  HostTimes host;
  VirtualFigures ref;
  TpccCommitLog warm_log, measured_log;
  std::vector<uint64_t> ref_clocks;
  std::vector<ByteBuffer> ref_pages;

  // The repetitions reach identical states (the determinism check), so the
  // page oracles run on the first one only and leave time for more.
  const auto start = Clock::now();
  for (int rep = 0; rep < kMinTimedReps || SecondsSince(start) < args.seconds;
       ++rep) {
    FLASHDB_ASSIGN_OR_RETURN(Rig rig,
                             Prepare(kPdl256, args.seed, nullptr, true, true));
    host.setup_s.push_back(rig.setup_s);
    FLASHDB_ASSIGN_OR_RETURN(PassResult pr,
                             Execute(&rig, true, nullptr, rep == 0));
    host.timed_wall_s.push_back(pr.wall_s);
    host.rates.insert(host.rates.end(), pr.chunk_rates.begin(),
                      pr.chunk_rates.end());
    host.executor_tasks = pr.tasks;
    report->Note("timed rep", rig.setup_s, pr.wall_s);
    if (rep == 0) {
      const auto& g = rig.devs[0]->geometry();
      report->notes.push_back(
          "input: " + std::to_string(kShards) + " shards x " +
          std::to_string(g.num_blocks) + " blocks x 64 pages x 2048 B, " +
          std::to_string(rig.store->num_logical_pages() / kShards) +
          " hosted pages and " +
          std::to_string(Options(args.seed).frames_per_shard) +
          " frames per shard, " + std::to_string(kWarmupTxns) +
          " warm-up + " + std::to_string(kMeasureTxns) + " measured txns");
      ref = pr.fig;
      warm_log = rig.warm_log;
      measured_log = pr.log;
      ref_clocks = pr.clocks;
      ref_pages = std::move(pr.pages);
    }
    FLASHDB_RETURN_IF_ERROR(Agree(ref, pr.fig, "a timed repetition"));
    report->attempted += pr.fig.ops;
  }

  // Commit-order replay on a fresh PDL rig reproduces every page and chip
  // clock; on an OPU rig of the same geometry it reproduces every page.
  FLASHDB_RETURN_IF_ERROR(ReplayOn(kPdl256, args.seed, warm_log,
                                   measured_log, &ref_clocks, ref_pages));
  FLASHDB_RETURN_IF_ERROR(ReplayOn(kOpu, args.seed, warm_log, measured_log,
                                   nullptr, ref_pages));

  // Untraced single-thread pass: Serve with no executor.
  {
    FLASHDB_ASSIGN_OR_RETURN(Rig rig,
                             Prepare(kPdl256, args.seed, nullptr, false, true));
    host.setup_s.push_back(rig.setup_s);
    FLASHDB_ASSIGN_OR_RETURN(PassResult pr,
                             Execute(&rig, false, nullptr, true));
    host.single_wall_s = pr.wall_s;
    report->Note("single-thread pass", rig.setup_s, pr.wall_s);
    FLASHDB_RETURN_IF_ERROR(Agree(ref, pr.fig, "the single-thread pass"));
    report->attempted += pr.fig.ops;
  }
  host.untraced_wall_s = host.single_wall_s;

  // Traced pass: the single-thread mode with every shard's store wrapped.
  SpanLog spans;
  VirtualFigures traced;
  std::vector<ByteBuffer> sample_pages;
  {
    FLASHDB_ASSIGN_OR_RETURN(Rig rig,
                             Prepare(kPdl256, args.seed, &spans, false, true));
    FLASHDB_ASSIGN_OR_RETURN(PassResult pr,
                             Execute(&rig, false, &spans, true));
    host.traced_wall_s = pr.wall_s;
    report->Note("traced pass", rig.setup_s, pr.wall_s);
    traced = pr.fig;
    FLASHDB_RETURN_IF_ERROR(Agree(ref, traced, "the traced pass"));
    report->attempted += pr.fig.ops;
    for (size_t i = 0; i < 64; ++i) {
      sample_pages.push_back(pr.pages[i * pr.pages.size() / 64]);
    }
  }
  const UnitCosts unit =
      ProbeUnitCosts(sample_pages, kProbeChangedBytes,
                     flash::FlashConfig::Small(), args.seed);

  AddEndToEnd(ref, ref.latency, host, report);
  AddPerLayer(traced, host, spans, unit, ref.worst.gc_us, true, report);
  if (!args.spans_path.empty()) {
    FLASHDB_RETURN_IF_ERROR(spans.WriteCsv(args.spans_path));
  }
  return Status::OK();
}

}  // namespace perfbench
