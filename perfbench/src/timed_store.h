// Span recording for the traced pass: a PageStore wrapper that times every
// call a workload makes into one chip's store, and the in-memory span log it
// and the workload-layer spans write to.
//
// The traced pass runs on one thread, so the log needs no locking; the
// wrapper is thread-confined like the store it wraps.

#ifndef PERFBENCH_TIMED_STORE_H_
#define PERFBENCH_TIMED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ftl/page_store.h"

namespace perfbench {

/// Names of the recorded span kinds.
enum class SpanKind : uint8_t {
  kWorkload,    ///< One call into the workload layer (Run/RunBatched/Serve).
  kReadPage,
  kWriteBack,
  kWriteBatch,
  kFlush,
};
const char* SpanKindName(SpanKind k);

struct Span {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t parent = 0;  ///< Index of the enclosing workload span + 1; 0: none.
  uint32_t pages = 0;   ///< Pages the call moved (batch size for WriteBatch).
  uint16_t chip = 0;
  SpanKind kind = SpanKind::kWorkload;
};

/// Spans of one traced pass, kept in memory until the run ends.
class SpanLog {
 public:
  /// Recording is off until the measured window starts (set-up and warm-up
  /// calls go through the same wrappers but are not part of the pass).
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a workload-layer span; store spans recorded until the matching
  /// EndWorkload() become its children.
  void BeginWorkload();
  void EndWorkload();

  void RecordStore(SpanKind kind, uint16_t chip, uint64_t start_ns,
                   uint64_t end_ns, uint32_t pages) {
    if (!enabled_) return;
    spans_.push_back(
        Span{start_ns, end_ns - start_ns, open_, pages, chip, kind});
  }

  /// Total duration and call/page counts of one span kind.
  struct KindTotals {
    uint64_t calls = 0;
    uint64_t pages = 0;
    uint64_t ns = 0;
  };
  KindTotals Totals(SpanKind kind) const;

  /// Writes the spans as CSV (kind,chip,start_ns,dur_ns,parent,pages).
  flashdb::Status WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint32_t open_ = 0;  ///< Open workload span index + 1; 0 when none.
  bool enabled_ = false;
};

/// Times each ReadPage/WriteBack/WriteBatch/Flush call into `inner` and
/// records it in `log`; every other call is forwarded untimed.
class TimedStore : public flashdb::PageStore {
 public:
  TimedStore(std::unique_ptr<flashdb::PageStore> inner, uint16_t chip,
             SpanLog* log)
      : inner_(std::move(inner)), chip_(chip), log_(log) {}

  std::string_view name() const override { return inner_->name(); }
  flashdb::Status Format(uint32_t n, PageInitializer init,
                         void* arg) override {
    return inner_->Format(n, init, arg);
  }
  flashdb::Status ReadPage(flashdb::PageId pid,
                           flashdb::MutBytes out) override {
    const uint64_t t0 = NowNs();
    flashdb::Status s = inner_->ReadPage(pid, out);
    log_->RecordStore(SpanKind::kReadPage, chip_, t0, NowNs(), 1);
    return s;
  }
  flashdb::Status OnUpdate(flashdb::PageId pid, flashdb::ConstBytes page,
                           const flashdb::UpdateLog& log) override {
    return inner_->OnUpdate(pid, page, log);
  }
  flashdb::Status WriteBack(flashdb::PageId pid,
                            flashdb::ConstBytes page) override {
    const uint64_t t0 = NowNs();
    flashdb::Status s = inner_->WriteBack(pid, page);
    log_->RecordStore(SpanKind::kWriteBack, chip_, t0, NowNs(), 1);
    return s;
  }
  flashdb::Status WriteBatch(
      std::span<const flashdb::PageWrite> writes) override {
    const uint64_t t0 = NowNs();
    flashdb::Status s = inner_->WriteBatch(writes);
    log_->RecordStore(SpanKind::kWriteBatch, chip_, t0, NowNs(),
                      static_cast<uint32_t>(writes.size()));
    return s;
  }
  flashdb::Status Flush() override {
    const uint64_t t0 = NowNs();
    flashdb::Status s = inner_->Flush();
    log_->RecordStore(SpanKind::kFlush, chip_, t0, NowNs(), 0);
    return s;
  }
  flashdb::Status ScrubPhysPage(flashdb::flash::PhysAddr addr,
                                bool* relocated) override {
    return inner_->ScrubPhysPage(addr, relocated);
  }
  flashdb::Status Recover() override { return inner_->Recover(); }
  uint32_t num_logical_pages() const override {
    return inner_->num_logical_pages();
  }
  std::vector<uint32_t> bad_blocks() const override {
    return inner_->bad_blocks();
  }
  void NoteBadBlocksForRecovery(const std::vector<uint32_t>& b) override {
    inner_->NoteBadBlocksForRecovery(b);
  }
  flashdb::flash::FlashDevice* device() override { return inner_->device(); }
  void set_category(flashdb::flash::OpCategory c) override {
    inner_->set_category(c);
  }
  flashdb::flash::OpCategory category() override { return inner_->category(); }
  flashdb::flash::FlashStats stats() override { return inner_->stats(); }
  uint64_t total_erases() override { return inner_->total_erases(); }
  flashdb::flash::WearSummary wear() override { return inner_->wear(); }

 private:
  std::unique_ptr<flashdb::PageStore> inner_;
  uint16_t chip_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_STORE_H_
