#include "timed_store.h"

#include <fstream>

namespace perfbench {

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kWorkload:
      return "workload";
    case SpanKind::kReadPage:
      return "ReadPage";
    case SpanKind::kWriteBack:
      return "WriteBack";
    case SpanKind::kWriteBatch:
      return "WriteBatch";
    case SpanKind::kFlush:
      return "Flush";
  }
  return "?";
}

void SpanLog::BeginWorkload() {
  if (!enabled_) return;
  spans_.push_back(Span{NowNs(), 0, 0, 0, 0, SpanKind::kWorkload});
  open_ = static_cast<uint32_t>(spans_.size());
}

void SpanLog::EndWorkload() {
  if (!enabled_ || open_ == 0) return;
  Span& s = spans_[open_ - 1];
  s.dur_ns = NowNs() - s.start_ns;
  open_ = 0;
}

SpanLog::KindTotals SpanLog::Totals(SpanKind kind) const {
  KindTotals t;
  for (const Span& s : spans_) {
    if (s.kind != kind) continue;
    t.calls++;
    t.pages += s.pages;
    t.ns += s.dur_ns;
  }
  return t;
}

flashdb::Status SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return flashdb::Status::IOError("cannot write " + path);
  out << "kind,chip,start_ns,dur_ns,parent,pages\n";
  for (const Span& s : spans_) {
    out << SpanKindName(s.kind) << ',' << s.chip << ',' << s.start_ns << ','
        << s.dur_ns << ',' << s.parent << ',' << s.pages << '\n';
  }
  return out ? flashdb::Status::OK()
             : flashdb::Status::IOError("short write to " + path);
}

}  // namespace perfbench
