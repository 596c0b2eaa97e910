// perfbench: one invocation runs one workload through flashdb's public API
// and prints every metric, then one JSON result line.
//
//   perfbench --workload <update_pdl|read_mostly_pdl|tpcc_pdl> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <csv path>]
//
// Exit code 0 only when every oracle and the cross-pass determinism check
// passed; otherwise the reason goes to stderr and no result line is printed.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--spans") {
      a->spans_path = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds >= 0;
}

void PrintMetrics(const char* kind,
                  const std::vector<perfbench::Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-10s %-28s %16.6f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(bool correct, const perfbench::RunReport& r,
               const std::vector<perfbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <update_pdl|read_mostly_pdl|"
                 "tpcc_pdl> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <csv path>]\n";
    return 2;
  }
  perfbench::RunReport report;
  flashdb::Status s;
  if (args.workload == "update_pdl" || args.workload == "read_mostly_pdl") {
    s = perfbench::RunUpdateWorkload(args, &report);
  } else if (args.workload == "tpcc_pdl") {
    s = perfbench::RunTpccWorkload(args, &report);
  } else {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  if (!s.ok()) {
    std::cerr << args.workload << " seed " << args.seed
              << " FAILED: " << s.ToString() << "\n";
    return 1;
  }
  std::printf("workload %s seed %llu: attempted %llu operations, failed %llu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& n : report.notes) std::printf("%s\n", n.c_str());
  PrintMetrics("end-to-end", report.end_to_end);
  PrintMetrics("per-layer", report.per_layer);
  std::fflush(stdout);
  PrintJson(true, report,
            args.trace ? report.per_layer : report.end_to_end);
  return 0;
}
