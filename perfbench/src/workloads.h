// The benchmark's workloads. Each runs every pass of one invocation (timed
// repetitions, untraced single-thread pass, traced pass), checks its oracles
// and the cross-pass determinism of every virtual-time figure, and fills
// `report`. A failed oracle or mismatch returns a non-OK status.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench_util.h"
#include "common/status.h"

namespace perfbench {

/// `update_pdl` (3 chips, RunPipelined) or `read_mostly_pdl` (1 chip, Run).
flashdb::Status RunUpdateWorkload(const Args& args, RunReport* report);

/// `tpcc_pdl`: TpccDriver over 3 PDL shards.
flashdb::Status RunTpccWorkload(const Args& args, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
