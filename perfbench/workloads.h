#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// pta_paced (burst = false) and pta_burst (burst = true): the paper-scale
/// program-trading database in this process, fed through FeedImporter.
Report RunPtaWorkload(const RunOptions& opts, bool burst,
                      int64_t process_start_ns);

/// server_durable: strip_server as a child process on loopback with a
/// data directory, fed FeedAppend batches by an open-loop client.
Report RunServerWorkload(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
