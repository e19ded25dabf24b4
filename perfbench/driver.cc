// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <pta_paced|pta_burst|server_durable>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --server-bin <path to strip_server> --work-dir <dir>
//
// The last line of standard output is the one-line JSON result; the lines
// before it are the human-readable table (every metric with its unit and
// sample count, the stage ledgers of a traced run, failed checks).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "strip/common/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <pta_paced|pta_burst|server_durable> "
               "--seed <n> --seconds <s> --trace <0|1> --server-bin <path> "
               "--work-dir <dir>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = perfbench::NowNanos();
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--server-bin") {
      opts.server_bin = value;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || opts.seconds <= 0 || opts.work_dir.empty()) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  strip::SetMinLogLevel(strip::LogLevel::kWarn);

  perfbench::Report report;
  if (opts.workload == "pta_paced" || opts.workload == "pta_burst") {
    report = perfbench::RunPtaWorkload(opts, opts.workload == "pta_burst",
                                       process_start);
  } else if (opts.workload == "server_durable") {
    if (opts.server_bin.empty()) return Usage(argv[0]);
    report = perfbench::RunServerWorkload(opts);
  } else {
    return Usage(argv[0]);
  }
  report.Print(opts.trace);
  return report.correct ? 0 : 1;
}
