// Entry point of one workload process:
//   sgnn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--size full|smoke] [--out <dir>]
// Prints every metric by name with its unit, then one JSON line with the
// metrics, output checks, observed outputs and provenance. Exits 1 when an
// output check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: sgnn_perfbench --workload "
               "pipeline-decoupled|train-sampled|serve-zipf --seed N "
               "--seconds S --trace 0|1 [--size full|smoke] [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--size") {
      options.size = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  if (options.size != "full" && options.size != "smoke") {
    return Usage("--size must be full or smoke");
  }

  perfbench::Result result;
  if (options.workload == "pipeline-decoupled") {
    perfbench::RunPipelineDecoupled(options, &result);
  } else if (options.workload == "train-sampled") {
    perfbench::RunTrainSampled(options, &result);
  } else if (options.workload == "serve-zipf") {
    perfbench::RunServeZipf(options, &result);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  std::printf("%s", result.Table().c_str());
  std::printf("%s\n", result.Json(options).c_str());
  std::fflush(stdout);
  return result.ok() ? 0 : 1;
}
