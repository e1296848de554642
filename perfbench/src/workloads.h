// The three workloads of the end-to-end benchmark. Each runs in its own
// process, derives every input from `options.seed`, drives the library
// through its public API at library defaults, and fills `result`.
#ifndef SGNN_PERFBENCH_WORKLOADS_H_
#define SGNN_PERFBENCH_WORKLOADS_H_

#include "support.h"

namespace perfbench {

void RunPipelineDecoupled(const Options& options, Result* result);
void RunTrainSampled(const Options& options, Result* result);
void RunServeZipf(const Options& options, Result* result);

}  // namespace perfbench

#endif  // SGNN_PERFBENCH_WORKLOADS_H_
