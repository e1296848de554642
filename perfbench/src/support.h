// Shared pieces of the end-to-end benchmark: options, clocks, summary
// statistics, the in-memory span recorder of the traced run, the result
// record every workload fills, and the one dataset shape all workloads use.
#ifndef SGNN_PERFBENCH_SUPPORT_H_
#define SGNN_PERFBENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/counters.h"
#include "core/dataset.h"
#include "core/pipeline.h"

namespace perfbench {

/// Command-line options of one workload process.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" is the measured size; "smoke" shrinks every input so the whole
  /// workload finishes in seconds (the benchmark's own self-test).
  std::string size = "full";
  /// Directory for checkpoint files and Chrome traces.
  std::string out_dir = ".";
  bool smoke() const { return size == "smoke"; }
};

/// Seconds on the steady clock since an arbitrary epoch.
double Now();
/// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set of this process in MB (getrusage high-water mark).
double PeakRssMb();

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]. Infinite entries (failed requests)
/// sort last, so a failure counts as missing any latency limit.
double Percentile(std::vector<double> values, double q);

/// The SBM dataset every workload uses, at `options.size`.
sgnn::core::SbmDatasetConfig DatasetShape(const Options& options);
/// Generates the dataset `repeats` times (the same seed each time) and
/// returns the last one; `*median_s` receives the median generation time.
sgnn::core::Dataset MakeDatasetTimed(const Options& options, int repeats,
                                     double* median_s);

/// Training configuration shared by the workloads that train an SGC head
/// (pipeline-decoupled, serve-zipf) and, with fewer epochs, by
/// train-sampled.
sgnn::nn::TrainConfig BaseTrainConfig(const Options& options);

class Result;

/// True when `a` and `b` have the same bit pattern.
bool SameBits(double a, double b);

/// Records the deterministic outputs of the workload's reference (warm-up)
/// run and checks its status.
void ObserveReport(const sgnn::core::PipelineReport& ref, Result* result);
/// Counts one timed run as attempted and checks that it succeeded and
/// reproduced the reference run's outputs bit for bit.
void CheckReport(const sgnn::core::PipelineReport& report,
                 const sgnn::core::PipelineReport& ref, Result* result);

/// Work billed to `OpCounters` by every thread since `base`, a snapshot of
/// `sgnn::common::AggregateThreadCounters()`.
sgnn::common::OpCounters CountersSince(const sgnn::common::OpCounters& base);

/// In-memory span recorder of the traced run. Spans carry name, start,
/// end, parent and a run or request id; they are kept in memory and written
/// once, as Chrome-trace JSON, when the workload ends. Thread-safe.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;  ///< Index of the parent span; -1 = top level.
    int64_t group = 0;    ///< Run id (training) or request id (serving).
    double start = 0.0;   ///< `Now()` seconds.
    double end = 0.0;
  };

  /// Opens a span and returns its index.
  int64_t Begin(const std::string& name, int64_t parent, int64_t group);
  void End(int64_t id);
  /// Records a span whose bounds were measured elsewhere.
  int64_t Add(const std::string& name, int64_t parent, int64_t group,
              double start, double end);

  std::vector<Span> Snapshot() const;
  /// Sum of durations of the spans named `name` in run/request `group`.
  double Total(const std::string& name, int64_t group) const;
  /// Sum of durations of the direct children of span `id`.
  double ChildTotal(int64_t id) const;

  /// Writes every span as a Chrome-trace "X" event (microseconds).
  bool WriteChromeTrace(const std::string& path) const;
  /// Per-name count, total and self time (duration minus the part of it
  /// covered by child spans), largest self time first.
  std::string SelfTimeTable() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on a recorder; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t parent,
             int64_t group = 0)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent, group) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// What one workload process reports: metrics with units and sample
/// counts, output checks, observed deterministic outputs, and notes.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 1);
  /// A failed check fails the whole run: non-zero exit, nothing recorded.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  /// Deterministic outputs compared against the recorded expectations.
  void Observe(const std::string& name, double value);
  /// Free-form per-run detail (per-run wall time, CPU per wall, lateness).
  void Note(const std::string& name, double value);

  int64_t attempted = 0;
  int64_t failed = 0;

  bool ok() const;
  /// One-line JSON of everything above plus build and host provenance.
  std::string Json(const Options& options) const;
  /// Human-readable lines: every metric by name with its unit.
  std::string Table() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    int64_t samples;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<CheckEntry> checks_;
  std::map<std::string, double> observed_;
  std::map<std::string, std::vector<double>> notes_;
};

/// Formats a double with all its digits (round-trippable).
std::string Num(double value);

}  // namespace perfbench

#endif  // SGNN_PERFBENCH_SUPPORT_H_
