#include "support.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "par/par.h"
#include "serve/batching_server.h"
#include "simd/simd.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

sgnn::core::SbmDatasetConfig DatasetShape(const Options& options) {
  sgnn::core::SbmDatasetConfig config;
  config.sbm.num_nodes = options.smoke() ? 3000 : 50000;
  config.sbm.num_classes = 8;
  config.sbm.avg_degree = 20.0;
  config.sbm.homophily = 0.8;
  config.feature_dim = options.smoke() ? 32 : 128;
  config.feature_noise = 8.0;
  config.train_frac = 0.1;
  config.val_frac = 0.1;
  return config;
}

sgnn::core::Dataset MakeDatasetTimed(const Options& options, int repeats,
                                     double* median_s) {
  const sgnn::core::SbmDatasetConfig shape = DatasetShape(options);
  std::vector<double> times;
  sgnn::core::Dataset dataset;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = Now();
    dataset = sgnn::core::MakeSbmDataset(shape, options.seed);
    times.push_back(Now() - t0);
  }
  *median_s = Median(times);
  return dataset;
}

sgnn::nn::TrainConfig BaseTrainConfig(const Options& options) {
  sgnn::nn::TrainConfig config;
  config.epochs = 10;
  config.batch_size = 512;
  config.hidden_dim = 64;
  config.seed = options.seed;
  return config;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ObserveReport(const sgnn::core::PipelineReport& ref, Result* result) {
  result->Check("pipeline_status", ref.status.ok(), ref.status.ToString());
  result->Observe("test_acc", ref.model.report.test_accuracy);
  result->Observe("final_train_loss", ref.model.report.final_train_loss);
  result->Observe("edges_after", static_cast<double>(ref.edges_after));
  result->Observe("epochs_run", ref.model.report.epochs_run);
}

void CheckReport(const sgnn::core::PipelineReport& report,
                 const sgnn::core::PipelineReport& ref, Result* result) {
  result->attempted++;
  if (!report.status.ok()) {
    result->failed++;
    result->Check("pipeline_status", false, report.status.ToString());
    return;
  }
  const bool same =
      SameBits(report.model.report.test_accuracy,
               ref.model.report.test_accuracy) &&
      SameBits(report.model.report.final_train_loss,
               ref.model.report.final_train_loss) &&
      report.edges_after == ref.edges_after &&
      report.model.report.epochs_run == ref.model.report.epochs_run;
  if (!same) result->Check("runs_bit_identical", false, "run differs from warm-up run");
}

sgnn::common::OpCounters CountersSince(const sgnn::common::OpCounters& base) {
  return sgnn::common::OpCounters::Delta(
      base, sgnn::common::AggregateThreadCounters());
}

// ---------------------------------------------------------------- spans

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                            int64_t group) {
  const double start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, group, start, start});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t id) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

int64_t SpanRecorder::Add(const std::string& name, int64_t parent,
                          int64_t group, double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, group, start, end});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<SpanRecorder::Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanRecorder::Total(const std::string& name, int64_t group) const {
  double total = 0.0;
  for (const Span& s : Snapshot()) {
    if (s.name == name && s.group == group) total += s.end - s.start;
  }
  return total;
}

double SpanRecorder::ChildTotal(int64_t id) const {
  double total = 0.0;
  for (const Span& s : Snapshot()) {
    if (s.parent == id) total += s.end - s.start;
  }
  return total;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  double origin = std::numeric_limits<double>::infinity();
  for (const Span& s : spans) origin = std::min(origin, s.start);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Top-level spans and their descendants share a track per group so
    // concurrent requests do not overlap on one row.
    if (i > 0) out << ",";
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.group << ",\"ts\":" << Num((s.start - origin) * 1e6)
        << ",\"dur\":" << Num((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string SpanRecorder::SelfTimeTable() const {
  const std::vector<Span> spans = Snapshot();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  struct Row {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    const double dur = spans[i].end - spans[i].start;
    ++row.count;
    row.total += dur;
    row.self += std::max(0.0, dur - child[i]);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  out << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line), "%-28s %8lld %12.6f %12.6f\n",
                  name.c_str(), static_cast<long long>(row.count), row.total,
                  row.self);
    out << line;
  }
  return out.str();
}

// --------------------------------------------------------------- result

std::string Num(double value) {
  if (!std::isfinite(value)) return value > 0 ? "1e308" : "-1e308";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Vector ISA extensions the CPU supports, e.g. "avx2+fma+avx512f".
std::string Isa() {
#if defined(__x86_64__) || defined(__i386__)
  std::string isa = "x86-64";
  if (__builtin_cpu_supports("avx2")) isa += "+avx2";
  if (__builtin_cpu_supports("fma")) isa += "+fma";
  if (__builtin_cpu_supports("avx512f")) isa += "+avx512f";
  return isa;
#else
  return "other";
#endif
}

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Result::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Result::Observe(const std::string& name, double value) {
  observed_[name] = value;
}

void Result::Note(const std::string& name, double value) {
  notes_[name].push_back(value);
}

bool Result::ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckEntry& c) { return c.ok; });
}

std::string Result::Json(const Options& options) const {
  std::ostringstream out;
  out << "{\"workload\":" << Quote(options.workload)
      << ",\"seed\":" << options.seed << ",\"trace\":" << options.trace
      << ",\"size\":" << Quote(options.size) << ",\"ok\":" << (ok() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed;
  out << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    out << (first ? "" : ",") << Quote(name) << ":{\"value\":" << Num(e.value)
        << ",\"unit\":" << Quote(e.unit) << ",\"samples\":" << e.samples
        << "}";
    first = false;
  }
  out << "},\"checks\":[";
  first = true;
  for (const CheckEntry& c : checks_) {
    out << (first ? "" : ",") << "{\"name\":" << Quote(c.name)
        << ",\"ok\":" << (c.ok ? "true" : "false")
        << ",\"detail\":" << Quote(c.detail) << "}";
    first = false;
  }
  out << "],\"observed\":{";
  first = true;
  for (const auto& [name, v] : observed_) {
    out << (first ? "" : ",") << Quote(name) << ":" << Num(v);
    first = false;
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [name, values] : notes_) {
    out << (first ? "" : ",") << Quote(name) << ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      out << (i ? "," : "") << Num(values[i]);
    }
    out << "]";
    first = false;
  }
  out << "},\"provenance\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"isa\":" << Quote(Isa())
      << ",\"simd_enabled\":" << (sgnn::simd::Enabled() ? "true" : "false")
      << ",\"par_workers\":" << sgnn::par::NumThreads()
      << ",\"serve_workers\":" << sgnn::serve::ServeConfig().num_workers
      << ",\"compiler\":" << Quote(SGNN_BENCH_COMPILER)
      << ",\"build_type\":" << Quote(SGNN_BENCH_BUILD_TYPE) << "}}";
  return out.str();
}

std::string Result::Table() const {
  std::ostringstream out;
  char line[200];
  for (const auto& [name, e] : metrics_) {
    std::snprintf(line, sizeof(line), "  %-28s %16.6g %-8s (n=%lld)\n",
                  name.c_str(), e.value, e.unit.c_str(),
                  static_cast<long long>(e.samples));
    out << line;
  }
  for (const CheckEntry& c : checks_) {
    out << "  check " << c.name << ": " << (c.ok ? "ok" : "FAILED");
    if (!c.detail.empty()) out << " (" << c.detail << ")";
    out << "\n";
  }
  return out.str();
}

}  // namespace perfbench
