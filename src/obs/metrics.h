#ifndef SGNN_OBS_METRICS_H_
#define SGNN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/thread_annotations.h"

namespace sgnn::obs {

/// `sgnn::obs` metrics: one registry of named counters, gauges, and
/// fixed-bucket histograms shared by every subsystem (pipeline stages,
/// checkpointing, serving, the fault machinery), replacing the per-module
/// metric stores that grew ad hoc before it. Two exporters — Prometheus
/// text exposition and stable-sorted JSON — read the registry, so a
/// dashboard and a golden-file test see the same bytes.
///
/// Determinism contract: a metric registered `kVolatile` depends on wall
/// time or thread scheduling (latencies, queue depths); everything else
/// must be a pure function of the seeded workload. Exporters can exclude
/// volatile metrics (`include_volatile = false`), and the result is then
/// byte-identical across runs of the same seeded program — the property
/// the golden tests and the replay story rely on.

/// Label set attached to a metric, e.g. `{{"stage", "sparsify:uniform"}}`.
/// Keys are sorted on registration, so label order never affects identity
/// or export order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Whether a metric's value is reproducible under a fixed seed.
enum class Volatility {
  kDeterministic,  ///< Pure function of the seeded workload.
  kVolatile,       ///< Depends on wall time / thread scheduling.
};
inline constexpr Volatility kDeterministic = Volatility::kDeterministic;
inline constexpr Volatility kVolatile = Volatility::kVolatile;

/// Monotone event count. Handle returned by `MetricsRegistry::GetCounter`;
/// valid for the registry's lifetime. Thread-safe, lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value that can move both ways. Thread-safe, lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  /// Raises the gauge to `v` if `v` exceeds the current value (high-water
  /// marks: max batch size, max queue depth).
  void SetMax(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Consistent copy of a histogram's state, for percentile math and tests.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;  ///< Ascending; +Inf bucket is implicit.
  std::vector<uint64_t> counts;      ///< `upper_bounds.size() + 1` buckets.
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Smallest recorded value; 0 when empty.
  double max = 0.0;  ///< Largest recorded value; 0 when empty.

  /// Value at quantile `q` in [0, 1]: the midpoint of the bucket holding
  /// the q-th sample (geometric midpoint when the bucket's lower bound is
  /// positive), clamped to the observed min/max; 0 when empty. O(buckets).
  double Percentile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram: values are counted into the first bucket whose
/// upper bound is >= the value (an implicit +Inf bucket catches the rest).
/// Constant memory, O(buckets) percentile queries. Thread-safe.
class Histogram {
 public:
  void Record(double value) SGNN_EXCLUDES(mu_);
  HistogramSnapshot Snapshot() const SGNN_EXCLUDES(mu_);
  /// Shorthand for `Snapshot().Percentile(q)`.
  double Percentile(double q) const { return Snapshot().Percentile(q); }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> upper_bounds);

  const std::vector<double> upper_bounds_;
  mutable common::Mutex mu_;
  std::vector<uint64_t> counts_ SGNN_GUARDED_BY(mu_);
  uint64_t count_ SGNN_GUARDED_BY(mu_) = 0;
  double sum_ SGNN_GUARDED_BY(mu_) = 0.0;
  double min_ SGNN_GUARDED_BY(mu_) = 0.0;
  double max_ SGNN_GUARDED_BY(mu_) = 0.0;
};

/// Geometric bucket ladder: `count` upper bounds starting at `first_upper`,
/// each `growth` times the previous. The serving-latency default
/// (1 us, 1.07, 256) gives ~7% resolution from 1 us to ~35 s in constant
/// memory — the ladder `serve::ServeMetrics` used before it moved here.
std::vector<double> ExponentialBuckets(double first_upper, double growth,
                                       int count);

/// The shared metric store. `Get*` registers on first use and returns the
/// existing handle on every later call with the same (name, labels) — so
/// independent subsystems can contribute to one family. Handles stay valid
/// and thread-safe for the registry's lifetime; registration itself is
/// also thread-safe.
///
/// Names must match Prometheus conventions (`[a-zA-Z_:][a-zA-Z0-9_:]*`);
/// re-registering a name with a different metric type, help string, or
/// volatility is a programming error (SGNN_CHECK).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {},
                      Volatility volatility = kDeterministic)
      SGNN_EXCLUDES(mu_);

  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {},
                  Volatility volatility = kDeterministic) SGNN_EXCLUDES(mu_);

  /// All histograms of one family share the first registration's buckets.
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> upper_bounds,
                          const Labels& labels = {},
                          Volatility volatility = kVolatile)
      SGNN_EXCLUDES(mu_);

  /// Sets the data-movement `OpCounters` fields as gauges
  /// `<prefix>_edges_touched`, `_floats_moved`, `_kernel_bytes_read`,
  /// `_kernel_bytes_written`, `_peak_resident_floats`, `_resident_floats`
  /// under `labels`. Gauges (Set, not Add): the exported value IS the
  /// delta the caller computed, so a report row and the export cannot
  /// disagree.
  void SetOpCounterGauges(const std::string& prefix, const std::string& help,
                          const Labels& labels,
                          const common::OpCounters& counters,
                          Volatility volatility = kDeterministic);

  /// Prometheus text exposition format, families stable-sorted by name and
  /// samples by label key. Histograms expose cumulative `_bucket{le=...}`
  /// (including `le="+Inf"`), `_sum`, and `_count`.
  std::string PrometheusText(bool include_volatile = true) const
      SGNN_EXCLUDES(mu_);

  /// Stable-sorted JSON: {"counters":[...],"gauges":[...],"histograms":[...]}.
  std::string JsonText(bool include_volatile = true) const SGNN_EXCLUDES(mu_);

  /// Number of registered metric instances (labeled series, not families).
  size_t NumSeries() const SGNN_EXCLUDES(mu_);

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Family {
    Type type = Type::kCounter;
    std::string help;
    Volatility volatility = kDeterministic;
    std::vector<double> upper_bounds;  ///< Histogram families only.
    // One entry per label set, keyed by the serialized sorted labels.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Family& FamilyFor(const std::string& name, const std::string& help,
                    Type type, Volatility volatility) SGNN_REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::map<std::string, Family> families_ SGNN_GUARDED_BY(mu_);
};

}  // namespace sgnn::obs

#endif  // SGNN_OBS_METRICS_H_
