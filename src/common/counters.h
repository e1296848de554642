#ifndef SGNN_COMMON_COUNTERS_H_
#define SGNN_COMMON_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace sgnn::common {

/// Hardware-independent scalability accounting.
///
/// The tutorial's scalability claims are about *data movement*, not wall
/// clock on a particular device: how many edges a method touches, how many
/// feature scalars it moves, and how large its resident working set gets.
/// Library kernels increment these counters so benchmarks can report the
/// quantities the paper reasons about directly.
struct OpCounters {
  /// Directed edge traversals (one neighbour visit = one).
  uint64_t edges_touched = 0;
  /// Scalar feature values read or written by propagation/NN kernels.
  uint64_t floats_moved = 0;
  /// Bytes a kernel logically read: operand elements consumed, including
  /// the read half of read-modify-write accumulations and the index/
  /// coefficient streams of sparse kernels. Billed per kernel as a pure
  /// function of the workload (never of the thread count or backend), so
  /// roofline ratios like bytes/edge are reproducible. The formula each
  /// kernel bills is documented at its `BillBytes` call site.
  uint64_t bytes_read = 0;
  /// Bytes a kernel logically wrote (result elements stored).
  uint64_t bytes_written = 0;
  /// High-water mark of simultaneously materialised feature scalars; a
  /// proxy for peak (GPU) memory in the paper's discussions.
  uint64_t peak_resident_floats = 0;
  /// Currently materialised feature scalars (drives the peak).
  uint64_t resident_floats = 0;
  /// Shard files faulted into memory by the out-of-core storage layer.
  uint64_t shard_loads = 0;
  /// Shards evicted to stay under the resident budget.
  uint64_t shard_evictions = 0;
  /// Total bytes mapped by shard loads (monotone; reloads count again).
  uint64_t shard_bytes_loaded = 0;
  /// Currently mapped shard bytes (drives the shard-byte peak).
  uint64_t resident_shard_bytes = 0;
  /// High-water mark of simultaneously mapped shard bytes; the quantity a
  /// resident budget caps.
  uint64_t peak_resident_shard_bytes = 0;

  void Reset() { *this = OpCounters(); }

  /// Bills one kernel's logical data movement (see `bytes_read`). Kernels
  /// call this once per shard with totals derived from the shard's
  /// workload, so per-region deltas sum exactly at any worker count.
  void BillBytes(uint64_t read, uint64_t written) {
    bytes_read += read;
    bytes_written += written;
  }

  /// Registers an allocation of `n` feature scalars.
  void Acquire(uint64_t n) {
    resident_floats += n;
    if (resident_floats > peak_resident_floats) {
      peak_resident_floats = resident_floats;
    }
  }

  /// Registers release of `n` feature scalars.
  void Release(uint64_t n) {
    resident_floats = (n > resident_floats) ? 0 : resident_floats - n;
  }

  /// Registers `n` shard bytes mapped in by the storage layer.
  void AcquireShardBytes(uint64_t n) {
    resident_shard_bytes += n;
    if (resident_shard_bytes > peak_resident_shard_bytes) {
      peak_resident_shard_bytes = resident_shard_bytes;
    }
  }

  /// Registers `n` shard bytes unmapped (eviction or close).
  void ReleaseShardBytes(uint64_t n) {
    resident_shard_bytes =
        (n > resident_shard_bytes) ? 0 : resident_shard_bytes - n;
  }

  /// Re-bases the high-water marks to the current residency, making peaks
  /// run-local: a run that pins this at entry reports the peak *it* caused,
  /// not a ghost from an earlier, larger run on the same thread. The
  /// pipeline does this at run start; out-of-core opens do the same so
  /// per-budget peaks are reproducible in reports.
  void RebasePeaks() {
    peak_resident_floats = resident_floats;
    peak_resident_shard_bytes = resident_shard_bytes;
  }

  /// Accumulates `other` into this counter set. Peaks add (the sum of
  /// per-thread peaks upper-bounds the true simultaneous peak).
  void MergeFrom(const OpCounters& other) {
    edges_touched += other.edges_touched;
    floats_moved += other.floats_moved;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    peak_resident_floats += other.peak_resident_floats;
    resident_floats += other.resident_floats;
    shard_loads += other.shard_loads;
    shard_evictions += other.shard_evictions;
    shard_bytes_loaded += other.shard_bytes_loaded;
    resident_shard_bytes += other.resident_shard_bytes;
    peak_resident_shard_bytes += other.peak_resident_shard_bytes;
  }

  /// Work done between two snapshots of the same counter instance. The
  /// monotone counters subtract; `peak_resident_floats` and
  /// `resident_floats` are point-in-time quantities and report `end`'s
  /// value. This is the single definition of "per-region delta" — the
  /// pipeline report rows and the `obs` gauge exports both call it, so the
  /// two can never disagree.
  static OpCounters Delta(const OpCounters& begin, const OpCounters& end) {
    OpCounters d;
    d.edges_touched = end.edges_touched - begin.edges_touched;
    d.floats_moved = end.floats_moved - begin.floats_moved;
    d.bytes_read = end.bytes_read - begin.bytes_read;
    d.bytes_written = end.bytes_written - begin.bytes_written;
    d.peak_resident_floats = end.peak_resident_floats;
    d.resident_floats = end.resident_floats;
    d.shard_loads = end.shard_loads - begin.shard_loads;
    d.shard_evictions = end.shard_evictions - begin.shard_evictions;
    d.shard_bytes_loaded = end.shard_bytes_loaded - begin.shard_bytes_loaded;
    d.resident_shard_bytes = end.resident_shard_bytes;
    d.peak_resident_shard_bytes = end.peak_resident_shard_bytes;
    return d;
  }

  std::string ToString() const;
};

/// Per-thread counter instance incremented by instrumented kernels. Each
/// thread owns a private (plain, uncontended) instance, so kernels stay as
/// cheap as the historical single-threaded globals and a single-threaded
/// program observes exactly the historical values.
OpCounters& GlobalCounters();

/// Sums the counters of every thread that ever called `GlobalCounters()`:
/// live threads contribute their current values, exited threads the values
/// they retired with. Counts from threads still running are a relaxed
/// snapshot (they may be mid-increment); for exact totals, call after the
/// workers of interest have quiesced or joined.
OpCounters AggregateThreadCounters();

/// Immutable point-in-time copy of the calling thread's counters; pair two
/// snapshots with `OpCounters::Delta` to attribute work to a region.
inline OpCounters SnapshotThreadCounters() { return GlobalCounters(); }

/// Captures the counter state at construction and exposes the delta since,
/// so a caller can attribute work to a region without resetting globals.
/// Thread-scoped: it observes only the calling thread's counters.
///
/// The peaks are the scope's own: construction re-bases the thread's
/// high-water marks to the current residency (`RebasePeaks`), and
/// destruction restores each to the larger of its saved value and the
/// scope's peak, so the thread-wide marks stay monotone. Scopes nest: an
/// enclosing scope read after an inner one ended (a pipeline stage around
/// a trainer's `FitMeter`) still sees the inner peak.
class ScopedCounterDelta {
 public:
  ScopedCounterDelta() : base_(SnapshotThreadCounters()) {
    GlobalCounters().RebasePeaks();
  }

  ~ScopedCounterDelta() {
    OpCounters& counters = GlobalCounters();
    counters.peak_resident_floats =
        std::max(counters.peak_resident_floats, base_.peak_resident_floats);
    counters.peak_resident_shard_bytes = std::max(
        counters.peak_resident_shard_bytes, base_.peak_resident_shard_bytes);
  }

  ScopedCounterDelta(const ScopedCounterDelta&) = delete;
  ScopedCounterDelta& operator=(const ScopedCounterDelta&) = delete;

  /// Work done since construction. `peak_resident_floats` and
  /// `peak_resident_shard_bytes` are the maxima observed during the scope,
  /// not differences.
  OpCounters Delta() const {
    return OpCounters::Delta(base_, SnapshotThreadCounters());
  }

 private:
  /// Counters at construction, peaks as they were before the re-base.
  OpCounters base_;
};

}  // namespace sgnn::common

#endif  // SGNN_COMMON_COUNTERS_H_
