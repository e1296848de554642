#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/counters.h"
#include "common/posix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace sgnn::common {
namespace {

TEST(CheckDeathTest, ComparisonFailurePrintsBothOperands) {
  const int lhs = 3;
  const int rhs = 7;
  // The upgraded SGNN_CHECK_EQ captures and prints the operand values, not
  // just the stringified expression.
  EXPECT_DEATH(SGNN_CHECK_EQ(lhs, rhs), "lhs == rhs.*3 vs. 7");
  EXPECT_DEATH(SGNN_CHECK_GT(lhs * 2, rhs), "lhs \\* 2 > rhs.*6 vs. 7");
}

TEST(CheckDeathTest, OperandsEvaluatedExactlyOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  SGNN_CHECK_LT(next(), 10);
  EXPECT_EQ(calls, 1);
}

TEST(CheckDeathTest, StringOperandsPrint) {
  const std::string a = "alpha";
  const std::string b = "beta";
  EXPECT_DEATH(SGNN_CHECK_EQ(a, b), "alpha vs. beta");
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
}

TEST(StatusTest, EveryCodeHasADistinctNonNullName) {
  // Keep in sync with the last StatusCode enumerator.
  constexpr auto kLast = StatusCode::kAborted;
  std::set<std::string> names;
  for (int c = 0; c <= static_cast<int>(kLast); ++c) {
    const char* name = StatusCodeName(static_cast<StatusCode>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "Unknown") << "code " << c;
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate name '" << name << "' for code " << c;
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kLast) + 1);
}

Status FailsThenUnreachable(bool fail, bool* reached_end) {
  SGNN_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
  *reached_end = true;
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroShortCircuits) {
  bool reached = false;
  Status s = FailsThenUnreachable(true, &reached);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(reached);
  s = FailsThenUnreachable(false, &reached);
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(reached);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(1 << 30) == b.UniformInt(1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Gaussian(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(13);
  for (uint64_t n : {10ULL, 100ULL, 1000ULL}) {
    for (uint64_t k : std::vector<uint64_t>{0, 1, 5, n / 2, n}) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (uint64_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementIsUniformish) {
  // Each element of [0,20) should appear in a 10-sample about half the time.
  std::vector<int> counts(20, 0);
  const int reps = 4000;
  Rng rng(17);
  for (int r = 0; r < reps; ++r) {
    for (uint64_t v : rng.SampleWithoutReplacement(20, 10)) counts[v]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / reps, 0.5, 0.05);
  }
}

TEST(KeyedStreamTest, EqualsMt19937_64AcrossTheLazySeedingBoundary) {
  // Draw counts run 1..700, so streams stop before, at and after the 156th
  // draw (the last one seeding lazily) and the 312-word twist boundaries.
  for (uint64_t base : {0ULL, 0x9E3779B97F4A7C15ULL}) {
    for (uint64_t key = 0; key < 5000; ++key) {
      KeyedStream keyed(base, key);
      std::mt19937_64 reference(MixSeed(base, key));
      const uint64_t draws = 1 + (key * 7919) % 700;
      for (uint64_t d = 0; d < draws; ++d) {
        ASSERT_EQ(keyed(), reference()) << "key " << key << " draw " << d;
      }
    }
  }
}

TEST(KeyedStreamTest, SampleWithoutReplacementEqualsRng) {
  // (n, k) pairs in the dense regime (3k >= n), in Floyd's regime, and
  // with k past the lazily seeded prefix of the stream.
  const std::vector<std::pair<uint64_t, uint64_t>> shapes = {
      {1, 1},    {7, 3},     {10, 10},    {30, 10},   {31, 10},
      {200, 10}, {5000, 25}, {1000, 400}, {100000, 300}};
  for (const auto& [n, k] : shapes) {
    for (uint64_t key = 0; key < 2000; ++key) {
      const uint64_t base = 0xC0FFEE + n;
      KeyedStream keyed(base, key);
      Rng reference(MixSeed(base, key));
      ASSERT_EQ(keyed.SampleWithoutReplacement(n, k),
                reference.SampleWithoutReplacement(n, k))
          << "n " << n << " k " << k << " key " << key;
    }
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(21);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / trials, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / trials, 0.75, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(31);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.UniformInt(1 << 30) == child.UniformInt(1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(CountersTest, AcquireReleaseTracksPeak) {
  OpCounters c;
  c.Acquire(100);
  c.Acquire(50);
  EXPECT_EQ(c.peak_resident_floats, 150u);
  c.Release(120);
  EXPECT_EQ(c.resident_floats, 30u);
  c.Acquire(10);
  EXPECT_EQ(c.peak_resident_floats, 150u);  // Peak unchanged.
  c.Release(1000);                          // Over-release clamps to zero.
  EXPECT_EQ(c.resident_floats, 0u);
}

TEST(CountersTest, ScopedDeltaMeasuresOnlyScope) {
  GlobalCounters().Reset();
  GlobalCounters().edges_touched = 10;
  ScopedCounterDelta scope;
  GlobalCounters().edges_touched += 7;
  EXPECT_EQ(scope.Delta().edges_touched, 7u);
}

TEST(CountersTest, ToStringMentionsFields) {
  OpCounters c;
  c.edges_touched = 3;
  EXPECT_NE(c.ToString().find("edges_touched=3"), std::string::npos);
}

TEST(CountersTest, AggregateSumsAcrossThreads) {
  const OpCounters before = AggregateThreadCounters();
  const uint64_t kPerThread = 1000;
  const int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([kPerThread] {
      // Each thread increments its own thread-local instance.
      for (uint64_t i = 0; i < kPerThread; ++i) {
        GlobalCounters().edges_touched += 1;
        GlobalCounters().floats_moved += 2;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const OpCounters after = AggregateThreadCounters();
  // Joined threads retire their totals, so the delta is exact.
  EXPECT_EQ(after.edges_touched - before.edges_touched,
            kPerThread * kThreads);
  EXPECT_EQ(after.floats_moved - before.floats_moved,
            2 * kPerThread * kThreads);
}

TEST(CountersTest, ThreadsObservePrivateCounters) {
  const uint64_t main_edges = GlobalCounters().edges_touched;
  std::thread worker([] { GlobalCounters().edges_touched += 12345; });
  worker.join();
  // The worker's increments never show up in this thread's instance.
  EXPECT_EQ(GlobalCounters().edges_touched, main_edges);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    for (int i = 1; i <= 100; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
    pool.WaitIdle();
    EXPECT_EQ(sum.load(), 5050);
  }  // Destructor joins cleanly.
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Shutdown();  // Must run everything already submitted.
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ResizeDrainsAndKeepsServing) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  for (int i = 0; i < 30; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Resize(5);
  // Resize drained the queue: everything submitted before it already ran.
  EXPECT_EQ(ran.load(), 30);
  EXPECT_EQ(pool.num_threads(), 5);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 50);
  pool.Resize(5);  // Same size: a no-op.
  pool.Resize(1);  // Shrinking works too.
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> more{0};
  pool.Submit([&more] { more.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(more.load(), 1);
}

TEST(TimerTest, MeasuresForwardTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds());  // ms >= s numerically for t>0
}

// ------------------------------------------------------------ posix helpers

TEST(PosixStatusTest, ErrnoValuesMapOntoTheStatusTaxonomy) {
  EXPECT_EQ(StatusFromErrno("x", EPIPE).code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ECONNRESET).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ENOENT).code(), StatusCode::kNotFound);
  EXPECT_EQ(StatusFromErrno("x", ETIMEDOUT).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StatusFromErrno("x", ENOSPC).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromErrno("x", EMFILE).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromErrno("x", EACCES).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromErrno("x", EINVAL).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromErrno("x", EIO).code(), StatusCode::kIOError);
  const Status s = StatusFromErrno("opening /tmp/zzz", ENOENT);
  EXPECT_NE(s.ToString().find("opening /tmp/zzz"), std::string::npos);
}

TEST(PosixStatusTest, OverloadReadsTheCallingThreadsErrno) {
  errno = EPIPE;
  EXPECT_EQ(StatusFromErrno("send").code(), StatusCode::kUnavailable);
}

TEST(PosixIoTest, WriteFullThenReadFullRoundTrips) {
  // tmpfile()/fileno() keeps the test inside the stdio wrappers the
  // determinism lint allows tree-wide (raw open()/pipe() are confined).
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const int fd = fileno(f);
  std::string data(70'000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 % 251);
  }
  ASSERT_TRUE(WriteFull(fd, data.data(), data.size()).ok());
  ASSERT_EQ(lseek(fd, 0, SEEK_SET), 0);
  std::string got(data.size(), '\0');
  size_t bytes_read = 0;
  ASSERT_TRUE(ReadFull(fd, got.data(), got.size(), &bytes_read).ok());
  EXPECT_EQ(bytes_read, data.size());
  EXPECT_EQ(got, data);
  std::fclose(f);
}

TEST(PosixIoTest, ShortStreamIsDataLossWithByteAccounting) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const int fd = fileno(f);
  const char payload[10] = "123456789";
  ASSERT_TRUE(WriteFull(fd, payload, 10).ok());
  ASSERT_EQ(lseek(fd, 0, SEEK_SET), 0);
  char buf[16];
  size_t bytes_read = 0;
  const Status s = ReadFull(fd, buf, sizeof(buf), &bytes_read);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bytes_read, 10u);  // The framing layer sees a *torn* frame.
  EXPECT_NE(s.ToString().find("10/16"), std::string::npos) << s.ToString();
  std::fclose(f);
}

TEST(PosixIoTest, CleanEofReadsZeroBytes) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  char buf[8];
  size_t bytes_read = 99;
  const Status s = ReadFull(fileno(f), buf, sizeof(buf), &bytes_read);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bytes_read, 0u);  // A peer that closed *between* frames.
  std::fclose(f);
}

TEST(PosixIoTest, BadDescriptorMapsThroughErrno) {
  char buf[4] = {0};
  EXPECT_EQ(ReadFull(-1, buf, sizeof(buf)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteFull(-1, buf, sizeof(buf)).code(),
            StatusCode::kInvalidArgument);
}

/// A record mixing every writer shape the formats use.
std::string MixedRecord() {
  ByteWriter w;
  w.Bytes("MAGC", 4);
  w.Pod<uint32_t>(7);
  w.Str32("stage:a");
  w.Vec64(std::vector<float>{0.5f, -1.0f, 3.25f});
  const uint64_t raw[] = {1, 2};
  w.Array(raw, 2);
  w.Pod<double>(2.5);
  return w.Take();
}

TEST(ByteCodecTest, MixedRecordRoundTrips) {
  const std::string bytes = MixedRecord();
  ByteReader in(bytes);
  EXPECT_EQ(std::string(in.Skip(4), 4), "MAGC");
  EXPECT_EQ(in.Pod<uint32_t>(), 7u);
  EXPECT_EQ(in.Str32(), "stage:a");
  std::vector<float> floats;
  in.Vec64(&floats);
  EXPECT_EQ(floats, (std::vector<float>{0.5f, -1.0f, 3.25f}));
  std::vector<uint64_t> raw;
  in.Array(2, &raw);
  EXPECT_EQ(raw, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(in.Pod<double>(), 2.5);
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.left(), 0u);
}

TEST(ByteCodecTest, EveryTruncationPrefixFails) {
  const std::string bytes = MixedRecord();
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    ByteReader in(std::string_view(bytes).substr(0, keep));
    in.Skip(4);
    in.Pod<uint32_t>();
    in.Str32();
    std::vector<float> floats;
    in.Vec64(&floats);
    std::vector<uint64_t> raw;
    in.Array(2, &raw);
    in.Pod<double>();
    EXPECT_FALSE(in.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

TEST(ByteCodecTest, WrappingLengthPrefixIsRejectedBeforeAllocating) {
  // 2^62 four-byte elements: the byte size 2^64 wraps to 0, which a
  // `n * sizeof(T) <= left` check would accept.
  ByteWriter w;
  w.Pod<uint64_t>(uint64_t{1} << 62);
  w.Pod<uint64_t>(0);
  const std::string bytes = w.Take();
  ByteReader in(bytes);
  std::vector<uint32_t> out;
  in.Vec64(&out);
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(out.capacity(), 0u);

  ByteReader fits(bytes);
  EXPECT_TRUE(fits.Fits(4, sizeof(uint32_t)));
  EXPECT_FALSE(fits.Fits(5, sizeof(uint32_t)));
  EXPECT_FALSE(fits.Fits(uint64_t{1} << 62, sizeof(uint32_t)));

  ByteWriter s;
  s.Pod<uint32_t>(0xFFFFFFFFu);  // String length far past the end.
  const std::string str_bytes = s.Take();
  ByteReader str_in(str_bytes);
  EXPECT_EQ(str_in.Str32(), "");
  EXPECT_FALSE(str_in.ok());
}

TEST(ByteCodecTest, CrcTrailerRoundTripsAndCatchesEveryBitFlip) {
  ByteWriter w;
  w.Bytes("payload", 7);
  w.Pod<uint64_t>(42);
  w.CrcTrailer();
  std::string record = w.Take();
  const auto payload = StripCrcTrailer(record);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, std::string_view(record).substr(0, 15));

  for (size_t bit = 0; bit < record.size() * 8; ++bit) {
    record[bit / 8] = static_cast<char>(record[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_FALSE(StripCrcTrailer(record).has_value()) << "bit " << bit;
    record[bit / 8] = static_cast<char>(record[bit / 8] ^ (1 << (bit % 8)));
  }
  ASSERT_TRUE(StripCrcTrailer(record).has_value());
  EXPECT_FALSE(StripCrcTrailer(std::string_view(record).substr(0, 3)));
}

TEST(ByteFileTest, AtomicWriteReplacesAndCleansUpOnFailure) {
  const std::string dir = ::testing::TempDir() + "/sgnn_bytes_file";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/record.bin";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(ReadFile(dir + "/absent.bin").status().code(),
            StatusCode::kNotFound);

  // Renaming a file over a non-empty directory fails: the error surfaces
  // and the `.tmp` sibling does not linger.
  const std::string blocked = dir + "/blocked";
  std::filesystem::create_directories(blocked + "/child");
  EXPECT_FALSE(WriteFileAtomic(blocked, "bytes").ok());
  EXPECT_FALSE(std::filesystem::exists(blocked + ".tmp"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sgnn::common
