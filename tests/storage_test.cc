#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "analysis/validate.h"
#include "common/bytes.h"
#include "common/counters.h"
#include "common/rng.h"
#include "graph/coo.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "par/par.h"
#include "partition/partition.h"
#include "ppr/ppr.h"
#include "sampling/neighbor_sampler.h"
#include "storage/format.h"
#include "storage/ooc.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"

// Allocation cap for hostile-input tests: while non-zero, any single
// operator-new request above it throws std::bad_alloc. A reader that sizes
// a buffer from an unchecked length field then fails loudly instead of
// touching gigabytes.
static std::atomic<size_t> g_allocation_cap{0};

void* operator new(std::size_t n) {
  const size_t cap = g_allocation_cap.load(std::memory_order_relaxed);
  if (cap != 0 && n > cap) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
// GCC cannot see that the replaced operator new allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sgnn::storage {
namespace {

using graph::CsrGraph;
using graph::NodeId;
using graph::Normalization;

/// Fresh empty scratch directory under the test temp root.
std::string NewDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sgnn_storage_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

void ExpectStatusContains(const common::Status& status,
                          const std::string& needle) {
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << "status message: " << status.message();
}

/// Rebuilds the full adjacency of `u` from the shard set and checks it is
/// byte-identical to the in-memory graph's.
void ExpectShardsMatchGraph(const CsrGraph& g, const std::string& dir) {
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().message();
  const ShardManifest& manifest = manifest_or.value();
  ASSERT_EQ(manifest.num_nodes, g.num_nodes());
  ASSERT_EQ(manifest.num_edges, static_cast<uint64_t>(g.num_edges()));
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    auto shard_or = ReadShardFile(ShardPath(dir, static_cast<int>(s)));
    ASSERT_TRUE(shard_or.ok()) << shard_or.status().message();
    const ShardData& shard = shard_or.value();
    for (size_t r = 0; r < shard.rows.size(); ++r) {
      const NodeId u = shard.rows[r];
      auto nbrs = g.Neighbors(u);
      auto ws = g.Weights(u);
      const uint64_t begin = shard.offsets[r];
      const uint64_t count = shard.offsets[r + 1] - begin;
      ASSERT_EQ(count, nbrs.size()) << "node " << u;
      ASSERT_EQ(0, std::memcmp(shard.neighbors.data() + begin, nbrs.data(),
                               nbrs.size() * sizeof(NodeId)));
      ASSERT_EQ(0, std::memcmp(shard.weights.data() + begin, ws.data(),
                               ws.size() * sizeof(float)));
    }
  }
}

TEST(FormatTest, ParseBudget) {
  EXPECT_EQ(ParseBudget("262144", 7), 262144u);
  EXPECT_EQ(ParseBudget("256K", 7), 256u * 1024);
  EXPECT_EQ(ParseBudget("4k", 7), 4096u);
  EXPECT_EQ(ParseBudget("3M", 7), 3u * 1024 * 1024);
  EXPECT_EQ(ParseBudget("1G", 7), uint64_t{1} << 30);
  EXPECT_EQ(ParseBudget("0", 7), 0u);
  EXPECT_EQ(ParseBudget(nullptr, 7), 7u);
  EXPECT_EQ(ParseBudget("", 7), 7u);
  EXPECT_EQ(ParseBudget("junk", 7), 7u);
  EXPECT_EQ(ParseBudget("12X", 7), 7u);
}

TEST(FormatTest, ResidentBudgetPrecedence) {
  // A context value always wins; the env is only a fallback for 0.
  const char* old = std::getenv(kResidentBudgetEnv);
  const std::string saved = old != nullptr ? old : "";
  setenv(kResidentBudgetEnv, "4K", 1);
  EXPECT_EQ(ResidentBudgetBytes(123), 123u);
  EXPECT_EQ(ResidentBudgetBytes(0), 4096u);
  unsetenv(kResidentBudgetEnv);
  EXPECT_EQ(ResidentBudgetBytes(0), 0u);
  if (old != nullptr) setenv(kResidentBudgetEnv, saved.c_str(), 1);
}

/// FNV-1a-64 of `bytes`: a compact pin of an exact on-disk image.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

TEST(FormatTest, SerializedBytesArePinned) {
  // Fixed small inputs; the length and hash pin every byte of both
  // layouts, so a codec change that moves one byte fails here.
  ShardManifest manifest;
  manifest.num_nodes = 4;
  manifest.num_edges = 3;
  manifest.shards = {{2, 0, 1, 3, 88}, {2, 2, 3, 0, 72}};
  manifest.shard_of = {0, 0, 1, 1};
  const std::string manifest_bytes = SerializeManifest(manifest);
  EXPECT_EQ(manifest_bytes.size(), 108u);
  EXPECT_EQ(Fnv1a64(manifest_bytes), 5254059862441782948ull);

  ShardData shard;
  shard.shard_id = 1;
  shard.rows = {0, 3, 5};
  shard.offsets = {0, 2, 2, 3};
  shard.neighbors = {3, 5, 0};
  shard.weights = {0.5f, -1.25f, 2.0f};
  const std::string shard_bytes = SerializeShard(shard);
  EXPECT_EQ(shard_bytes.size(), LayoutFor(3, 3).file_bytes);
  EXPECT_EQ(shard_bytes.size(), 124u);
  EXPECT_EQ(Fnv1a64(shard_bytes), 1509186080352143227ull);
}

TEST(WriterTest, RoundTripContiguousPlan) {
  const CsrGraph g = graph::ErdosRenyi(200, 800, 7);
  const std::string dir = NewDir("roundtrip_contig");
  const ShardPlan plan = ShardPlan::Contiguous(g, 4);
  ASSERT_TRUE(WriteShardedGraph(g, plan, dir).ok());
  ExpectShardsMatchGraph(g, dir);
  EXPECT_TRUE(analysis::ValidateShardedGraph(dir).ok());
  // Decode -> re-serialize reproduces the on-disk bytes exactly, and a
  // second conversion of the same graph is byte-identical file for file.
  const std::string dir2 = NewDir("roundtrip_contig2");
  ASSERT_TRUE(WriteShardedGraph(g, plan, dir2).ok());
  EXPECT_EQ(ReadAll(ManifestPath(dir)), ReadAll(ManifestPath(dir2)));
  for (int s = 0; s < plan.num_shards; ++s) {
    const std::string bytes = ReadAll(ShardPath(dir, s));
    auto shard_or = ReadShardFile(ShardPath(dir, s));
    ASSERT_TRUE(shard_or.ok());
    EXPECT_EQ(SerializeShard(shard_or.value()), bytes) << "shard " << s;
    EXPECT_EQ(ReadAll(ShardPath(dir2, s)), bytes) << "shard " << s;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(WriterTest, RoundTripPartitionPlan) {
  const CsrGraph g = graph::BarabasiAlbert(150, 3, 21);
  const partition::Partition part = partition::LdgPartition(g, 3, 1.1, 5);
  const std::string dir = NewDir("roundtrip_ldg");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::FromPartition(part), dir).ok());
  ExpectShardsMatchGraph(g, dir);
  EXPECT_TRUE(analysis::ValidateShardedGraph(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(OpenTest, MissingDirectoryIsNotFound) {
  auto open_or = ShardedGraph::Open(NewDir("never_written"));
  ASSERT_FALSE(open_or.ok());
  EXPECT_EQ(open_or.status().code(), common::StatusCode::kNotFound);
}

TEST(OpenTest, ViewMatchesGraphSurface) {
  const CsrGraph g = graph::ErdosRenyi(120, 500, 3);
  const std::string dir = NewDir("surface");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 3), dir).ok());
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ShardedGraph& sg = *open_or.value();
  EXPECT_EQ(sg.num_nodes(), g.num_nodes());
  EXPECT_EQ(sg.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(sg.OutDegree(u), g.OutDegree(u));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto pin_or = sg.Pin(u);
    ASSERT_TRUE(pin_or.ok());
    auto nbrs = pin_or.value().Neighbors(u);
    auto expected = g.Neighbors(u);
    ASSERT_EQ(nbrs.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(nbrs.data(), expected.data(),
                             nbrs.size() * sizeof(NodeId)));
    EXPECT_DOUBLE_EQ(graph::WeightSum(pin_or.value().Weights(u)),
                     g.WeightedDegree(u));
  }
  std::filesystem::remove_all(dir);
}

/// One corruption-injection case per file section: flip a byte, assert the
/// diagnostic names that section, restore the byte.
TEST(CorruptionTest, EveryShardSectionIsCovered) {
  const CsrGraph g = graph::ErdosRenyi(100, 400, 9);
  const std::string dir = NewDir("corrupt");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  const ShardEntry& entry = manifest_or.value().shards[0];
  ASSERT_GT(entry.num_rows, 0u);
  ASSERT_GT(entry.num_edges, 0u);
  const ShardLayout layout = LayoutFor(entry.num_rows, entry.num_edges);
  const std::string shard0 = ShardPath(dir, 0);

  const struct {
    uint64_t offset;
    const char* diagnostic;
  } cases[] = {
      {8, "header"},  // version field, covered by the header CRC
      {layout.rows_off, "rows section"},
      {layout.offsets_off, "offsets section"},
      {layout.neighbors_off, "neighbors section"},
      {layout.weights_off, "weights section"},
  };
  for (const auto& c : cases) {
    FlipByte(shard0, c.offset);
    ExpectStatusContains(ReadShardFile(shard0).status(), c.diagnostic);
    ExpectStatusContains(analysis::ValidateShardedGraph(dir), c.diagnostic);
    FlipByte(shard0, c.offset);  // restore
    ASSERT_TRUE(ReadShardFile(shard0).ok()) << "offset " << c.offset;
  }

  // Truncation: dropping the tail is caught before any section parse.
  const std::string bytes = ReadAll(shard0);
  {
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size() - 8));
  }
  ExpectStatusContains(ReadShardFile(shard0).status(), "truncated");
  {
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
  }

  // Manifest corruption: the trailing CRC catches any flipped byte.
  FlipByte(ManifestPath(dir), 20);
  ASSERT_FALSE(ReadManifest(ManifestPath(dir)).ok());
  FlipByte(ManifestPath(dir), 20);

  // The mmap path re-verifies on load: a neighbour-section flip passes
  // Open (which only reads header/rows/offsets) but fails the pin.
  FlipByte(shard0, layout.neighbors_off);
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ExpectStatusContains(open_or.value()->PinShard(0).status(),
                       "neighbors section");
  FlipByte(shard0, layout.neighbors_off);
  std::filesystem::remove_all(dir);
}

TEST(CorruptionTest, TornManifestIsDataLossAtEveryTruncationPoint) {
  // Crash-atomicity: a torn manifest write (the rename never happened, or a
  // crash left a short file) must surface as kDataLoss with a first-offender
  // message at EVERY possible truncation length — never UB, never a
  // partially-opened graph. Sweep every byte boundary of the manifest tail.
  const CsrGraph g = graph::ErdosRenyi(60, 240, 11);
  const std::string dir = NewDir("torn_manifest");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  const std::string manifest_path = ManifestPath(dir);
  const std::string bytes = ReadAll(manifest_path);
  ASSERT_GT(bytes.size(), 8u);

  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    {
      std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamoff>(keep));
    }
    auto open_or = ShardedGraph::Open(dir);
    ASSERT_FALSE(open_or.ok()) << "opened with a " << keep
                               << "-byte manifest tail";
    EXPECT_EQ(open_or.status().code(), common::StatusCode::kDataLoss)
        << "keep=" << keep << ": " << open_or.status().ToString();
    // First-offender diagnostics: the message names the manifest and what
    // framing check tripped, so operators see the torn file immediately.
    ExpectStatusContains(open_or.status(), manifest_path);
  }

  // Restoring the full manifest restores the graph: no state leaked from
  // the failed opens.
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
  }
  auto open_or = ShardedGraph::Open(dir);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  EXPECT_EQ(open_or.value()->num_nodes(), g.num_nodes());
  std::filesystem::remove_all(dir);
}

TEST(CorruptionTest, HugeNodeCountIsDataLossWithoutAllocating) {
  // A CRC-valid 64-byte manifest claiming 0xFFFFFFF0 nodes with no
  // assignment bytes behind it. The count once sized `shard_of` (16 GiB)
  // before any check; now it is checked against the bytes left. The cap
  // turns any such allocation into a failure of this test. A hostile-input
  // regression seed.
  common::ByteWriter w;
  w.Bytes(kManifestMagic, sizeof(kManifestMagic));
  w.Pod<uint32_t>(kFormatVersion);
  w.Pod<uint32_t>(1);            // num_shards
  w.Pod<uint32_t>(0xFFFFFFF0u);  // num_nodes
  w.Pod<uint64_t>(0);            // num_edges
  const uint32_t entry[7] = {};
  w.Array(entry, 7);             // one all-zero 28-byte shard entry
  w.Pod<uint32_t>(0);            // assignment CRC
  w.CrcTrailer();
  const std::string dir = NewDir("huge_nodes");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(common::WriteFileAtomic(ManifestPath(dir), w.Take()).ok());

  g_allocation_cap = size_t{1} << 30;
  auto manifest_or = ReadManifest(ManifestPath(dir));
  g_allocation_cap = 0;
  ASSERT_FALSE(manifest_or.ok());
  EXPECT_EQ(manifest_or.status().code(), common::StatusCode::kDataLoss);
  ExpectStatusContains(manifest_or.status(), "truncated manifest");
  std::filesystem::remove_all(dir);
}

TEST(ValidatorTest, SemanticFirstOffenderDiagnostics) {
  const CsrGraph g = graph::ErdosRenyi(80, 300, 4);
  const std::string dir = NewDir("semantic");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  ShardManifest manifest = manifest_or.value();
  auto shard_or = ReadShardFile(ShardPath(dir, 0));
  ASSERT_TRUE(shard_or.ok());
  ShardData shard = shard_or.value();
  ASSERT_TRUE(analysis::ValidateShardManifest(manifest).ok());
  ASSERT_TRUE(analysis::ValidateShardData(manifest, 0, shard).ok());

  {  // Out-of-range neighbour id.
    ShardData bad = shard;
    bad.neighbors[0] = manifest.num_nodes + 5;
    ExpectStatusContains(analysis::ValidateShardData(manifest, 0, bad),
                         "neighbour id out of range");
  }
  {  // A node stored in a shard the assignment gives to another.
    ShardManifest bad = manifest;
    bad.shard_of[shard.rows[0]] = 1;
    ExpectStatusContains(analysis::ValidateShardData(bad, 0, shard),
                         "overlapping shard ranges");
    // The manifest-level counting pass sees the same overlap.
    ExpectStatusContains(analysis::ValidateShardManifest(bad),
                         "overlapping or missing shard ranges");
  }
  {  // Recorded file size inconsistent with the recorded counts.
    ShardManifest bad = manifest;
    bad.shards[0].file_bytes -= 16;
    ExpectStatusContains(analysis::ValidateShardManifest(bad),
                         "truncated shard file");
  }
  {  // Non-finite weight.
    ShardData bad = shard;
    bad.weights[0] = std::numeric_limits<float>::quiet_NaN();
    ExpectStatusContains(analysis::ValidateShardData(manifest, 0, bad),
                         "not finite");
  }
  std::filesystem::remove_all(dir);
}

TEST(ValidatorTest, RunContextWiring) {
  core::RunContext ctx;
  ctx.resident_budget_bytes = 4096;
  EXPECT_FALSE(analysis::ShardOpenOptions(ctx).deep_validator);
  ctx.validate_stages = true;
  OpenOptions options = analysis::ShardOpenOptions(ctx);
  EXPECT_EQ(options.budget_bytes, 4096u);
  ASSERT_TRUE(options.deep_validator);
  // The wired hook is the real end-to-end validator.
  const CsrGraph g = graph::ErdosRenyi(60, 200, 2);
  const std::string dir = NewDir("wiring");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  EXPECT_TRUE(options.deep_validator(dir).ok());
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  const ShardLayout layout = LayoutFor(manifest_or.value().shards[0].num_rows,
                                       manifest_or.value().shards[0].num_edges);
  FlipByte(ShardPath(dir, 0), layout.weights_off);
  // A deep-validated Open refuses the corrupt directory outright.
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_FALSE(open_or.ok());
  ExpectStatusContains(open_or.status(), "weights section");
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, BudgetExhaustionIsResourceExhausted) {
  const CsrGraph g = graph::ErdosRenyi(100, 400, 17);
  const std::string dir = NewDir("exhausted");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  OpenOptions options;
  options.budget_bytes = 64;  // Smaller than any shard file.
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  auto pin_or = open_or.value()->PinShard(0);
  ASSERT_FALSE(pin_or.ok());
  EXPECT_EQ(pin_or.status().code(), common::StatusCode::kResourceExhausted);
  ExpectStatusContains(pin_or.status(), "SGNN_RESIDENT_BUDGET");
  std::filesystem::remove_all(dir);
}

uint64_t MaxShardBytes(const ShardedGraph& sg) {
  uint64_t max_bytes = 0;
  for (const ShardEntry& entry : sg.manifest().shards) {
    max_bytes = std::max(max_bytes, entry.file_bytes);
  }
  return max_bytes;
}

TEST(CacheTest, EvictionSequenceIsThreadCountInvariant) {
  const CsrGraph g = graph::ErdosRenyi(400, 3000, 23);
  const std::string dir = NewDir("eviction_det");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 6), dir).ok());
  const int saved_threads = par::NumThreads();
  StorageStats reference;
  for (const int threads : {1, 8}) {
    par::SetThreads(threads);
    OpenOptions options;
    auto probe_or = ShardedGraph::Open(dir, options);
    ASSERT_TRUE(probe_or.ok());
    options.budget_bytes = 2 * MaxShardBytes(*probe_or.value());
    auto open_or = ShardedGraph::Open(dir, options);
    ASSERT_TRUE(open_or.ok());
    ShardedGraph& sg = *open_or.value();
    auto prop_or = OocPropagator::Create(&sg, Normalization::kSymmetric, true);
    ASSERT_TRUE(prop_or.ok());
    tensor::Matrix x(static_cast<int64_t>(g.num_nodes()), 4, 1.0f);
    tensor::Matrix out;
    ASSERT_TRUE(prop_or.value().Apply(x, &out).ok());
    const std::vector<NodeId> seeds = {0, 5, 9, 120, 311};
    ASSERT_TRUE(PushBatch(&sg, seeds, 0.15, 1e-4).ok());
    const StorageStats stats = sg.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.peak_resident_bytes, options.budget_bytes);
    if (threads == 1) {
      reference = stats;
    } else {
      // The load/eviction sequence is a pure function of (graph, plan,
      // budget): byte-for-byte equal counters at any SGNN_THREADS.
      EXPECT_EQ(stats.loads, reference.loads);
      EXPECT_EQ(stats.evictions, reference.evictions);
      EXPECT_EQ(stats.bytes_loaded, reference.bytes_loaded);
      EXPECT_EQ(stats.peak_resident_bytes, reference.peak_resident_bytes);
    }
  }
  par::SetThreads(saved_threads);
  std::filesystem::remove_all(dir);
}

// Load/eviction pin of out-of-core push then sampling at the tiny budget,
// recorded before both kernels were ported onto the shared in-memory
// loops: the port must not move a single pin.
TEST(CacheTest, PushThenSampleLoadSequenceIsPinned) {
  const CsrGraph g = graph::ErdosRenyi(300, 1800, 13);
  const std::string dir = NewDir("pin_sequence");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 5), dir).ok());
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto probe_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(probe_or.ok());
  options.budget_bytes = MaxShardBytes(*probe_or.value());
  probe_or.value().reset();
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ShardedGraph& sg = *open_or.value();
  const std::vector<NodeId> seeds = {0, 7, 42, 131, 256, 299};
  ASSERT_TRUE(PushBatch(&sg, seeds, 0.2, 1e-4).ok());
  const StorageStats after_push = sg.stats();
  EXPECT_EQ(after_push.loads, 3842u);
  EXPECT_EQ(after_push.evictions, 3841u);
  const std::vector<int> fanouts = {3, 2};
  common::Rng rng(1234);
  ASSERT_TRUE(SampleNodeWise(&sg, seeds, fanouts, &rng).ok());
  const StorageStats after_sample = sg.stats();
  EXPECT_EQ(after_sample.loads, 3849u);
  EXPECT_EQ(after_sample.evictions, 3848u);
  std::filesystem::remove_all(dir);
}

/// The acceptance gate: propagate + PPR + sampling over a ShardedGraph
/// whose budget is far below the total shard bytes, bit-identical to the
/// in-memory kernels, at tiny and unlimited budgets x 1 and 8 threads.
TEST(BitIdentityTest, PipelineMatchesInMemoryAtAnyBudgetAndThreads) {
  const CsrGraph g = graph::ErdosRenyi(300, 1800, 13);
  const std::string dir = NewDir("bit_identity");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 5), dir).ok());

  // In-memory reference results.
  const graph::Propagator prop(g, Normalization::kSymmetric, true);
  tensor::Matrix x(static_cast<int64_t>(g.num_nodes()), 6);
  common::Rng fill(99);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(fill.Uniform(-1.0, 1.0));
  }
  tensor::Matrix expected_out;
  prop.Apply(x, &expected_out);
  const std::vector<NodeId> seeds = {0, 7, 42, 131, 256, 299};
  const std::vector<ppr::PushResult> expected_ppr =
      ppr::PushBatch(g, seeds, 0.2, 1e-4);
  const std::vector<int> fanouts = {3, 2};
  common::Rng sample_rng(1234);
  const sampling::MiniBatch expected_batch =
      sampling::SampleNodeWise(g, seeds, fanouts, &sample_rng);

  OpenOptions probe;
  probe.budget_bytes = kUnlimitedBudget;
  auto probe_or = ShardedGraph::Open(dir, probe);
  ASSERT_TRUE(probe_or.ok());
  const uint64_t tiny = MaxShardBytes(*probe_or.value());
  ASSERT_LT(tiny, probe_or.value()->total_shard_bytes());
  probe_or.value().reset();

  const int saved_threads = par::NumThreads();
  for (const uint64_t budget : {tiny, kUnlimitedBudget}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) +
                   " threads=" + std::to_string(threads));
      par::SetThreads(threads);
      OpenOptions options;
      options.budget_bytes = budget;
      auto open_or = ShardedGraph::Open(dir, options);
      ASSERT_TRUE(open_or.ok()) << open_or.status().message();
      ShardedGraph& sg = *open_or.value();

      auto ooc_prop_or =
          OocPropagator::Create(&sg, Normalization::kSymmetric, true);
      ASSERT_TRUE(ooc_prop_or.ok());
      tensor::Matrix out;
      ASSERT_TRUE(ooc_prop_or.value().Apply(x, &out).ok());
      ASSERT_EQ(out.size(), expected_out.size());
      EXPECT_EQ(0, std::memcmp(out.data(), expected_out.data(),
                               static_cast<size_t>(out.size()) *
                                   sizeof(float)));

      auto ppr_or = PushBatch(&sg, seeds, 0.2, 1e-4);
      ASSERT_TRUE(ppr_or.ok());
      ASSERT_EQ(ppr_or.value().size(), expected_ppr.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        const ppr::PushResult& got = ppr_or.value()[i];
        const ppr::PushResult& want = expected_ppr[i];
        EXPECT_EQ(got.pushes, want.pushes);
        EXPECT_EQ(got.edges_touched, want.edges_touched);
        // Exact double equality per (node, mass) entry; memcmp would also
        // compare the pair's uninitialised padding bytes.
        EXPECT_EQ(got.estimate, want.estimate);
      }

      common::Rng rng(1234);
      auto batch_or = SampleNodeWise(&sg, seeds, fanouts, &rng);
      ASSERT_TRUE(batch_or.ok());
      const sampling::MiniBatch& got = batch_or.value();
      ASSERT_EQ(got.layers.size(), expected_batch.layers.size());
      for (size_t l = 0; l < got.layers.size(); ++l) {
        EXPECT_EQ(got.layers[l].dst, expected_batch.layers[l].dst);
        EXPECT_EQ(got.layers[l].src, expected_batch.layers[l].src);
        EXPECT_EQ(got.layers[l].offsets, expected_batch.layers[l].offsets);
        EXPECT_EQ(got.layers[l].src_local,
                  expected_batch.layers[l].src_local);
        EXPECT_EQ(got.layers[l].weights, expected_batch.layers[l].weights);
      }

      const StorageStats stats = sg.stats();
      EXPECT_LE(stats.peak_resident_bytes,
                budget == kUnlimitedBudget ? sg.total_shard_bytes() : budget);
      if (budget == tiny) {
        EXPECT_GT(stats.evictions, 0u);
      }
    }
  }
  par::SetThreads(saved_threads);
  std::filesystem::remove_all(dir);
}

/// Directed graph with skewed out-degrees, varied and some zero weights,
/// and isolated nodes: every coefficient case the propagators handle
/// (zero coefficients, zero degrees, hub rows spanning several panels).
CsrGraph SkewedWeightedGraph() {
  const NodeId n = 400;
  common::Rng rng(41);
  graph::EdgeListBuilder edge_list(n);
  for (int e = 0; e < 12000; ++e) {
    const double r = rng.Uniform(0.0, 1.0);
    const NodeId u = static_cast<NodeId>(r * r * r * (n - 20));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0.0, n - 20));
    const float w =
        e % 17 == 0 ? 0.0f : static_cast<float>(rng.Uniform(0.1, 2.0));
    edge_list.AddEdge(u, v, w);
  }
  return CsrGraph::FromBuilder(std::move(edge_list));
}

/// Out-of-core propagation must equal the in-memory operator byte for
/// byte at every normalisation, with and without self loops, below and
/// above the column-blocking width, on a shard plan whose rows are not
/// contiguous.
TEST(OocPropagatorTest, BitIdenticalAtEveryNormalizationAndWidth) {
  const CsrGraph g = SkewedWeightedGraph();
  std::vector<int> assignment(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) assignment[u] = u % 3;
  const std::string dir = NewDir("ooc_norms");
  ASSERT_TRUE(WriteShardedGraph(
                  g, ShardPlan::FromPartition({assignment, 3}), dir)
                  .ok());
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ShardedGraph& sg = *open_or.value();
  for (const int64_t cols : {24, 160}) {
    common::Rng fill(7);
    const tensor::Matrix x =
        tensor::Matrix::Gaussian(g.num_nodes(), cols, 0.0f, 1.0f, &fill);
    for (const Normalization norm :
         {Normalization::kNone, Normalization::kRow, Normalization::kColumn,
          Normalization::kSymmetric}) {
      for (const bool self_loops : {false, true}) {
        SCOPED_TRACE("cols=" + std::to_string(cols) + " norm=" +
                     std::to_string(static_cast<int>(norm)) +
                     " self_loops=" + std::to_string(self_loops));
        const graph::Propagator prop(g, norm, self_loops);
        tensor::Matrix want;
        prop.Apply(x, &want);
        auto ooc_or = OocPropagator::Create(&sg, norm, self_loops);
        ASSERT_TRUE(ooc_or.ok());
        tensor::Matrix got;
        ASSERT_TRUE(ooc_or.value().Apply(x, &got).ok());
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 static_cast<size_t>(got.size()) *
                                     sizeof(float)));
      }
    }
  }
  std::filesystem::remove_all(dir);
}

/// Both propagators bill the same work: equal edge, float and byte deltas
/// for one `Apply`, at both schedules.
TEST(OocPropagatorTest, BillsTheSameCountersAsInMemory) {
  const CsrGraph g = SkewedWeightedGraph();
  const std::string dir = NewDir("ooc_bill");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 4), dir).ok());
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ShardedGraph& sg = *open_or.value();
  for (const int64_t cols : {24, 160}) {
    common::Rng fill(9);
    const tensor::Matrix x =
        tensor::Matrix::Gaussian(g.num_nodes(), cols, 0.0f, 1.0f, &fill);
    for (const Normalization norm :
         {Normalization::kColumn, Normalization::kSymmetric}) {
      SCOPED_TRACE("cols=" + std::to_string(cols) + " norm=" +
                   std::to_string(static_cast<int>(norm)));
      const graph::Propagator prop(g, norm, /*add_self_loops=*/true);
      auto ooc_or = OocPropagator::Create(&sg, norm, /*add_self_loops=*/true);
      ASSERT_TRUE(ooc_or.ok());
      tensor::Matrix out;
      common::ScopedCounterDelta in_memory_scope;
      prop.Apply(x, &out);
      const common::OpCounters want = in_memory_scope.Delta();
      common::ScopedCounterDelta ooc_scope;
      ASSERT_TRUE(ooc_or.value().Apply(x, &out).ok());
      const common::OpCounters got = ooc_scope.Delta();
      EXPECT_GT(want.bytes_read, 0u);
      EXPECT_EQ(got.edges_touched, want.edges_touched);
      EXPECT_EQ(got.floats_moved, want.floats_moved);
      EXPECT_EQ(got.bytes_read, want.bytes_read);
      EXPECT_EQ(got.bytes_written, want.bytes_written);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CountersTest, OutOfCoreSamplerBillsLikeInMemory) {
  const CsrGraph g = graph::BarabasiAlbert(400, 6, 17);
  const std::string dir = NewDir("sample_billing");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 4), dir).ok());
  const std::vector<NodeId> seeds = {0, 3, 19, 77, 150, 201, 333, 399};
  const std::vector<int> fanouts = {4, 3};
  common::ScopedCounterDelta in_memory_scope;
  common::Rng in_memory_rng(21);
  const sampling::MiniBatch expected =
      sampling::SampleNodeWise(g, seeds, fanouts, &in_memory_rng);
  const uint64_t in_memory_edges = in_memory_scope.Delta().edges_touched;
  EXPECT_EQ(in_memory_edges, static_cast<uint64_t>(expected.TotalEdges()));

  const int saved_threads = par::NumThreads();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::SetThreads(threads);
    OpenOptions options;
    options.budget_bytes = kUnlimitedBudget;
    auto open_or = ShardedGraph::Open(dir, options);
    ASSERT_TRUE(open_or.ok());
    common::Rng rng(21);
    common::ScopedCounterDelta scope;
    auto batch_or = SampleNodeWise(open_or.value().get(), seeds, fanouts, &rng);
    ASSERT_TRUE(batch_or.ok());
    EXPECT_EQ(scope.Delta().edges_touched, in_memory_edges);
  }
  par::SetThreads(saved_threads);
  std::filesystem::remove_all(dir);
}

TEST(CountersTest, OutOfCorePushBillsLikeInMemory) {
  const CsrGraph g = graph::BarabasiAlbert(400, 6, 17);
  const std::string dir = NewDir("push_billing");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 4), dir).ok());
  const std::vector<NodeId> seeds = {0, 3, 19, 77, 150, 201, 333, 399};
  common::ScopedCounterDelta in_memory_scope;
  const std::vector<ppr::PushResult> expected =
      ppr::PushBatch(g, seeds, 0.15, 1e-4);
  const uint64_t in_memory_edges = in_memory_scope.Delta().edges_touched;
  uint64_t summed = 0;
  for (const ppr::PushResult& r : expected) {
    summed += static_cast<uint64_t>(r.edges_touched);
  }
  EXPECT_EQ(in_memory_edges, summed);

  OpenOptions probe;
  probe.budget_bytes = kUnlimitedBudget;
  auto probe_or = ShardedGraph::Open(dir, probe);
  ASSERT_TRUE(probe_or.ok());
  const uint64_t tiny = MaxShardBytes(*probe_or.value());
  probe_or.value().reset();

  const int saved_threads = par::NumThreads();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::SetThreads(threads);
    OpenOptions options;
    options.budget_bytes = tiny;
    auto open_or = ShardedGraph::Open(dir, options);
    ASSERT_TRUE(open_or.ok());
    common::ScopedCounterDelta scope;
    auto results_or = PushBatch(open_or.value().get(), seeds, 0.15, 1e-4);
    ASSERT_TRUE(results_or.ok());
    EXPECT_EQ(scope.Delta().edges_touched, in_memory_edges);
    EXPECT_GT(open_or.value()->stats().evictions, 0u);
  }
  par::SetThreads(saved_threads);
  std::filesystem::remove_all(dir);
}

TEST(CountersTest, ShardCountersBillAndRebase) {
  const CsrGraph g = graph::ErdosRenyi(150, 700, 31);
  const std::string dir = NewDir("counters");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 3), dir).ok());
  // Leave a ghost peak from "an earlier run"; Open must re-base it away so
  // the peaks this run reports are its own.
  common::GlobalCounters().AcquireShardBytes(1u << 30);
  common::GlobalCounters().ReleaseShardBytes(1u << 30);
  ASSERT_GE(common::GlobalCounters().peak_resident_shard_bytes, 1u << 30);
  common::ScopedCounterDelta scope;
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok());
  EXPECT_EQ(common::GlobalCounters().peak_resident_shard_bytes, 0u);
  ShardedGraph& sg = *open_or.value();
  for (int s = 0; s < sg.num_shards(); ++s) {
    ASSERT_TRUE(sg.PinShard(s).ok());
  }
  const common::OpCounters delta = scope.Delta();
  const StorageStats stats = sg.stats();
  EXPECT_EQ(delta.shard_loads, stats.loads);
  EXPECT_EQ(delta.shard_bytes_loaded, stats.bytes_loaded);
  EXPECT_EQ(delta.peak_resident_shard_bytes, stats.peak_resident_bytes);
  EXPECT_EQ(stats.resident_bytes, sg.total_shard_bytes());
  std::filesystem::remove_all(dir);
}

TEST(CountersTest, ToStringAppendsShardFieldsOnlyWhenUsed) {
  common::OpCounters c;
  c.edges_touched = 10;
  EXPECT_EQ(c.ToString().find("shard_loads"), std::string::npos);
  c.shard_loads = 2;
  c.shard_bytes_loaded = 4096;
  c.peak_resident_shard_bytes = 2048;
  const std::string s = c.ToString();
  EXPECT_NE(s.find("shard_loads=2"), std::string::npos);
  EXPECT_NE(s.find("peak_resident_shard_bytes=2048"), std::string::npos);
}

}  // namespace
}  // namespace sgnn::storage
