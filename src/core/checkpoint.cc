#include "core/checkpoint.h"

#include <cstddef>
#include <string_view>
#include <type_traits>

#include "analysis/validate.h"
#include "common/bytes.h"

namespace sgnn::core {

using common::Status;
using common::StatusOr;

namespace {

constexpr char kMagic[8] = {'S', 'G', 'N', 'N', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 1;

// Edges are stored as their in-memory records: u32 src | u32 dst | f32
// weight, so the edge list goes to and from disk as one array.
static_assert(std::is_trivially_copyable_v<graph::Edge> &&
              sizeof(graph::Edge) == 12 &&
              offsetof(graph::Edge, dst) == 4 &&
              offsetof(graph::Edge, weight) == 8);

std::string Serialize(const PipelineSnapshot& snap) {
  const std::vector<graph::Edge> edges = snap.graph.ToEdges();
  const size_t feature_floats = static_cast<size_t>(snap.features.size());
  size_t stage_bytes = 0;
  for (const StageTiming& stage : snap.stages) {
    stage_bytes += sizeof(uint32_t) + stage.name.size() + 5 * sizeof(uint64_t);
  }
  // Exact size (76 bytes of fixed fields and CRC, then stages, edges and
  // features): one allocation for the whole snapshot.
  common::ByteWriter w(76 + stage_bytes + edges.size() * sizeof(graph::Edge) +
                       feature_floats * sizeof(float));
  w.Bytes(kMagic, sizeof(kMagic));
  w.Pod<uint32_t>(kVersion);
  w.Pod<uint64_t>(snap.signature);
  w.Pod<int32_t>(snap.stages_done);

  w.Pod(static_cast<uint32_t>(snap.stages.size()));
  for (const StageTiming& stage : snap.stages) {
    w.Str32(stage.name);
    w.Pod<double>(stage.seconds);
    w.Pod<uint64_t>(stage.ops.edges_touched);
    w.Pod<uint64_t>(stage.ops.floats_moved);
    w.Pod<uint64_t>(stage.ops.peak_resident_floats);
    w.Pod<uint64_t>(stage.ops.resident_floats);
  }

  w.Pod<int64_t>(snap.edges_before);
  w.Pod<int64_t>(snap.feature_cols_before);

  w.Pod<uint32_t>(snap.graph.num_nodes());
  w.Vec64(edges);  // Raw bits: resume is bit-identical.

  w.Pod<int64_t>(snap.features.rows());
  w.Pod<int64_t>(snap.features.cols());
  w.Array(snap.features.data(), feature_floats);
  w.CrcTrailer();
  return w.Take();
}

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::IOError("corrupt snapshot " + path + ": " + why);
}

}  // namespace

uint64_t PipelineSignature(const std::vector<std::string>& stage_names,
                           const std::string& model_name) {
  // FNV-1a over the framed name sequence; framing (length prefix) keeps
  // {"ab","c"} distinct from {"a","bc"}.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    h = (h ^ s.size()) * 1099511628211ull;
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  };
  for (const std::string& name : stage_names) mix(name);
  mix(model_name);
  return h;
}

Status SaveSnapshot(const PipelineSnapshot& snapshot,
                    const std::string& path) {
  return common::WriteFileAtomic(path, Serialize(snapshot));
}

StatusOr<PipelineSnapshot> LoadSnapshot(const std::string& path,
                                        uint64_t expected_signature) {
  auto file_or = common::ReadFile(path);
  if (!file_or.ok()) return file_or.status();
  const std::string& bytes = file_or.value();
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t)) {
    return Corrupt(path, "truncated");
  }
  const auto payload = common::StripCrcTrailer(bytes);
  if (!payload) return Corrupt(path, "CRC mismatch");

  common::ByteReader in(*payload);
  const char* magic = in.Skip(sizeof(kMagic));
  if (magic == nullptr || std::string_view(magic, sizeof(kMagic)) !=
                              std::string_view(kMagic, sizeof(kMagic))) {
    return Corrupt(path, "bad magic");
  }
  if (in.Pod<uint32_t>() != kVersion) {
    return Corrupt(path, "unsupported version");
  }

  PipelineSnapshot snap;
  snap.signature = in.Pod<uint64_t>();
  if (in.ok() && snap.signature != expected_signature) {
    return Status::FailedPrecondition(
        "snapshot " + path + " belongs to a different pipeline");
  }
  snap.stages_done = in.Pod<int32_t>();

  const uint32_t num_stages = in.Pod<uint32_t>();
  for (uint32_t i = 0; in.ok() && i < num_stages; ++i) {
    StageTiming stage;
    stage.name = in.Str32();
    stage.seconds = in.Pod<double>();
    stage.ops.edges_touched = in.Pod<uint64_t>();
    stage.ops.floats_moved = in.Pod<uint64_t>();
    stage.ops.peak_resident_floats = in.Pod<uint64_t>();
    stage.ops.resident_floats = in.Pod<uint64_t>();
    snap.stages.push_back(std::move(stage));
  }

  snap.edges_before = in.Pod<int64_t>();
  snap.feature_cols_before = in.Pod<int64_t>();

  const uint32_t num_nodes = in.Pod<uint32_t>();
  std::vector<graph::Edge> edges;
  in.Vec64(&edges);
  if (!in.ok()) return Corrupt(path, "bad edge count");
  for (const graph::Edge& e : edges) {
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Corrupt(path, "edge endpoint out of range");
    }
  }

  // The row count is checked against the bytes left before anything is
  // sized from it: rows * cols * 4 must not wrap.
  const int64_t rows = in.Pod<int64_t>();
  const int64_t cols = in.Pod<int64_t>();
  if (!in.ok() || rows < 0 || cols < 0 || !in.Fits(cols, sizeof(float)) ||
      (cols != 0 && !in.Fits(rows, cols * sizeof(float))) ||
      static_cast<uint64_t>(rows * cols) * sizeof(float) != in.left()) {
    return Corrupt(path, "bad feature dimensions");
  }
  snap.features = tensor::Matrix(rows, cols);
  in.Bytes(snap.features.data(),
           static_cast<size_t>(snap.features.size()) * sizeof(float));

  snap.graph = graph::CsrGraph::FromEdges(num_nodes, std::move(edges));
  if (snap.stages_done < 0 ||
      static_cast<size_t>(snap.stages_done) > snap.stages.size()) {
    return Corrupt(path, "inconsistent stage count");
  }
  return snap;
}

Status ValidateCheckpointFile(const std::string& path,
                              uint64_t expected_signature) {
  auto snapshot = LoadSnapshot(path, expected_signature);
  if (!snapshot.ok()) return snapshot.status();
  return analysis::ValidateCheckpoint(snapshot.value(), expected_signature);
}

}  // namespace sgnn::core
