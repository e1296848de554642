#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <span>
#include <utility>

#include "common/bytes.h"
#include "dist/exchange.h"
#include "dist/frame.h"
#include "graph/propagate.h"
#include "tensor/matrix.h"

namespace sgnn::dist {

using common::Status;
using common::StatusOr;
using graph::NodeId;

std::string WorkerSpec::Serialize() const {
  common::ByteWriter w;
  w.Pod<int32_t>(worker_id);
  w.Pod<int32_t>(num_workers);
  w.Pod<int32_t>(incarnation);
  w.Pod<int32_t>(rows_per_frame);
  w.Pod<int64_t>(cols);
  w.Pod<int64_t>(read_deadline_micros);
  w.Vec64(owned);
  w.Vec64(halo);
  w.Vec64(offsets);
  w.Vec64(neighbors);
  w.Vec64(coefficients);
  w.Vec64(self_loop);
  return w.Take();
}

StatusOr<WorkerSpec> WorkerSpec::Parse(const std::string& payload) {
  common::ByteReader in(payload);
  WorkerSpec spec;
  spec.worker_id = in.Pod<int32_t>();
  spec.num_workers = in.Pod<int32_t>();
  spec.incarnation = in.Pod<int32_t>();
  spec.rows_per_frame = in.Pod<int32_t>();
  spec.cols = in.Pod<int64_t>();
  spec.read_deadline_micros = in.Pod<int64_t>();
  in.Vec64(&spec.owned);
  in.Vec64(&spec.halo);
  in.Vec64(&spec.offsets);
  in.Vec64(&spec.neighbors);
  in.Vec64(&spec.coefficients);
  in.Vec64(&spec.self_loop);
  if (!in.ok() || in.left() != 0) {
    return Status::DataLoss("truncated or oversized worker spec");
  }
  if (spec.worker_id < 0 || spec.num_workers <= 0 ||
      spec.worker_id >= spec.num_workers || spec.cols < 0 ||
      spec.rows_per_frame <= 0 ||
      spec.offsets.size() != spec.owned.size() + 1 ||
      spec.self_loop.size() != spec.owned.size() ||
      spec.coefficients.size() != spec.neighbors.size() ||
      spec.offsets.front() != 0 ||
      !std::is_sorted(spec.offsets.begin(), spec.offsets.end()) ||
      spec.offsets.back() != spec.neighbors.size()) {
    return Status::DataLoss("inconsistent worker spec");
  }
  return spec;
}

namespace {

/// Mutable per-process worker state between frames.
struct WorkerState {
  WorkerSpec spec;
  tensor::Matrix local;  ///< Owned rows first, then halo rows.
  tensor::Matrix out;    ///< One row per owned node, epoch scratch.
  /// Global node id -> row slot in `local`; linear scan is avoided with a
  /// sorted-merge-friendly map (ids arrive sorted, lookups are random).
  std::vector<std::pair<NodeId, int64_t>> slots;  ///< Sorted by id.
  /// `spec.neighbors` resolved to their `local` slots at config time.
  std::vector<NodeId> neighbor_slots;

  int64_t SlotOf(NodeId id) const {
    auto it = std::lower_bound(
        slots.begin(), slots.end(), id,
        [](const std::pair<NodeId, int64_t>& s, NodeId v) {
          return s.first < v;
        });
    if (it == slots.end() || it->first != id) return -1;
    return it->second;
  }
};

/// One epoch of local aggregation: the shared SpMM row kernel over the
/// spec's CSR, gathering from `local` through the resolved neighbour
/// slots. Owned row i is local slot i, so output row, self-loop
/// coefficient and self-loop x row all index by i. Serial on purpose: a
/// forked child must not enter the parent's `par` pool, whose threads and
/// mutex state do not survive `fork`. Its counters are this process's
/// own and vanish at `_exit`.
void ComputeEpoch(WorkerState* state) {
  const WorkerSpec& spec = state->spec;
  state->out.Zero();
  // Same-width signed view of the offsets (as `PinnedShard` does); `Parse`
  // has checked that they ascend to `neighbors.size()`.
  const graph::SpmmRows rows{
      {reinterpret_cast<const int64_t*>(spec.offsets.data()),
       spec.offsets.size()},
      state->neighbor_slots, spec.coefficients, {}, spec.self_loop};
  rows.Apply(state->local, &state->out);
}

/// Stores a received row batch (scatter, restore, or halo) into the local
/// value store; unknown ids are a protocol violation.
Status StoreRows(WorkerState* state, const std::string& payload) {
  return DecodeRows(
      payload, state->spec.cols, [state](NodeId id, const float* row) {
        const int64_t slot = state->SlotOf(id);
        if (slot < 0) {
          return Status::DataLoss("row for node " + std::to_string(id) +
                                  " not owned or haloed here");
        }
        std::copy_n(row, state->spec.cols, state->local.Row(slot).data());
        return Status::OK();
      });
}

}  // namespace

void WorkerMain(int fd, common::FaultInjector* faults) {
  WorkerState state;
  bool configured = false;
  for (;;) {
    const int64_t read_micros = state.spec.read_deadline_micros;
    Frame frame;
    const Status read_status =
        ReadFrame(fd, &frame, common::Deadline::After(read_micros));
    if (!read_status.ok()) {
      // Coordinator gone (EOF), stream torn, or deadline: nothing to do
      // but die; the coordinator's own detection drives recovery.
      _exit(read_status.code() == common::StatusCode::kUnavailable ? 0 : 5);
    }
    switch (frame.type) {
      case FrameType::kConfig: {
        auto spec_or = WorkerSpec::Parse(frame.payload);
        if (!spec_or.ok()) _exit(2);
        state.spec = std::move(spec_or).value();
        const int64_t rows = static_cast<int64_t>(state.spec.owned.size()) +
                             static_cast<int64_t>(state.spec.halo.size());
        state.local = tensor::Matrix(rows, state.spec.cols);
        state.out = tensor::Matrix(
            static_cast<int64_t>(state.spec.owned.size()), state.spec.cols);
        state.slots.clear();
        state.slots.reserve(static_cast<size_t>(rows));
        for (size_t i = 0; i < state.spec.owned.size(); ++i) {
          state.slots.emplace_back(state.spec.owned[i],
                                   static_cast<int64_t>(i));
        }
        for (size_t i = 0; i < state.spec.halo.size(); ++i) {
          state.slots.emplace_back(
              state.spec.halo[i],
              static_cast<int64_t>(state.spec.owned.size() + i));
        }
        std::sort(state.slots.begin(), state.slots.end());
        state.neighbor_slots.resize(state.spec.neighbors.size());
        for (size_t e = 0; e < state.spec.neighbors.size(); ++e) {
          // sgnn-lint: allow(billing/unbilled-kernel-loop): one-time slot
          // resolution at config; the epoch's edge work is billed by
          // `graph::SpmmRows`.
          const int64_t slot = state.SlotOf(state.spec.neighbors[e]);
          // A neighbour neither owned nor haloed is a protocol violation.
          if (slot < 0) _exit(2);
          state.neighbor_slots[e] = static_cast<NodeId>(slot);
        }
        configured = true;
        break;
      }
      case FrameType::kRows:
      case FrameType::kHalo: {
        if (!configured) _exit(2);
        if (!StoreRows(&state, frame.payload).ok()) _exit(2);
        break;
      }
      case FrameType::kGo: {
        if (!configured) _exit(2);
        const uint64_t token =
            KillToken(state.spec.worker_id, static_cast<int>(frame.epoch),
                      state.spec.incarnation);
        const FrameFaults send_faults{faults, token};
        Frame heartbeat;
        heartbeat.type = FrameType::kHeartbeat;
        heartbeat.epoch = frame.epoch;
        if (!WriteFrame(fd, heartbeat, nullptr, send_faults).ok()) _exit(4);

        ComputeEpoch(&state);

        const size_t total = state.spec.owned.size();
        const size_t per_frame =
            static_cast<size_t>(state.spec.rows_per_frame);
        const size_t num_chunks = (total + per_frame - 1) / per_frame;
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          if (chunk == num_chunks / 2 && faults != nullptr &&
              faults->ShouldFail(kSiteWorkerKill, token)) {
            // Injected mid-epoch death: some result rows are already on
            // the wire, the rest never will be. `_exit`, not `exit`: a
            // real SIGKILL runs no user code either.
            _exit(3);
          }
          const size_t begin = chunk * per_frame;
          const size_t count = std::min(per_frame, total - begin);
          Frame rows;
          rows.type = FrameType::kRows;
          rows.epoch = frame.epoch;
          rows.payload = EncodeRows(
              std::span(state.spec.owned).subspan(begin, count), state.out,
              static_cast<int64_t>(begin));
          if (!WriteFrame(fd, rows, nullptr, send_faults).ok()) _exit(4);
        }
        // Adopt the new values for the next epoch before reporting done.
        std::copy_n(state.out.data(), state.out.size(), state.local.data());
        Frame done;
        done.type = FrameType::kEpochDone;
        done.epoch = frame.epoch;
        if (!WriteFrame(fd, done, nullptr, send_faults).ok()) _exit(4);
        break;
      }
      case FrameType::kShutdown:
        _exit(0);
      default:
        _exit(2);
    }
  }
}

}  // namespace sgnn::dist
