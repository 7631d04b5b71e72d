#ifndef STRATLEARN_ROBUST_CHECKPOINT_H_
#define STRATLEARN_ROBUST_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/pib.h"
#include "engine/adaptive_qp.h"
#include "graph/inference_graph.h"
#include "obs/audit/audit_log.h"
#include "robust/fault_injector.h"
#include "util/status.h"

namespace stratlearn::robust {

/// Everything a learning run needs to resume exactly where it stopped:
/// which learner, the workload position (query count + RNG state), the
/// fault injector's state when faults were active, and the learner's own
/// estimate state. One of pib/qpa is meaningful, per `learner`.
struct CheckpointData {
  /// "pib" or "pao".
  std::string learner;
  /// The run's workload seed (sanity-checked against --seed on resume).
  uint64_t seed = 0;
  /// Contexts already consumed from the workload stream.
  int64_t queries_done = 0;
  /// Workload RNG state *after* those contexts, so the resumed run draws
  /// the exact continuation of the stream.
  std::array<uint64_t, 4> rng_state{};

  bool has_injector = false;
  FaultInjectorState injector;

  Pib::Checkpoint pib;
  AdaptiveQueryProcessor::Checkpoint qpa;

  /// Health-monitor verdict at checkpoint time (learn-pib and the
  /// learnbench driver write it on --alerts runs), so an archived
  /// checkpoint records whether drift or a firing alert was active
  /// when it was taken.
  struct HealthStamp {
    bool present = false;
    bool healthy = true;
    int64_t windows_seen = 0;
    int64_t drift_active = 0;
    int64_t firing = 0;
  };
  HealthStamp health;

  /// Time-series collector cursor plus the retained windows as the raw
  /// JSON lines SerializeJsonl would emit. A resumed run replays these
  /// through its health monitor to rebuild detector/alert/recovery
  /// state, which is what makes the post-resume health report
  /// byte-identical to an uninterrupted run's.
  bool has_timeseries = false;
  int64_t ts_window_start = 0;
  int64_t ts_next_index = 0;
  int64_t ts_evicted = 0;
  std::vector<std::string> ts_windows;

  /// Audit-stream cursor (byte offset + writer counters), so a resumed
  /// --audit-out run truncates the killed process's trailing summary
  /// and continues the stream seamlessly.
  bool has_audit = false;
  obs::AuditLog::Cursor audit;
};

/// First line of every checkpoint payload (inside the CRC container).
inline constexpr std::string_view kCheckpointHeader =
    "stratlearn-checkpoint v1";

/// Renders the payload text (no checksum container).
std::string SerializeCheckpoint(const CheckpointData& data);

/// Parses a payload against the checkpoint record list (checkpoint.cc),
/// stopping at the first bad line: every field within its bounds, arc
/// and node ids inside `graph`, the strategy one of its strategies, and
/// every required record present. Numeric consistency of the learner
/// state is re-checked by the learner's own RestoreCheckpoint.
Result<CheckpointData> ParseCheckpoint(const InferenceGraph& graph,
                                       std::string_view text);

/// One problem in a checkpoint payload: its 1-based line (0 when a
/// required record is missing from a section every checkpoint has) and
/// what is wrong.
struct CheckpointFinding {
  int line = 0;
  std::string message;
};

/// ParseCheckpoint's reading without a graph: the same record rules,
/// ids checked only for shape, and every bad line and missing required
/// record reported instead of the first. Backs verify's V-K002 pass.
std::vector<CheckpointFinding> CheckCheckpoint(std::string_view text);

/// Atomically writes `data` to `path` inside the CRC-32 container
/// (util/file_util): a crash mid-write leaves the previous checkpoint
/// intact, and any later corruption is caught by the checksum.
Status WriteCheckpoint(const std::string& path, const CheckpointData& data);

/// Reads and verifies the container, then parses the payload.
Result<CheckpointData> LoadCheckpoint(const std::string& path,
                                      const InferenceGraph& graph);

}  // namespace stratlearn::robust

#endif  // STRATLEARN_ROBUST_CHECKPOINT_H_
