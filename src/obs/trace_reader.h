#ifndef STRATLEARN_OBS_TRACE_READER_H_
#define STRATLEARN_OBS_TRACE_READER_H_

#include <cstdint>
#include <istream>
#include <string_view>

#include "obs/trace_sink.h"
#include "util/status.h"

namespace stratlearn::obs {

/// Replays a JSONL trace (as written by JsonlSink) into any TraceSink,
/// so offline tools aggregate recorded runs through exactly the same
/// code path as live ones — feed a StrategyProfiler to rebuild the
/// attribution report from a file (`stratlearn_cli trace` does this).
///
/// Each line must be one JSON object (parsed with the shared
/// obs::ParseJson, the same reader the audit and time-series readers
/// use). Its "type" picks the event and the type's field list
/// (events.h) reads it: a field that is absent, of the wrong kind or an
/// out-of-range integer keeps the member's default, and unknown keys
/// are ignored. Events whose "type" is unknown are counted and skipped,
/// so traces written by newer builds still replay. Malformed lines are
/// hard errors (InvalidArgument naming the line number).
class TraceReader {
 public:
  explicit TraceReader(TraceSink* sink) : sink_(sink) {}

  /// Parses one JSONL line and dispatches it. Blank lines are ignored.
  Status ReplayLine(std::string_view line);

  /// Replays a whole stream, line by line.
  Status ReplayStream(std::istream& in);

  /// Events successfully dispatched to the sink.
  int64_t events() const { return events_; }
  /// Well-formed events whose type this build does not know.
  int64_t skipped() const { return skipped_; }

 private:
  TraceSink* sink_;
  int64_t events_ = 0;
  int64_t skipped_ = 0;
  int64_t line_number_ = 0;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_TRACE_READER_H_
