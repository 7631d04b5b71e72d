#ifndef STRATLEARN_OBS_SINKS_H_
#define STRATLEARN_OBS_SINKS_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace stratlearn::obs {

/// The stream handling the file trace formats share. The stream is
/// borrowed unless the path constructor is used. A format frames its
/// records with a header (written when the stream opens), a separator
/// (between records), a terminator (after each record) and a footer.
/// The footer is written exactly once, by Close() or the destructor
/// (RAII), so a trace is well-formed even when the owner exits early;
/// Flush() alone never finalises it.
///
/// I/O failure mid-run (disk full, closed pipe) surfaces exactly one
/// stderr warning and disables the sink; the run itself continues, and
/// a failed stream never gets its footer. See `failed()`.
class StreamSink : public TraceSink {
 public:
  StreamSink(const StreamSink&) = delete;
  StreamSink& operator=(const StreamSink&) = delete;
  ~StreamSink() override;

  bool ok() const { return out_ != nullptr && out_->good(); }
  /// True once a write failed and the sink disabled itself.
  bool failed() const { return failed_; }
  /// Events delivered after Close() (or after a write failure disabled
  /// the sink) are dropped, not written. The first drop prints a
  /// one-shot stderr warning; every drop is counted here.
  int64_t events_dropped() const { return events_dropped_; }
  /// Optional borrowed counter (the CLI wires
  /// "obs.trace_events_dropped") bumped once per dropped event.
  void set_drop_counter(Counter* counter) { drop_counter_ = counter; }

  void Flush() override;
  void Close() override;

 protected:
  struct Format {
    const char* name;  // names the format in warnings
    const char* header;
    const char* separator;
    const char* terminator;
    const char* footer;
  };
  StreamSink(std::ostream* out, Format format);
  StreamSink(const std::string& path, Format format);

  /// Writes one rendered record, or counts it as dropped once the sink
  /// is closed or failed.
  void Write(std::string_view record);

 private:
  void CheckStream();

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_ = nullptr;
  Format format_;
  bool wrote_any_ = false;
  bool closed_ = false;
  bool failed_ = false;
  bool warned_dropped_ = false;
  int64_t events_dropped_ = 0;
  Counter* drop_counter_ = nullptr;
};

/// Writes one JSON object per line (JSONL): a "type" discriminator (the
/// event's kType) and then the event's fields, so a stream can be
/// filtered with grep/jq. Doubles carry 17 significant digits, so
/// TraceReader replays a stream exactly. Every record is rendered into
/// one reused writer, so the sink is single-threaded: wrap it in a
/// LockingSink to share it.
class JsonlSink final : public StreamSink {
 public:
  /// Borrow an open stream (e.g. a std::ostringstream in tests).
  explicit JsonlSink(std::ostream* out);
  /// Own a file stream; `ok()` reports whether it opened.
  explicit JsonlSink(const std::string& path);

  void On(const Event& event) override;

 private:
  JsonWriter writer_{JsonWriter::kRoundTripDigits};
};

/// Emits a chrome://tracing / Perfetto-loadable JSON array. Queries
/// become complete spans ("ph":"X"), quota progress becomes a counter
/// track ("ph":"C"), and the learner, robustness, health and audit
/// events become instant events ("ph":"i") named by their kType. Query
/// starts and arc attempts are intentionally not written (and not
/// counted as dropped): at one span per query they already dominate
/// file size, and the per-arc detail belongs in JSONL. Doubles carry 12
/// significant digits, so only JSONL replays exactly. Like JsonlSink it
/// reuses one writer and is single-threaded.
class ChromeTraceSink final : public StreamSink {
 public:
  explicit ChromeTraceSink(std::ostream* out);
  explicit ChromeTraceSink(const std::string& path);

  void On(const Event& event) override;

 private:
  JsonWriter writer_;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_SINKS_H_
