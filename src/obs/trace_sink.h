#ifndef STRATLEARN_OBS_TRACE_SINK_H_
#define STRATLEARN_OBS_TRACE_SINK_H_

#include <mutex>
#include <utility>
#include <vector>

#include "obs/events.h"

namespace stratlearn::obs {

/// Receiver interface for structured runtime events: every event type
/// arrives through the one On(), and a sink picks out the alternatives
/// it cares about. Emitters must guard emission behind a single
/// nullable-pointer branch (see Observer), so an absent sink costs one
/// predictable branch.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void On(const Event& event) = 0;

  /// Push buffered output to the underlying medium. May be called any
  /// number of times mid-run; must not finalise the output.
  virtual void Flush() {}

  /// Finalise the output (e.g. write a format's closing delimiter) and
  /// flush. Idempotent; every sink's destructor calls its own Close so
  /// traces stay well-formed even when the owner exits early on an
  /// error path. Events delivered after Close are dropped.
  virtual void Close() { Flush(); }
};

/// Explicit do-nothing sink, for call sites that want a non-null sink.
class NullSink final : public TraceSink {
 public:
  void On(const Event&) override {}
};

/// Fans every event out to a list of borrowed sinks, in order. Lets one
/// Observer feed a file sink and an in-process aggregator (e.g. the
/// StrategyProfiler) at the same time. Null entries are skipped.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {
    std::erase(sinks_, nullptr);
  }

  void On(const Event& event) override {
    for (TraceSink* s : sinks_) s->On(event);
  }
  void Flush() override {
    for (TraceSink* s : sinks_) s->Flush();
  }
  void Close() override {
    for (TraceSink* s : sinks_) s->Close();
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Serialises a borrowed single-threaded sink behind one mutex so any
/// number of threads can emit events into it — the concurrency adapter
/// for JsonlSink / ChromeTraceSink / StrategyProfiler, whose own event
/// handlers assume exclusive access (buffered stream writes, aggregation
/// maps). Event *ordering* across threads is whatever the mutex hands
/// out; each event is delivered whole, so a JSONL file never interleaves
/// two lines. Wrap the innermost sink (or a TeeSink fan-out) once; the
/// per-event cost is one uncontended lock, which trace emission — already
/// a formatting + I/O path — amortises trivially.
class LockingSink final : public TraceSink {
 public:
  explicit LockingSink(TraceSink* inner) : inner_(inner) {}

  void On(const Event& event) override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_->On(event);
  }
  void Flush() override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_->Flush();
  }
  void Close() override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_->Close();
  }

 private:
  std::mutex mutex_;
  TraceSink* inner_;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_TRACE_SINK_H_
