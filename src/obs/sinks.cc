#include "obs/sinks.h"

#include <cstdio>
#include <type_traits>
#include <variant>

#include "obs/event_json.h"

namespace stratlearn::obs {

namespace {

/// Chrome category and instant scope ("g" global, "t" thread) of each
/// event type drawn as an instant event. Query ends (spans) and quota
/// progress (a counter) have their own shapes; a type with neither an
/// entry nor a shape is not written.
struct ChromeInstant {
  const char* category = nullptr;
  const char* scope = nullptr;
};
template <typename E>
constexpr ChromeInstant kChromeInstant{};
template <>
constexpr ChromeInstant kChromeInstant<ClimbMoveEvent>{"learner", "g"};
template <>
constexpr ChromeInstant kChromeInstant<SequentialTestEvent>{"learner", "t"};
template <>
constexpr ChromeInstant kChromeInstant<PaloStopEvent>{"learner", "g"};
template <>
constexpr ChromeInstant kChromeInstant<RetryEvent>{"robust", "t"};
template <>
constexpr ChromeInstant kChromeInstant<BreakerEvent>{"robust", "g"};
template <>
constexpr ChromeInstant kChromeInstant<DriftEvent>{"health", "g"};
template <>
constexpr ChromeInstant kChromeInstant<AlertEvent>{"health", "g"};
template <>
constexpr ChromeInstant kChromeInstant<RecoveryEvent>{"health", "g"};
template <>
constexpr ChromeInstant kChromeInstant<DecisionCertificateEvent>{"audit",
                                                                  "g"};

}  // namespace

StreamSink::StreamSink(std::ostream* out, Format format)
    : out_(out), format_(format) {
  if (ok()) *out_ << format_.header;
}

StreamSink::StreamSink(const std::string& path, Format format)
    : owned_(std::make_unique<std::ofstream>(path)),
      out_(owned_.get()),
      format_(format) {
  if (ok()) *out_ << format_.header;
}

StreamSink::~StreamSink() { Close(); }

void StreamSink::CheckStream() {
  if (out_->good()) return;
  // One warning per sink: the caller keeps running with the sink
  // disabled rather than crashing or, worse, silently losing an
  // unbounded suffix of the trace.
  failed_ = true;
  std::fprintf(stderr,
               "warning: %s trace sink write failed (disk full or closed "
               "pipe?); disabling further trace output for this run\n",
               format_.name);
}

void StreamSink::Write(std::string_view record) {
  if (out_ == nullptr) return;
  if (closed_ || failed_) {
    ++events_dropped_;
    if (drop_counter_ != nullptr) drop_counter_->Increment();
    if (!warned_dropped_) {
      warned_dropped_ = true;
      std::fprintf(stderr,
                   "warning: %s trace sink dropped an event delivered after "
                   "Close(); further drops are counted in "
                   "obs.trace_events_dropped but not reported "
                   "individually\n",
                   format_.name);
    }
    return;
  }
  if (wrote_any_ && *format_.separator != '\0') *out_ << format_.separator;
  *out_ << record;
  if (*format_.terminator != '\0') *out_ << format_.terminator;
  wrote_any_ = true;
  CheckStream();
}

void StreamSink::Flush() {
  if (out_ == nullptr || failed_) return;
  out_->flush();
  CheckStream();
}

void StreamSink::Close() {
  if (out_ != nullptr && !closed_ && !failed_) *out_ << format_.footer;
  closed_ = true;
  Flush();
}

JsonlSink::JsonlSink(std::ostream* out)
    : StreamSink(out, {"JSONL", "", "", "\n", ""}) {}

JsonlSink::JsonlSink(const std::string& path)
    : StreamSink(path, {"JSONL", "", "", "\n", ""}) {}

void JsonlSink::On(const Event& event) {
  JsonWriter& w = writer_;
  w.Clear();
  std::visit(
      [&w](const auto& e) {
        w.BeginObject();
        w.Key("type").Value(e.kType);
        WriteEventFields(w, e);
        w.EndObject();
      },
      event);
  Write(w.str());
}

ChromeTraceSink::ChromeTraceSink(std::ostream* out)
    : StreamSink(out, {"Chrome", "[\n", ",\n", "", "\n]\n"}) {}

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : StreamSink(path, {"Chrome", "[\n", ",\n", "", "\n]\n"}) {}

void ChromeTraceSink::On(const Event& event) {
  // Cleared before the visit: a skipped event type leaves the writer
  // empty instead of holding the previous record.
  JsonWriter& w = writer_;
  w.Clear();
  std::visit(
      [&w](const auto& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, QueryEndEvent>) {
          w.BeginObject();
          w.Key("name").Value("query");
          w.Key("cat").Value("qp");
          w.Key("ph").Value("X");
          w.Key("ts").Value(e.t_us);
          w.Key("dur").Value(e.duration_us);
          w.Key("pid").Value(int64_t{1});
          w.Key("tid").Value(int64_t{1});
          w.Key("args").BeginObject();
          w.Key("query_index").Value(e.query_index);
          w.Key("cost").Value(e.cost);
          w.Key("attempts").Value(e.attempts);
          w.Key("success").Value(e.success);
          w.EndObject();
          w.EndObject();
        } else if constexpr (std::is_same_v<E, QuotaProgressEvent>) {
          w.BeginObject();
          w.Key("name").Value("quota_remaining");
          w.Key("cat").Value("qpa");
          w.Key("ph").Value("C");
          w.Key("ts").Value(e.t_us);
          w.Key("pid").Value(int64_t{1});
          w.Key("args").BeginObject();
          w.Key("total").Value(e.remaining_total);
          w.Key("max").Value(e.remaining_max);
          w.EndObject();
          w.EndObject();
        } else if constexpr (kChromeInstant<E>.category != nullptr) {
          w.BeginObject();
          w.Key("name").Value(E::kType);
          w.Key("cat").Value(kChromeInstant<E>.category);
          w.Key("ph").Value("i");
          w.Key("s").Value(kChromeInstant<E>.scope);
          w.Key("ts").Value(e.t_us);
          w.Key("pid").Value(int64_t{1});
          w.Key("tid").Value(int64_t{1});
          w.Key("args").BeginObject();
          WriteEventFields<kSkipTime>(w, e);
          w.EndObject();
          w.EndObject();
        }
      },
      event);
  if (!w.str().empty()) Write(w.str());
}

}  // namespace stratlearn::obs
