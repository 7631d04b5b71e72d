#ifndef STRATLEARN_OBS_JSON_WRITER_H_
#define STRATLEARN_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stratlearn::obs {

/// Minimal streaming JSON writer used by the metrics snapshot and the
/// trace sinks. Handles commas and nesting; the caller is responsible
/// for pairing Begin/End calls and for putting a Key before each value
/// inside an object. Keys and strings are escaped straight into the
/// buffer: quote, backslash and control characters become \-sequences
/// (\u00xx for those without a short form); every other byte is copied.
/// Numbers go through AppendDouble/AppendInt (util/string_util.h).
/// Non-finite doubles are emitted as null (JSON has no Inf/NaN).
///
/// `double_digits` is the significant-digit count for doubles: the
/// default 12 is compact for human-facing reports; machine formats that
/// must replay losslessly (JSONL traces) use kRoundTripDigits.
class JsonWriter {
 public:
  /// 17 significant digits round-trip any IEEE-754 double exactly.
  static constexpr int kRoundTripDigits = 17;

  explicit JsonWriter(int double_digits = 12)
      : double_digits_(double_digits) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value);
  JsonWriter& Value(double value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(bool value);
  JsonWriter& Null();

  /// Splices `json` — one pre-rendered JSON value — into the stream as
  /// the next value, handling commas like any other Value call. The
  /// caller is responsible for `json` being well formed (ParseJson in
  /// obs/json_reader.h accepts exactly the well-formed values).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

  /// Starts a new document, keeping the buffers' capacity: a sink that
  /// renders one record per event reuses one writer. Open containers
  /// and a pending key are forgotten.
  void Clear();

 private:
  void BeforeValue();
  void AppendEscaped(std::string_view s);

  std::string out_;
  int double_digits_;
  /// One entry per open container: true once the first element has been
  /// written (so the next one needs a comma).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_JSON_WRITER_H_
