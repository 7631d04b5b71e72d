#ifndef STRATLEARN_OBS_JSON_READER_H_
#define STRATLEARN_OBS_JSON_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stratlearn::obs {

/// Minimal JSON DOM shared by the offline readers (traces, audit
/// streams, time-series files, profiler reports); obs::JsonWriter only
/// writes. Scope-limited on purpose: objects, arrays, strings, numbers,
/// bools, null — no \u decoding beyond pass-through, no duplicate-key
/// policy.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Arrays and objects nest at most this deep in a value ParseJson
/// accepts, so a hostile line cannot overflow the reader's stack.
inline constexpr int kMaxJsonDepth = 256;

/// Parses exactly one RFC 8259 JSON value (plus surrounding space, tab,
/// CR and LF) from `text`. Returns false on any syntax error, trailing
/// garbage, or nesting deeper than kMaxJsonDepth.
bool ParseJson(std::string_view text, JsonValue* out);

/// True iff `text` is exactly one JSON value ParseJson accepts.
inline bool IsValidJson(std::string_view text) {
  JsonValue value;
  return ParseJson(text, &value);
}

/// Typed field accessors over an object value; false / "" when the key
/// is absent or has the wrong kind, leaving `*out` untouched.
/// ReadJsonInt truncates toward zero and also refuses a number that is
/// not finite or lies outside int64_t (ParseJson reads 1e999 as +inf):
/// converting such a double is undefined behaviour.
bool ReadJsonDouble(const JsonValue& object, const std::string& key,
                    double* out);
bool ReadJsonInt(const JsonValue& object, const std::string& key,
                 int64_t* out);
bool ReadJsonBool(const JsonValue& object, const std::string& key,
                  bool* out);
std::string ReadJsonString(const JsonValue& object, const std::string& key);

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_JSON_READER_H_
