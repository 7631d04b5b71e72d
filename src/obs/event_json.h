#ifndef STRATLEARN_OBS_EVENT_JSON_H_
#define STRATLEARN_OBS_EVENT_JSON_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/events.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"

namespace stratlearn::obs {

/// JSON glue driven by each event type's field list (events.h): the
/// JSONL writer and TraceReader, the Chrome trace args, the audit
/// certificate record, the time-series windows' drift and alert entries
/// and the health report's events all go through these, so the keys,
/// their order and the value encodings are spelled once per type.

/// Skip lists for WriteEventFields: none, and the one of a record that
/// carries the timestamp as its own key (Chrome's "ts") or not at all.
inline constexpr std::array<std::string_view, 0> kSkipNone{};
inline constexpr std::array<std::string_view, 1> kSkipTime{"t_us"};

/// Writes every field of `e` into the open object as key/value pairs,
/// in field-list order, leaving out the fields named in `Skip`. The list
/// is a template argument, so every check folds away at compile time:
/// a call that skips nothing costs what writing every field costs.
template <const auto& Skip = kSkipNone, typename E>
void WriteEventFields(JsonWriter& w, const E& e) {
  E::Fields(e, [&](std::string_view key, const auto& value) {
    for (std::string_view skipped : Skip) {
      if (key == skipped) return;
    }
    using T = std::decay_t<decltype(value)>;
    w.Key(key);
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      w.Value(static_cast<int64_t>(value));
    } else {
      w.Value(value);
    }
  });
}

/// Reads every field of `*e` from `object`. A key that is absent, holds
/// the wrong kind of value, or holds an integer outside the member's
/// range leaves the member at its default initializer.
template <typename E>
void ReadEventFields(const JsonValue& object, E* e) {
  E::Fields(*e, [&](const std::string& key, auto& member) {
    using T = std::decay_t<decltype(member)>;
    if constexpr (std::is_same_v<T, std::string>) {
      const JsonValue* v = object.Get(key);
      if (v != nullptr && v->kind == JsonValue::Kind::kString) {
        member = v->string;
      }
    } else if constexpr (std::is_same_v<T, bool>) {
      ReadJsonBool(object, key, &member);
    } else if constexpr (std::is_floating_point_v<T>) {
      ReadJsonDouble(object, key, &member);
    } else {
      int64_t value = 0;
      if (ReadJsonInt(object, key, &value) && std::in_range<T>(value)) {
        member = static_cast<T>(value);
      }
    }
  });
}

/// Replaces `*out` with the alternative whose kType is `type`, read from
/// `object`'s fields. False (and `*out` untouched) for an unknown type.
template <size_t I = 0>
bool ReadEvent(std::string_view type, const JsonValue& object, Event* out) {
  if constexpr (I == std::variant_size_v<Event>) {
    return false;
  } else {
    using E = std::variant_alternative_t<I, Event>;
    if (type != E::kType) return ReadEvent<I + 1>(type, object, out);
    ReadEventFields(object, &out->emplace<E>());
    return true;
  }
}

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_EVENT_JSON_H_
