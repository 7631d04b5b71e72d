#include "obs/health/series_io.h"

#include <string>
#include <utility>
#include <vector>

#include "obs/event_json.h"
#include "obs/json_reader.h"
#include "util/string_util.h"

namespace stratlearn::obs::health {

namespace {

constexpr const char* kBadInteger =
    "an integer field is not finite or out of range";

Status Malformed(int line, const std::string& why) {
  return Status::InvalidArgument(
      StrFormat("line %d: %s", line, why.c_str()));
}

double NumberOr(const JsonValue* v, double fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number
                                                               : fallback;
}

/// Reads integer field `key` of `object` into `*out` when it is there.
/// False when it is there but is not a number that fits T: converting
/// a non-finite or out-of-range double is undefined behaviour, and a
/// narrowing cast would read arc 4294967296 as arc 0.
template <typename T>
bool IntField(const JsonValue& object, const std::string& key, T* out) {
  if (object.Get(key) == nullptr) return true;
  int64_t value = 0;
  if (!ReadJsonInt(object, key, &value) || !std::in_range<T>(value)) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Reads the event entries of array `key` through their field list;
/// the fields a window record leaves out keep their defaults. False
/// when an entry is not an object.
template <typename E>
bool ReadEntries(const JsonValue& window, const std::string& key,
                 std::vector<E>* out) {
  const JsonValue* entries = window.Get(key);
  if (entries == nullptr || entries->kind != JsonValue::Kind::kArray) {
    return true;
  }
  for (const JsonValue& entry : entries->array) {
    if (entry.kind != JsonValue::Kind::kObject) return false;
    ReadEventFields(entry, &out->emplace_back());
  }
  return true;
}

}  // namespace

Status LoadTimeSeries(std::istream& in, LoadedSeries* out) {
  std::string line;
  int line_number = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    JsonValue value;
    if (!ParseJson(line, &value) ||
        value.kind != JsonValue::Kind::kObject) {
      return Malformed(line_number, "line is not a JSON object");
    }
    if (!have_header) {
      std::string schema = ReadJsonString(value, "schema");
      if (schema != "stratlearn-timeseries-v1") {
        return Malformed(line_number,
                         schema.empty()
                             ? "missing \"schema\" header"
                             : "unknown schema '" + schema + "'");
      }
      if (!IntField(value, "interval_us", &out->interval_us) ||
          !IntField(value, "capacity", &out->capacity) ||
          !IntField(value, "windows_closed", &out->windows_closed) ||
          !IntField(value, "windows_evicted", &out->windows_evicted)) {
        return Malformed(line_number, kBadInteger);
      }
      have_header = true;
      continue;
    }
    TimeSeriesWindow window;
    if (!ReadJsonInt(value, "window", &window.index)) {
      return Malformed(line_number,
                       "window line lacks a numeric \"window\" index");
    }
    if (!IntField(value, "start_us", &window.start_us) ||
        !IntField(value, "end_us", &window.end_us) ||
        !IntField(value, "certificates", &window.certificates)) {
      return Malformed(line_number, kBadInteger);
    }
    if (const JsonValue* counters = value.Get("counters");
        counters != nullptr && counters->kind == JsonValue::Kind::kObject) {
      for (const auto& [name, c] : counters->object) {
        if (!IntField(c, "total", &window.cumulative.counters[name]) ||
            !IntField(c, "delta", &window.counter_deltas[name])) {
          return Malformed(line_number, kBadInteger);
        }
      }
    }
    if (const JsonValue* gauges = value.Get("gauges");
        gauges != nullptr && gauges->kind == JsonValue::Kind::kObject) {
      for (const auto& [name, g] : gauges->object) {
        window.cumulative.gauges[name] = NumberOr(&g, 0.0);
      }
    }
    if (const JsonValue* histograms = value.Get("histograms");
        histograms != nullptr &&
        histograms->kind == JsonValue::Kind::kObject) {
      for (const auto& [name, h] : histograms->object) {
        HistogramDelta delta;
        HistogramSnapshot total;
        if (!IntField(h, "count_delta", &delta.count) ||
            !IntField(h, "count_total", &total.count)) {
          return Malformed(line_number, kBadInteger);
        }
        delta.sum = NumberOr(h.Get("sum_delta"), 0.0);
        window.histogram_deltas[name] = delta;
        total.sum = NumberOr(h.Get("sum_total"), 0.0);
        window.cumulative.histograms[name] = std::move(total);
      }
    }
    if (const JsonValue* arcs = value.Get("arcs");
        arcs != nullptr && arcs->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& a : arcs->array) {
        if (a.kind != JsonValue::Kind::kObject) {
          return Malformed(line_number, "arc entry is not an object");
        }
        ArcWindowStats stats;
        if (a.Get("arc") == nullptr) {
          return Malformed(line_number, "arc entry lacks an \"arc\" id");
        }
        if (!IntField(a, "arc", &stats.arc) ||
            !IntField(a, "attempts", &stats.attempts) ||
            !IntField(a, "unblocked", &stats.unblocked)) {
          return Malformed(line_number, kBadInteger);
        }
        stats.cost = NumberOr(a.Get("cost"), 0.0);
        window.arcs.push_back(std::move(stats));
      }
    }
    if (!ReadEntries(value, "drift", &window.drift) ||
        !ReadEntries(value, "alerts", &window.alerts)) {
      return Malformed(line_number, "drift or alert entry is not an object");
    }
    out->windows.push_back(std::move(window));
  }
  if (!have_header) {
    return Malformed(line_number, "empty file (no header line)");
  }
  return Status::OK();
}

}  // namespace stratlearn::obs::health
