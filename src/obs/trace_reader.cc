#include "obs/trace_reader.h"

#include <cstdint>
#include <string>

#include "obs/event_json.h"
#include "obs/json_reader.h"
#include "util/string_util.h"

namespace stratlearn::obs {

Status TraceReader::ReplayLine(std::string_view line) {
  ++line_number_;
  std::string_view trimmed = Trim(line);
  if (trimmed.empty()) return Status::OK();

  JsonValue value;
  if (!ParseJson(trimmed, &value)) {
    return Status::InvalidArgument(
        StrFormat("line %lld: malformed JSON",
                  static_cast<long long>(line_number_)));
  }
  if (value.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        StrFormat("line %lld: event is not a JSON object",
                  static_cast<long long>(line_number_)));
  }
  std::string type = ReadJsonString(value, "type");
  if (type.empty()) {
    return Status::InvalidArgument(StrFormat(
        "line %lld: event has no \"type\"",
        static_cast<long long>(line_number_)));
  }
  Event event;
  if (!ReadEvent(type, value, &event)) {
    ++skipped_;
    return Status::OK();
  }
  sink_->On(event);
  ++events_;
  return Status::OK();
}

Status TraceReader::ReplayStream(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    Status status = ReplayLine(line);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace stratlearn::obs
