#include "obs/json_writer.h"

#include <cmath>

#include "util/string_util.h"

namespace stratlearn::obs {

void JsonWriter::AppendEscaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // start of the bytes not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\b':
        out_ += "\\b";
        break;
      case '\f':
        out_ += "\\f";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        out_ += "\\u00";
        out_ += kHex[c >> 4];
        out_ += kHex[c & 0xf];
    }
  }
  out_.append(s.data() + run, s.size() - run);
}

void JsonWriter::Clear() {
  out_.clear();
  has_element_.clear();
  pending_key_ = false;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already wrote its comma
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
  out_ += '"';
  AppendEscaped(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const char* value) {
  return Value(std::string_view(value));
}

JsonWriter& JsonWriter::Value(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
  } else {
    AppendDouble(&out_, value, double_digits_);
  }
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  BeforeValue();
  AppendInt(&out_, value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

}  // namespace stratlearn::obs
