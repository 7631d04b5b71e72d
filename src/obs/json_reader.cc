#include "obs/json_reader.h"

#include <cctype>
#include <cstdlib>

namespace stratlearn::obs {
namespace {

/// Recursive descent over RFC 8259's grammar, with nesting capped at
/// kMaxJsonDepth so a hostile line cannot exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Digits() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  bool ParseValue(JsonValue* out, int depth) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
      case '[':
        return depth < kMaxJsonDepth && ParseContainer(out, depth + 1);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseContainer(JsonValue* out, int depth) {
    bool is_object = text_[pos_++] == '{';
    char close = is_object ? '}' : ']';
    out->kind = is_object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(close)) return true;
    while (true) {
      JsonValue value;
      if (is_object) {
        std::string key;
        SkipWs();
        if (!ParseString(&key)) return false;
        SkipWs();
        if (!Consume(':') || !ParseValue(&value, depth)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
      } else {
        if (!ParseValue(&value, depth)) return false;
        out->array.push_back(std::move(value));
      }
      SkipWs();
      if (Consume(close)) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/': out->push_back(esc); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // Kept as the raw six bytes, not decoded.
          std::string_view hex = text_.substr(pos_, 4);
          if (hex.size() < 4) return false;
          for (char h : hex) {
            if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
          }
          out->append("\\u").append(hex);
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !Digits()) return false;
    if (Consume('.') && !Digits()) return false;
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!Digits()) return false;
    }
    // strtod reads every token this grammar admits in full.
    out->kind = JsonValue::Kind::kNumber;
    out->number =
        std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                    nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out) {
  return JsonParser(text).Parse(out);
}

bool ReadJsonDouble(const JsonValue& object, const std::string& key,
                    double* out) {
  const JsonValue* v = object.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
  *out = v->number;
  return true;
}

bool ReadJsonInt(const JsonValue& object, const std::string& key,
                 int64_t* out) {
  double d = 0.0;
  if (!ReadJsonDouble(object, key, &d)) return false;
  // [-2^63, 2^63) holds exactly the doubles that truncate into int64_t;
  // NaN fails both comparisons.
  if (!(d >= -0x1p63 && d < 0x1p63)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

bool ReadJsonBool(const JsonValue& object, const std::string& key,
                  bool* out) {
  const JsonValue* v = object.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) return false;
  *out = v->boolean;
  return true;
}

std::string ReadJsonString(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.Get(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kString) ? v->string
                                                               : "";
}

}  // namespace stratlearn::obs
