#include "obs/json_reader.h"

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace stratlearn::obs {
namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t n = std::string_view(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
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

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // Our writers never emit \u escapes; accept and keep the
            // raw sequence so foreign files still parse.
            if (pos_ + 4 > text_.size()) return false;
            out->append("\\u").append(text_, pos_, 4);
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    char* end = nullptr;
    std::string token = text_.substr(start, pos_ - start);
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out) {
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
