#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "util/check.h"

namespace stratlearn {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> SplitFields(std::string_view line) {
  std::vector<std::string> fields;
  size_t pos = 0;
  while (true) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos == line.size()) return fields;
    size_t start = pos;
    while (pos < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    fields.emplace_back(line.substr(start, pos - start));
  }
}

bool TakeTokens(std::string_view line, size_t n,
                std::vector<std::string_view>* tokens,
                std::string_view* rest) {
  tokens->clear();
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (start == pos) return false;
    tokens->push_back(line.substr(start, pos - start));
  }
  if (pos < line.size() && line[pos] == ' ') ++pos;
  *rest = line.substr(pos);
  return true;
}

namespace {

// Runs one strto* call over a NUL-terminated copy of `token` and keeps
// the result only if it consumed every byte without a range error.
template <typename T, typename Parse>
bool ParseWhole(std::string_view token, T* out, Parse parse) {
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0]))) {
    return false;
  }
  std::string buffer(token);
  char* end = nullptr;
  errno = 0;
  T value = parse(buffer.c_str(), &end);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseInt64(std::string_view token, int64_t* out) {
  return ParseWhole(token, out, [](const char* s, char** end) -> int64_t {
    return std::strtoll(s, end, 10);
  });
}

bool ParseUint64(std::string_view token, uint64_t* out) {
  if (!token.empty() && token[0] == '-') return false;
  return ParseWhole(token, out, [](const char* s, char** end) -> uint64_t {
    return std::strtoull(s, end, 10);
  });
}

bool ParseDouble(std::string_view token, double* out) {
  return ParseWhole(token, out, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendDouble(std::string* out, double value, int digits) {
  // Sign, 17 digits, the point and "e-308" take 24 bytes.
  STRATLEARN_CHECK(digits >= 0 && digits <= 17);
  char buffer[32];
  std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, digits);
  STRATLEARN_CHECK(r.ec == std::errc());
  out->append(buffer, r.ptr);
}

void AppendInt(std::string* out, int64_t value) {
  char buffer[32];
  std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  STRATLEARN_CHECK(r.ec == std::errc());
  out->append(buffer, r.ptr);
}

std::string FormatDouble(double value, int digits) {
  std::string s;
  AppendDouble(&s, value, digits);
  return s;
}

}  // namespace stratlearn
