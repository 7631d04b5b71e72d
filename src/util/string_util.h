#ifndef STRATLEARN_UTIL_STRING_UTIL_H_
#define STRATLEARN_UTIL_STRING_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace stratlearn {

/// Splits `input` on `sep`, trimming nothing; empty pieces are kept.
std::vector<std::string> Split(std::string_view input, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// The whitespace-separated fields of `line`, none of them empty.
std::vector<std::string> SplitFields(std::string_view line);

/// Splits the first `n` space-separated tokens of `line` into `*tokens`;
/// the remainder after one more space is `*rest` (a trailing free-form
/// field such as a label). False when `line` has fewer than `n` tokens.
bool TakeTokens(std::string_view line, size_t n,
                std::vector<std::string_view>* tokens,
                std::string_view* rest);

/// Whole-token number parsers for text that may be damaged or
/// hand-edited: true only when all of `token` is one base-10 integer
/// (ParseDouble: one strtod number) with no leading whitespace, no
/// trailing bytes, no '-' on an unsigned value and no overflow
/// (errno). `*out` is written only on success.
bool ParseInt64(std::string_view token, int64_t* out);
bool ParseUint64(std::string_view token, uint64_t* out);
bool ParseDouble(std::string_view token, double* out);

/// ParseInt64 / ParseUint64 narrowed to T: false when the value does
/// not fit T.
template <typename T>
bool ParseInteger(std::string_view token, T* out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  if constexpr (std::is_signed_v<T>) {
    int64_t value = 0;
    if (!ParseInt64(token, &value) || !std::in_range<T>(value)) return false;
    *out = static_cast<T>(value);
  } else {
    uint64_t value = 0;
    if (!ParseUint64(token, &value) || !std::in_range<T>(value)) return false;
    *out = static_cast<T>(value);
  }
  return true;
}

/// Reads the value of a "--name=value" argument strictly as a T
/// (ParseDouble for double, ParseInteger otherwise). On a bad value
/// returns false and sets `*error` to a message naming the flag.
template <typename T>
bool ParseFlagValue(std::string_view arg, T* out, std::string* error) {
  const size_t eq = std::min(arg.find('='), arg.size());
  const std::string_view value = arg.substr(std::min(eq + 1, arg.size()));
  bool ok = false;
  const char* expected = "a number";
  if constexpr (std::is_floating_point_v<T>) {
    ok = ParseDouble(value, out);
  } else {
    ok = ParseInteger(value, out);
    expected = std::is_signed_v<T> ? "an integer" : "a non-negative integer";
  }
  if (!ok) {
    *error = std::string(arg.substr(0, eq)) + " takes " + expected +
             ", not '" + std::string(value) + "'";
  }
  return ok;
}

/// Joins `pieces` with `sep` between them.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// The one number formatter behind FormatDouble and obs::JsonWriter.
/// AppendDouble appends `value` with `digits` significant digits
/// (0 <= digits <= 17, CHECKed), trimming trailing zeros; AppendInt
/// appends `value` in base 10. Both use std::to_chars, which writes the
/// bytes printf's "%.*g" and "%lld" write ("3.7", "1e+17", "-inf",
/// "-nan"), without the locale and varargs machinery.
void AppendDouble(std::string* out, double value, int digits);
void AppendInt(std::string* out, int64_t value);

/// Formats a double with `digits` significant digits, trimming trailing
/// zeros ("3.7", "0.012"): AppendDouble into a fresh string.
std::string FormatDouble(double value, int digits = 6);

}  // namespace stratlearn

#endif  // STRATLEARN_UTIL_STRING_UTIL_H_
