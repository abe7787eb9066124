#ifndef TRANSER_UTIL_STRING_UTIL_H_
#define TRANSER_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace transer {

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// ASCII lower-cases `text`.
std::string ToLower(std::string_view text);

/// ASCII upper-cases `text`.
std::string ToUpper(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a double; returns false on malformed input, trailing garbage or
/// overflow. Underflow is accepted: a subnormal is a finite value.
bool ParseDouble(std::string_view text, double* out);

/// Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view text, int64_t* out);

}  // namespace transer

#endif  // TRANSER_UTIL_STRING_UTIL_H_
