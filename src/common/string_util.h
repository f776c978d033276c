#ifndef GRIMP_COMMON_STRING_UTIL_H_
#define GRIMP_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace grimp {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, char sep);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

// Lowercases ASCII.
std::string ToLower(std::string_view s);

// Parses a double; returns false on malformed input or trailing junk.
bool ParseDouble(std::string_view s, double* out);

// FNV-1a 64-bit hash, used for feature hashing of strings/n-grams.
uint64_t Fnv1a(std::string_view s);
uint64_t Fnv1a(std::string_view s, uint64_t seed);

// Formats a double with `precision` decimal places (fixed notation), byte
// for byte what printf's "%.*f" prints, at every magnitude.
std::string FormatDouble(double v, int precision);

}  // namespace grimp

#endif  // GRIMP_COMMON_STRING_UTIL_H_
