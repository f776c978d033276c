#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <memory>

#include "common/logging.h"

namespace grimp {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

uint64_t Fnv1a(std::string_view s) {
  return Fnv1a(s, 0xcbf29ce484222325ULL);
}

uint64_t Fnv1a(std::string_view s, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string FormatDouble(double v, int precision) {
  if (precision < 0) precision = 6;  // printf's rule for "%.*f"
  // Sign, the 309 integer digits of DBL_MAX, the point and the fraction.
  const size_t longest =
      static_cast<size_t>(std::numeric_limits<double>::max_exponent10 + 3) +
      static_cast<size_t>(precision);
  char stack[384];
  std::unique_ptr<char[]> heap;
  char* buf = stack;
  if (longest > sizeof(stack)) {
    heap = std::make_unique<char[]>(longest);
    buf = heap.get();
  }
  const auto [end, ec] = std::to_chars(buf, buf + longest, v,
                                       std::chars_format::fixed, precision);
  GRIMP_CHECK(ec == std::errc{});
  return std::string(buf, end);
}

}  // namespace grimp
