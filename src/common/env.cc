#include "common/env.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace grimp {

const char* EnvOverrides::Raw(const char* name) { return std::getenv(name); }

int EnvOverrides::PositiveInt(const char* name, int fallback) {
  const char* raw = Raw(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return fallback;  // signs, spaces, garbage
  }
  errno = 0;
  const long long v = std::strtoll(raw, nullptr, 10);
  if (errno == ERANGE || v <= 0 || v > std::numeric_limits<int>::max()) {
    return fallback;
  }
  return static_cast<int>(v);
}

std::string EnvOverrides::String(const char* name,
                                 const std::string& fallback) {
  const char* raw = Raw(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  return raw;
}

}  // namespace grimp
