#ifndef GRIMP_COMMON_ENV_H_
#define GRIMP_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace grimp {

// Canonical names of every GRIMP_* environment override. The semantics of
// each knob are documented in one place — the "Environment overrides" table
// in README.md; code reads them only through EnvOverrides below, never
// through raw getenv, so the table and the behavior cannot drift apart.
inline constexpr char kEnvNumThreads[] = "GRIMP_NUM_THREADS";
inline constexpr char kEnvSimd[] = "GRIMP_SIMD";
inline constexpr char kEnvMetricsJson[] = "GRIMP_METRICS_JSON";
inline constexpr char kEnvLogLevel[] = "GRIMP_LOG_LEVEL";

// Central parser for the GRIMP_* overrides. All accessors are tolerant:
// an unset, empty or malformed variable falls back to the caller's
// default instead of failing, because env overrides are operator
// conveniences, not configuration of record. Knobs that are configuration
// of record (pipeline depth, shard count, shard budget) live only in
// GrimpOptions.
class EnvOverrides {
 public:
  // Raw value, or nullptr when unset.
  static const char* Raw(const char* name);

  // Parsed integer when the variable is all decimal digits with a value in
  // [1, INT_MAX]; `fallback` otherwise (unset, empty, a sign, space or
  // trailing garbage such as "4abc", zero, or out of range for int).
  static int PositiveInt(const char* name, int fallback);

  // Non-empty string value, else `fallback`.
  static std::string String(const char* name, const std::string& fallback);
};

}  // namespace grimp

#endif  // GRIMP_COMMON_ENV_H_
