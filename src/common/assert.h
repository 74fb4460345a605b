// Invariant checking for the simulator.
//
// Simulation correctness bugs silently corrupt measured latencies, so the
// model checks its invariants in every build type. `PSLLC_ASSERT` is for
// internal invariants (model bugs); configuration errors raised on behalf of
// the user throw `psllc::ConfigError` instead (see check.h usage pattern).
// `PSLLC_AUDIT` is the third tier: hot-path contracts too expensive for
// release builds (per-request partition containment, per-slot schedule
// bounds). Audits compile to nothing unless the build defines
// PSLLC_AUDIT_ENABLED (the `audit` preset / -DPSLLC_AUDIT=ON), where they
// behave exactly like PSLLC_ASSERT.
#ifndef PSLLC_COMMON_ASSERT_H_
#define PSLLC_COMMON_ASSERT_H_

#include <sstream>
#include <stdexcept>
#include <string>

namespace psllc {

/// Thrown when a user-supplied configuration is invalid.
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(const std::string& what) : std::invalid_argument(what) {}
};

/// Thrown by PSLLC_ASSERT on internal invariant violation. Tests for failure
/// injection catch this type.
class AssertionError : public std::logic_error {
 public:
  explicit AssertionError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void assertion_failed(const char* expr, const char* file, int line,
                                   const std::string& message);
}  // namespace detail

/// True when this build evaluates PSLLC_AUDIT checks (the `audit` preset).
[[nodiscard]] constexpr bool audit_enabled() {
#ifdef PSLLC_AUDIT_ENABLED
  return true;
#else
  return false;
#endif
}

}  // namespace psllc

/// Always-on assertion with streamed context:
///   PSLLC_ASSERT(x < n, "way index " << x << " out of range " << n);
/// The condition is evaluated once; the message operands only when it
/// fails. The failure path (message formatting and the throw) is a cold,
/// never-inlined lambda, so a hot function that asserts carries only the
/// test and a call, not an inlined std::ostringstream.
#define PSLLC_ASSERT(cond, ...)                                          \
  do {                                                                   \
    if (!(cond)) [[unlikely]] {                                          \
      [&]() __attribute__((noinline, cold, noreturn)) {                  \
        std::ostringstream psllc_assert_oss_;                            \
        psllc_assert_oss_ << __VA_ARGS__;                                \
        ::psllc::detail::assertion_failed(#cond, __FILE__, __LINE__,     \
                                          psllc_assert_oss_.str());      \
      }();                                                               \
    }                                                                    \
  } while (false)

/// Audit-tier contract: like PSLLC_ASSERT, but only evaluated when the build
/// defines PSLLC_AUDIT_ENABLED. In other builds the condition and message
/// are parsed (so they cannot rot) yet never evaluated, and the whole check
/// folds away.
#ifdef PSLLC_AUDIT_ENABLED
#define PSLLC_AUDIT(cond, ...) PSLLC_ASSERT(cond, __VA_ARGS__)
#else
#define PSLLC_AUDIT(cond, ...)                    \
  do {                                            \
    if (false) {                                  \
      (void)(cond);                               \
      std::ostringstream psllc_audit_oss_;        \
      psllc_audit_oss_ << __VA_ARGS__;            \
    }                                             \
  } while (false)
#endif

/// Configuration validation helper: throws ConfigError with message.
#define PSLLC_CONFIG_CHECK(cond, ...)                    \
  do {                                                   \
    if (!(cond)) {                                       \
      std::ostringstream psllc_cfg_oss_;                 \
      psllc_cfg_oss_ << __VA_ARGS__;                     \
      throw ::psllc::ConfigError(psllc_cfg_oss_.str());  \
    }                                                    \
  } while (false)

#endif  // PSLLC_COMMON_ASSERT_H_
