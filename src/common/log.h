// Minimal leveled logger.
//
// The simulator logs slot-by-slot traces at kTrace which tests use to replay
// the paper's figures; benches run at kWarn to keep output clean. The logger
// is a process-wide singleton guarded for single-threaded simulation use
// (the simulator itself is deterministic and single-threaded).
#ifndef PSLLC_COMMON_LOG_H_
#define PSLLC_COMMON_LOG_H_

#include <functional>
#include <sstream>
#include <string>

namespace psllc {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] const char* to_string(LogLevel level);

/// Process-wide logging configuration.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// Defined (and forced) inline so a disabled PSLLC_LOG costs a guard and
  /// a level check, not a call.
  [[gnu::always_inline]] static Logger& instance() {
    static Logger logger;
    return logger;
  }

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  /// Replaces the output sink (default: stderr). Pass nullptr to restore the
  /// default. Returns the previous sink so tests can scope their capture.
  Sink set_sink(Sink sink);

  void write(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

}  // namespace psllc

#define PSLLC_LOG(level, ...)                                      \
  do {                                                             \
    if (::psllc::Logger::instance().enabled(level)) {              \
      std::ostringstream psllc_log_oss_;                           \
      psllc_log_oss_ << __VA_ARGS__;                               \
      ::psllc::Logger::instance().write(level, psllc_log_oss_.str()); \
    }                                                              \
  } while (false)

#define PSLLC_TRACE(...) PSLLC_LOG(::psllc::LogLevel::kTrace, __VA_ARGS__)
#define PSLLC_DEBUG(...) PSLLC_LOG(::psllc::LogLevel::kDebug, __VA_ARGS__)
#define PSLLC_INFO(...) PSLLC_LOG(::psllc::LogLevel::kInfo, __VA_ARGS__)
#define PSLLC_WARN(...) PSLLC_LOG(::psllc::LogLevel::kWarn, __VA_ARGS__)
#define PSLLC_ERROR(...) PSLLC_LOG(::psllc::LogLevel::kError, __VA_ARGS__)

#endif  // PSLLC_COMMON_LOG_H_
