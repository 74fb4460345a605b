#include "common/log.h"

#include <cstdio>
#include <utility>

namespace psllc {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger::Sink Logger::set_sink(Sink sink) {
  Sink previous = std::move(sink_);
  sink_ = std::move(sink);
  return previous;
}

void Logger::write(LogLevel level, const std::string& message) {
  if (sink_) {
    sink_(level, message);
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", to_string(level), message.c_str());
}

}  // namespace psllc
