// Minimal leveled logger. Logging goes to stderr; the level is a process-wide
// setting so benches can silence the library while examples narrate.
//
// The initial level is kWarn, overridable with the BASS_LOG environment
// variable (debug|info|warn|error|off) — handy for operators debugging a
// scenario through bassctl without recompiling. Explicit set_log_level()
// calls (e.g. bassctl --log-level) win over the environment.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace bass::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

// Parses a level name (case-sensitive: "debug", "info", "warn", "error",
// "off"). Returns false and leaves `out` untouched on anything else.
bool parse_log_level(const std::string& name, LogLevel& out);

// Process-wide minimum level. Messages below it are discarded.
void set_log_level(LogLevel level);
LogLevel log_level();

// Emits one formatted line ("[level] message") if `level` passes the filter.
void log_line(LogLevel level, const std::string& message);

namespace detail {

// Stream-style builder: LogStream(kInfo) << "x=" << x; emits on destruction.
// The string stream is built on the first enabled <<, so a line whose level
// is filtered out costs one comparison per << and never touches a stream.
class LogStream {
 public:
  explicit LogStream(LogLevel level)
      : level_(level), enabled_(level >= log_level()) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  LogStream(LogStream&&) = default;
  ~LogStream() {
    if (enabled_) log_line(level_, out_ ? out_->str() : std::string());
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (enabled_) {
      if (!out_) out_.emplace();
      *out_ << value;
    }
    return *this;
  }

  // Whether a stream has been built (a test hook for the disabled path).
  bool formatted() const { return out_.has_value(); }

 private:
  LogLevel level_;
  bool enabled_;
  std::optional<std::ostringstream> out_;
};

}  // namespace detail

inline detail::LogStream log_debug() { return detail::LogStream(LogLevel::kDebug); }
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() { return detail::LogStream(LogLevel::kError); }

}  // namespace bass::util
