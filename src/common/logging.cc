#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

#include "common/mutex.h"

namespace pregelix {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarn)};
std::atomic<FatalHandler> g_fatal_handler{nullptr};
Mutex g_log_mutex{"log", LockRank::kLogging};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_log_level.load()); }
void SetLogLevel(LogLevel level) { g_log_level = static_cast<int>(level); }

bool ParseLogLevel(const std::string& name, LogLevel* out) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarn;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

void InitLogLevelFromEnv() {
  const char* env = std::getenv("PREGELIX_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return;
  LogLevel level;
  if (ParseLogLevel(env, &level)) {
    SetLogLevel(level);
  } else {
    PLOG(Warn) << "ignoring unparsable PREGELIX_LOG_LEVEL=\"" << env
               << "\" (want debug|info|warn|error)";
  }
}

void SetFatalHandler(FatalHandler handler) { g_fatal_handler = handler; }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal) {
  enabled_ = fatal || static_cast<int>(level) >= g_log_level.load();
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    const auto now = std::chrono::system_clock::now();
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    const int millis = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now.time_since_epoch())
            .count() %
        1000);
    std::tm tm_buf{};
    localtime_r(&secs, &tm_buf);
    char stamp[32];
    const size_t len =
        std::strftime(stamp, sizeof(stamp), "%Y-%m-%d %H:%M:%S", &tm_buf);
    snprintf(stamp + len, sizeof(stamp) - len, ".%03d", millis);
    stream_ << "[" << LevelName(level) << " " << stamp << " tid "
            << std::this_thread::get_id() << " " << base << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    MutexLock lock(&g_log_mutex);
    std::cerr << stream_.str() << std::endl;
  }
  if (fatal_) {
    // Give the crash-dump hook one shot at flushing traces/metrics; it is
    // cleared before running so a fatal error inside it cannot recurse.
    FatalHandler handler = g_fatal_handler.exchange(nullptr);
    if (handler != nullptr) handler();
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace pregelix
