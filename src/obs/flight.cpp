#include "obs/flight.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>

#include "util/strings.h"

namespace bass::obs {

namespace {

// The armed instance for the SIGABRT hook. Atomic pointer, not a lock: the
// handler may run on any thread and must never block.
std::atomic<FlightRecorder*> g_signal_target{nullptr};

extern "C" void flight_sigabrt_handler(int signo) {
  FlightRecorder* target = g_signal_target.load(std::memory_order_acquire);
  if (target != nullptr) target->dump_once("sigabrt");
  // Restore default disposition and re-raise so the process still dies the
  // way the caller expected (core dump, CI failure, ...).
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

std::string build_info_json() {
#ifdef BASS_BUILD_TYPE
  const char* build_type = BASS_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#ifdef BASS_CXX_FLAGS
  const char* flags = BASS_CXX_FLAGS;
#else
  const char* flags = "";
#endif
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  std::string out = "{\"compiler\":\"";
  for (const char* p = __VERSION__; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out += '\\';
    out += *p;
  }
  out += util::str_format(
      "\",\"build_type\":\"%s\",\"flags\":\"%s\",\"sanitizer\":%s}",
      build_type, flags, sanitized ? "true" : "false");
  return out;
}

FlightRecorder::FlightRecorder(Recorder& recorder, FlightConfig config)
    : recorder_(recorder), config_(std::move(config)) {
  if (config_.last_events == 0) config_.last_events = 1;
  if (config_.directory.empty()) config_.directory = ".";
}

FlightRecorder::~FlightRecorder() {
  if (armed_) {
    FlightRecorder* self = this;
    if (g_signal_target.compare_exchange_strong(self, nullptr)) {
      std::signal(SIGABRT, SIG_DFL);
    }
  }
}

std::string FlightRecorder::path() const {
  return config_.directory + "/flight_" + config_.tag + ".jsonl";
}

bool FlightRecorder::dump(const char* why) {
  const EventJournal& journal = recorder_.journal();
  const std::size_t size = journal.size();
  const std::size_t keep = std::min(config_.last_events, size);
  const std::size_t first = size - keep;
  const sim::Time last_t =
      size == 0 ? 0 : event_time(journal.at(size - 1));  // sim time, not wall

  std::string out = util::str_format(
      "{\"type\":\"flight_header\",\"why\":\"%s\",\"tag\":\"%s\","
      "\"t_us\":%lld,\"events\":%zu,\"journal_size\":%zu,"
      "\"journal_dropped\":%lld,\"build\":",
      why, config_.tag.c_str(), static_cast<long long>(last_t), keep, size,
      static_cast<long long>(journal.dropped()));
  out += build_info_json();
  out += "}\n";
  for (std::size_t i = first; i < size; ++i) {
    append_jsonl(journal.at(i), out);
    out += '\n';
  }
  // The metrics snapshot as one line so the dump stays greppable JSONL;
  // to_json is multi-line pretty output, so strip the newlines.
  std::string metrics = recorder_.metrics().to_json(last_t);
  std::string flat;
  flat.reserve(metrics.size());
  for (char c : metrics) {
    if (c != '\n') flat += c;
  }
  out += "{\"type\":\"flight_metrics\",\"metrics\":" + flat + "}\n";

  std::FILE* f = std::fopen(path().c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool ok = (std::fclose(f) == 0) && wrote && flushed;
  dumped_ = dumped_ || ok;
  return ok;
}

bool FlightRecorder::dump_once(const char* why) {
  if (dumped_) return true;
  return dump(why);
}

void FlightRecorder::arm_signal_hook() {
  g_signal_target.store(this, std::memory_order_release);
  std::signal(SIGABRT, flight_sigabrt_handler);
  armed_ = true;
}

}  // namespace bass::obs
