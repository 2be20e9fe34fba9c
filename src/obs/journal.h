// Structured event journal: a bounded ring of typed events. Recording is a
// move into a ring slot — no I/O, no allocation beyond the strings an event
// already owns, except the ring's own growth steps — so subsystems can
// journal from hot paths. Storage follows the events, not the capacity: the
// ring starts empty, takes a first block of at most kFirstBlock slots on
// the first event and doubles as events arrive, never past `capacity`. Once
// full, the oldest events are overwritten and counted as dropped (an
// operator tailing a long run wants the recent window, not an OOM).
//
// Exports:
//  * JSON Lines — one flat object per event; `bassctl events` and the CI
//    schema check consume this.
//  * Chrome trace_event JSON — loadable in Perfetto/chrome://tracing.
//    Migrations render as duration slices on a per-subsystem track, other
//    events as instants, so a run can be scrubbed visually (Fig. 8 style).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/events.h"

namespace bass::obs {

class EventJournal {
 public:
  // Slots allocated by the first record(); later growth doubles.
  static constexpr std::size_t kFirstBlock = 1024;

  // Capacity (the retained-event bound) is clamped to >= 1. Nothing is
  // allocated until the first record().
  explicit EventJournal(std::size_t capacity = 1 << 16);

  void record(Event event);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return ring_.empty(); }
  // The i-th oldest retained event, i < size().
  const Event& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }
  // Events overwritten because the ring was full.
  std::int64_t dropped() const { return dropped_; }

  // Visits retained events oldest-first.
  void for_each(const std::function<void(const Event&)>& fn) const;

  // Serializes retained events as JSON Lines. write_* return false on any
  // I/O error (including a failed final flush).
  std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

  // Chrome trace_event format: {"traceEvents":[...]}, ts in microseconds
  // of sim time, one tid per subsystem (scheduler/controller/monitor/
  // network) with thread_name metadata so Perfetto labels the tracks.
  std::string to_trace() const;
  bool write_trace(const std::string& path) const;

 private:
  // Retained events; grows until it holds capacity_ events, then wraps.
  std::vector<Event> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest retained event (0 until full)
  std::int64_t dropped_ = 0;
};

// Parses one journal JSONL line into (key, raw-value) pairs; values keep
// their JSON spelling (strings keep quotes). Returns false on a line that
// is not a flat JSON object. Only handles the flat objects the journal
// emits — this is a reader for our own format, not a JSON library.
bool parse_journal_line(const std::string& line,
                        std::vector<std::pair<std::string, std::string>>& fields);

}  // namespace bass::obs
