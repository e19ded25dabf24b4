#include "strip/obs/trace_ring.h"

#include <chrono>
#include <cstring>
#include <map>

#include "strip/obs/json.h"

namespace strip {

const char* TraceEventKindName(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kSubmit: return "submit";
    case TraceEventKind::kDelayed: return "delayed";
    case TraceEventKind::kReady: return "ready";
    case TraceEventKind::kStart: return "start";
    case TraceEventKind::kFinish: return "finish";
    case TraceEventKind::kCommit: return "commit";
    case TraceEventKind::kAbort: return "abort";
    case TraceEventKind::kRestart: return "restart";
    case TraceEventKind::kMerge: return "merge";
  }
  return "?";
}

Timestamp TraceRing::WallMicros() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                               epoch)
      .count();
}

TraceRing::TraceRing(size_t capacity) : capacity_(capacity) {
  slots_.resize(capacity_);
}

void TraceRing::Record(TraceEventKind kind, uint64_t id, Timestamp ts,
                       const char* name, uint64_t trace_id, size_t count) {
  if (capacity_ == 0 || count == 0) return;
  TraceEvent e;
  e.id = id;
  e.trace_id = trace_id;
  e.ts = ts;
  e.kind = kind;
  if (name != nullptr) {
    std::strncpy(e.name, name, sizeof(e.name) - 1);
  }
  SpinLockGuard g(lock_);
  // Stamp the wall clock under the lock: stamped outside, two racing
  // recorders could publish in the opposite order they read the clock,
  // exporting a trace whose ring order and wall_ts order disagree (events
  // appear to run backwards in time once the ring wraps).
  e.wall_ts = WallMicros();
  for (size_t i = 0; i < count; ++i) {
    if (next_ >= capacity_) {
      // The slot we are about to reuse still holds a live event; count the
      // eviction so consumers can tell a truncated trace from a complete
      // one.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    slots_[next_ % capacity_] = e;
    ++next_;
  }
}

uint64_t TraceRing::total_recorded() const {
  if (capacity_ == 0) return 0;
  SpinLockGuard g(lock_);
  return next_;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::vector<TraceEvent> out;
  if (capacity_ == 0) return out;
  SpinLockGuard g(lock_);
  uint64_t n = next_ < capacity_ ? next_ : capacity_;
  out.reserve(n);
  uint64_t first = next_ - n;
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(slots_[(first + i) % capacity_]);
  }
  return out;
}

std::string TraceRing::ToChromeJson(int pid, const std::string& process_name,
                                    bool bare) const {
  std::vector<TraceEvent> events = Snapshot();

  // Pair starts with finishes per task id to form complete slices; a start
  // whose finish rotated out of the ring degrades to an instant event.
  std::map<uint64_t, size_t> open_start;  // id -> index into `events`
  std::vector<bool> consumed(events.size(), false);
  struct Slice {
    size_t start_idx;
    Timestamp dur;
  };
  std::vector<Slice> slices;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.kind == TraceEventKind::kStart) {
      open_start[e.id] = i;
    } else if (e.kind == TraceEventKind::kFinish) {
      auto it = open_start.find(e.id);
      if (it != open_start.end()) {
        slices.push_back({it->second, e.ts - events[it->second].ts});
        consumed[it->second] = true;
        consumed[i] = true;
        open_start.erase(it);
      }
    }
  }

  JsonWriter w;
  if (!bare) {
    w.BeginObject();
    w.Key("displayTimeUnit").String("ms");
    w.Key("traceEvents").BeginArray();
  } else {
    w.BeginArray();
  }
  if (!process_name.empty()) {
    // Metadata event naming the pid's lane in the viewer.
    w.BeginObject();
    w.Key("name").String("process_name");
    w.Key("ph").String("M");
    w.Key("pid").Int(pid);
    w.Key("args").BeginObject();
    w.Key("name").String(process_name);
    w.EndObject();
    w.EndObject();
  }
  for (const Slice& s : slices) {
    const TraceEvent& e = events[s.start_idx];
    w.BeginObject();
    w.Key("name").String(e.name[0] != '\0' ? e.name : "task");
    w.Key("cat").String("task");
    w.Key("ph").String("X");
    w.Key("ts").Int(e.ts);
    w.Key("dur").Int(s.dur < 1 ? 1 : s.dur);
    w.Key("pid").Int(pid);
    w.Key("tid").Uint(e.id);
    w.Key("args").BeginObject();
    w.Key("id").Uint(e.id);
    w.Key("trace_id").Uint(e.trace_id);
    w.Key("wall_ts").Int(e.wall_ts);
    w.EndObject();
    w.EndObject();
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (consumed[i]) continue;
    const TraceEvent& e = events[i];
    w.BeginObject();
    std::string label = TraceEventKindName(e.kind);
    if (e.name[0] != '\0') {
      label += ':';
      label += e.name;
    }
    w.Key("name").String(label);
    w.Key("cat").String("lifecycle");
    w.Key("ph").String("i");
    w.Key("ts").Int(e.ts);
    w.Key("pid").Int(pid);
    w.Key("tid").Uint(e.id);
    w.Key("s").String("t");
    w.Key("args").BeginObject();
    w.Key("id").Uint(e.id);
    w.Key("trace_id").Uint(e.trace_id);
    w.Key("wall_ts").Int(e.wall_ts);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  if (!bare) w.EndObject();
  return w.str();
}

}  // namespace strip
