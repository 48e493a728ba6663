#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"

namespace osap::trace {

namespace {

/// Append `s` as a JSON string literal with minimal escaping (quote,
/// backslash, control characters). Track and event names are ASCII
/// identifiers in practice, but task names flow in from user-facing job
/// specs.
void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

/// Sim seconds -> integer microseconds, the unit of the `ts` field.
/// llround keeps the quantization identical across compilers.
long long to_us(SimTime ts) { return std::llround(ts * 1e6); }

}  // namespace

TrackId Tracer::track(const std::string& process, const std::string& thread) {
  // track_order_ is sorted by (process, thread): find this process's run
  // of tracks, then the thread's place inside it.
  const auto run_begin =
      std::partition_point(track_order_.begin(), track_order_.end(),
                           [&](TrackId id) { return tracks_[id].process < process; });
  const auto run_end =
      std::partition_point(run_begin, track_order_.end(),
                           [&](TrackId id) { return tracks_[id].process == process; });
  const auto at = std::partition_point(
      run_begin, run_end, [&](TrackId id) { return tracks_[id].thread < thread; });
  if (at != run_end && tracks_[*at].thread == thread) return *at;
  // pid: order of first appearance of the process name; tid: per-process
  // registration order. Both 1-based — Perfetto hides pid/tid 0 quirks.
  Track t;
  t.process = process;
  t.thread = thread;
  t.pid = run_begin == run_end ? ++processes_ : tracks_[*run_begin].pid;
  t.tid = static_cast<int>(run_end - run_begin) + 1;
  const auto id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(std::move(t));
  track_order_.insert(at, id);
  return id;
}

void Tracer::push(TrackId t, char phase, const char* name, std::uint64_t id, TraceArgs args) {
  OSAP_CHECK_MSG(t < tracks_.size(), "trace event on unregistered track " << t);
  TraceEvent e;
  e.ts = now();
  e.track = t;
  e.phase = phase;
  e.name = name;
  e.id = id;
  for (const TraceArg& arg : args) {
    if (!e.args.empty()) e.args += ',';
    append_quoted(e.args, arg.key);
    e.args += ':';
    std::visit(
        [&e](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string_view>) {
            append_quoted(e.args, v);
          } else {
            e.args += std::to_string(v);
          }
        },
        arg.value);
  }
  events_.push_back(std::move(e));
}

void Tracer::begin(TrackId t, const char* name, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'B', name, 0, args);
}

void Tracer::end(TrackId t) {
  if (!enabled_) return;
  push(t, 'E', "", 0, {});
}

void Tracer::instant(TrackId t, const char* name, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'i', name, 0, args);
}

void Tracer::async_begin(TrackId t, const char* name, std::uint64_t id, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'b', name, id, args);
}

void Tracer::async_end(TrackId t, const char* name, std::uint64_t id, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'e', name, id, args);
}

double Tracer::async_duration(const std::string& name, std::uint64_t id) const {
  SimTime begin = -1;
  for (const TraceEvent& e : events_) {
    if (e.name != name || e.id != id) continue;
    if (e.phase == 'b') {
      begin = e.ts;
    } else if (e.phase == 'e' && begin >= 0) {
      return e.ts - begin;
    }
  }
  return -1.0;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&os, &first](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };

  // Metadata first: one process_name per unique pid, one thread_name per
  // track, in registration order (deterministic by construction).
  std::vector<int> named_pids;
  for (const Track& t : tracks_) {
    if (std::find(named_pids.begin(), named_pids.end(), t.pid) == named_pids.end()) {
      named_pids.push_back(t.pid);
      emit("{\"ph\":\"M\",\"pid\":" + std::to_string(t.pid) +
           ",\"name\":\"process_name\",\"args\":{\"name\":" + quote(t.process) + "}}");
    }
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":" + quote(t.thread) + "}}");
  }

  for (const TraceEvent& e : events_) {
    const Track& t = tracks_[e.track];
    std::string line = "{\"ph\":\"";
    line.push_back(e.phase);
    line += "\",\"pid\":" + std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid) +
            ",\"ts\":" + std::to_string(to_us(e.ts)) + ",\"name\":" + quote(e.name);
    if (e.phase == 'b' || e.phase == 'e') {
      // Async events need a category + id for matching; the subsystem
      // (thread) name doubles as the category.
      line += ",\"cat\":" + quote(t.thread) + ",\"id\":" + quote(std::to_string(e.id));
    }
    if (e.phase == 'i') line += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      line += ",\"args\":{";
      line += e.args;
      line += "}";
    }
    line += "}";
    emit(line);
  }
  os << "\n]}\n";
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace osap::trace
