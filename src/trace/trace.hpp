// Deterministic span/instant event tracer with a Chrome trace-event JSON
// sink (load the output in Perfetto or chrome://tracing).
//
// Design constraints, in order:
//
//  1. *Determinism.* Timestamps come exclusively from the simulation clock
//     injected via set_clock(); the tracer never reads a wall clock (the
//     osap-lint DET-2 rule now watches this directory to keep it that way).
//     Recording a trace must not perturb the simulated event stream: the
//     tracer only observes, it never schedules, so the event-trace digest
//     is bit-identical with tracing enabled or disabled (enforced by
//     tests/determinism).
//  2. *Cheap when off.* Every recording call starts with a single branch on
//     `enabled_` and returns without recording. The argument list the
//     caller built is a stack array of raw values (string views and
//     integers), rendered to JSON only when an event is recorded, so a
//     call site on a hot path needs no guard of its own. Track
//     registration stays live while disabled so subsystems can cache
//     TrackIds at construction regardless of configuration.
//  3. *Cross-compiler stable output.* Timestamps are quantized to integer
//     microseconds and argument values carry strings / integers only (no
//     raw doubles), so the golden-file test passes on GCC and Clang alike.
//
// Track model: a track is a (process, thread) pair — process is the
// node/top-level component ("node0", "cluster"), thread the subsystem
// within it ("kernel", "vmm", "tasktracker", ...). Each unique process
// name gets a pid, each subsystem a tid within it, and metadata events
// name both so Perfetto shows one labelled lane per subsystem.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/time.hpp"

namespace osap::trace {

/// Index into the tracer's track table.
using TrackId = std::uint32_t;

/// One argument value, kept raw until an event is recorded: a string or
/// an integer. A string is viewed, not copied, so it must outlive the
/// recording call; a braced argument list written in the call does.
/// Deliberately no double alternative: trace arguments must be integers
/// or strings so golden files are byte-stable across compilers; quantize
/// (e.g. to bytes or microseconds) at the call site instead.
using TraceValue = std::variant<std::string_view, std::uint64_t, int>;

/// One key/value argument of an event.
struct TraceArg {
  std::string_view key;
  TraceValue value;
};

/// Ordered argument list, written as a braced list in the recording call.
/// It allocates nothing; the tracer renders it only when it records.
using TraceArgs = std::initializer_list<TraceArg>;

/// One recorded event. `phase` follows the Chrome trace-event format:
/// B/E sync span, i instant, b/e async span (matched by track+name+id).
struct TraceEvent {
  SimTime ts = 0;
  TrackId track = 0;
  char phase = 'i';
  std::string name;
  std::uint64_t id = 0;  ///< async correlation id; unused for B/E/i.
  /// The arguments as rendered JSON members (`"key":value,...`); empty
  /// when the event has none.
  std::string args;
};

class Tracer {
 public:
  /// Install the simulated-time source. Must outlive the tracer's use.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Register (or look up) the track for a (process, thread) pair.
  /// Deduplicating and callable while disabled, so constructors can cache
  /// the id unconditionally.
  TrackId track(const std::string& process, const std::string& thread);

  /// Synchronous span: begin/end nest per track.
  void begin(TrackId t, const char* name, TraceArgs args = {});
  void end(TrackId t);

  /// Point event.
  void instant(TrackId t, const char* name, TraceArgs args = {});

  /// Asynchronous span: begin and end may be separated by arbitrary sim
  /// time and other events; matched by (track category, name, id).
  void async_begin(TrackId t, const char* name, std::uint64_t id, TraceArgs args = {});
  void async_end(TrackId t, const char* name, std::uint64_t id, TraceArgs args = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }

  /// Test helper: sim-time duration of the first matched async span with
  /// this name and id, or a negative value when unmatched.
  [[nodiscard]] double async_duration(const std::string& name, std::uint64_t id) const;

  /// Serialize everything as Chrome trace-event JSON.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct Track {
    std::string process;
    std::string thread;
    int pid = 0;
    int tid = 0;
  };

  [[nodiscard]] SimTime now() const { return clock_ ? clock_() : 0.0; }
  void push(TrackId t, char phase, const char* name, std::uint64_t id, TraceArgs args);

  bool enabled_ = false;
  std::function<SimTime()> clock_;
  std::vector<Track> tracks_;
  /// Every track id, sorted by (process, thread): track() binary-searches
  /// it instead of scanning all tracks (a 1,000-node cluster registers
  /// about 4,000), and one process's tracks form a contiguous run.
  std::vector<TrackId> track_order_;
  int processes_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace osap::trace
