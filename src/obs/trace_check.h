// Chrome-trace schema validation without Python: a minimal JSON parser
// plus the structural checks CI runs on emitted trace files — required
// fields per event, non-negative durations, and per-track monotonic,
// properly nested spans. Tests use it to assert every trace this process
// writes actually loads in chrome://tracing.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cusw::obs::json {

/// A parsed JSON value. Objects keep insertion order (trace validation
/// cares about event order, which maps to array order anyway).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// First member of an object value with this key, or nullptr.
  const Value* find(std::string_view key) const;
};

/// Parse `text` into `out`. On failure returns false and sets `error` (if
/// non-null) to a message with a byte offset. Arrays and objects nested
/// more than 256 deep are an error.
bool parse(std::string_view text, Value& out, std::string* error);

}  // namespace cusw::obs::json

namespace cusw::obs {

struct TraceCheck {
  bool ok = false;
  std::string error;          // first violation, empty when ok
  std::size_t events = 0;     // all trace events
  std::size_t spans = 0;      // complete ("X") events
  std::size_t instants = 0;   // instant ("i") events
  std::size_t counters = 0;   // counter ("C") samples
  std::size_t samples = 0;    // sampled-telemetry counters (cat "sample")
  std::size_t asyncs = 0;     // async ("b"/"n"/"e") events
  std::size_t lanes = 0;      // distinct async (pid, cat, id) lanes
  std::size_t tracks = 0;     // distinct (pid, tid) with at least one span
};

/// Validate Chrome trace-event JSON: top-level object with a `traceEvents`
/// array; every event has name/ph/pid/tid; "X" events carry numeric ts and
/// dur >= 0; "i" instants carry a numeric ts (and never a dur); "C"
/// counter samples carry a numeric ts, no dur, and an args object whose
/// values are all numeric (each is one counter series); within each
/// (pid, tid) track, spans are monotonically ordered by start time and
/// properly nested (a span never straddles the end of an enclosing span).
/// Instants and counters obey track monotonicity but do not participate in
/// nesting. A span whose args carry a stall breakdown (`stall_*` keys plus
/// `charged_cycles`) is rejected when the stall sum exceeds the charged
/// total — the simulator's per-window sum invariant, rechecked end to end
/// on the emitted file.
///
/// Async events ("b" begin / "n" instant / "e" end) carry a numeric ts, a
/// non-empty cat and an id (string or number); each (pid, cat, id) triple
/// is one lane (a per-request lane in the serve layer). Within a lane the
/// checker enforces: every "e" matches the most recent unclosed "b" by
/// name (LIFO nesting — phase spans stay confined inside their request
/// span), no span ends before it begins, "n" instants only occur inside
/// an open span, every "b" is closed by the end of the file, and once a
/// lane's outermost span has closed no further events may use that lane.
///
/// Sampled-telemetry counter tracks (cat "sample", emitted by
/// obs::Sampler::render_trace) get one extra rule: every sampled counter
/// must fall inside the span of the run it samples — no earlier than the
/// first timestamped non-sample event and no later than the last one
/// ends. Per-track timestamp monotonicity already applies through the
/// counter rule above (sample points are simulated-time events).
TraceCheck validate_chrome_trace(std::string_view text);

}  // namespace cusw::obs
