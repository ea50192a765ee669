// Run capsules: one self-describing JSON artifact per run (DESIGN.md §13).
//
// A capsule is the machine-readable record of everything a run observed:
// build/config provenance (git sha, thread count, memo state), the
// per-kernel counters reassembled from the metrics registry — stall
// attribution in exact ticks, per-space and per-(site, space) rows — the
// full registry snapshot, the sampled time series (obs/sampler.h), and
// named sections contributed by subsystems (the serve layer's SLO report,
// bench payloads). tools/perf_explain consumes pairs of capsules and
// attributes their cycle/GCUPS delta down the kernel → reason → site
// tree, and `perf_explain --baseline` gates the kernel trees of the
// canonical capsules exactly against baselines/canonical_capsules.json;
// CI archives the canonical Table I capsules on every run.
//
// Wiring: CUSW_CAPSULE=<path> makes install_process_exports() write the
// process's capsule at exit; benches and the serve layer contribute their
// sections as they run. Tests and tools call capsule_to_json() directly
// on a snapshot diff to capture one run in isolation.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_check.h"

namespace cusw::obs {

/// Bump when the capsule document shape changes.
inline constexpr int kCapsuleVersion = 1;

/// Contribute (or replace) a named section of the process capsule —
/// `json` must be a complete JSON value. Sections are serialized sorted
/// by name; concurrent contributors with distinct names compose.
void capsule_note_section(const std::string& name, std::string json);

/// Drop every contributed section (tests; capsules for isolated runs).
void capsule_clear_sections();

/// Construct the section registry's internal statics without mutating
/// them. install_process_exports() calls this before registering the
/// exit hook: function-local statics are destroyed in reverse order of
/// construction, so anything the hook reads must already exist when the
/// hook is registered or it would be torn down first.
void capsule_init();

/// Serialize a capsule from `snap`: provenance, the per-kernel counter
/// tree (kernels with no launches and no charged ticks in `snap` are
/// omitted — a diff snapshot records only the kernels that ran), the
/// registry snapshot, the sampler's series and the contributed sections.
std::string capsule_to_json(const Snapshot& snap, const std::string& run);

/// The capsule's "kernels" array alone: the per-kernel counter tree of
/// `snap`, with the same omissions as capsule_to_json().
std::string capsule_kernels_to_json(const Snapshot& snap);

/// Capsule of the process so far (global registry snapshot).
std::string capsule_to_json(const std::string& run = "process");

/// Write capsule_to_json(run) to `path`; false on I/O failure.
bool write_capsule(const std::string& path, const std::string& run = "process");

struct CapsuleCheck {
  bool ok = false;
  std::string error;        // first violation, empty when ok
  std::size_t kernels = 0;  // kernel entries
  std::size_t series = 0;   // time series
  std::size_t points = 0;   // sample points across all series
  /// Non-fatal observations: a valid capsule whose telemetry is known to
  /// be incomplete, e.g. a time series that dropped points to the
  /// sampler's ring bound. The capsule still validates (ok stays true) —
  /// the holes are honest and recorded — but consumers should surface
  /// them before trusting series-derived conclusions.
  std::vector<std::string> warnings;
};

/// Structural validation of a capsule document: top-level object with a
/// numeric capsule_version, a provenance object, and — when present — a
/// kernels array of objects and a series section whose per-series points
/// carry numeric, non-decreasing t_ms timestamps and numeric channel
/// values (unordered time series are rejected). Series that report
/// dropped points (ring overflow) produce warnings, not errors.
CapsuleCheck validate_capsule(std::string_view text);
/// The same checks on an already parsed document.
CapsuleCheck validate_capsule(const json::Value& root);

}  // namespace cusw::obs
