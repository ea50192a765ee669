// perf_explain: differential attribution over run capsules (obs/capsule.h).
//
// Loads two capsules — typically "before" and "after" some change — aligns
// their per-kernel counter trees, and attributes the total charged-cycle
// delta hierarchically:
//
//   total
//     └─ kernel (matched by label; a lone unmatched kernel on each side is
//        paired as "labelA -> labelB", the orig-vs-improved case)
//          ├─ compute / sync / bank_conflict / occupancy_idle leaves
//          └─ memory (mem_issue + txn_issue + exposed_latency)
//               └─ per-(site, space) rows from the kernels' site
//                  attribution, annotated with transaction / DRAM-byte
//                  deltas
//
// The simulator's fixed-point invariants (reasons sum to charged exactly;
// site stall ticks sum to the memory reasons exactly — gpusim/stall.h,
// DESIGN.md §9) mean every internal node's delta equals the sum of its
// children's; any difference is reported as that node's "unattributed
// residue" and gated against ExplainOptions::max_residue. Children too
// small to matter (|delta| below `threshold` of the |total delta|) fold
// into one aggregate row per parent.
//
// The canonical_capsule_*() pair reruns the paper's Table I slice into
// isolated capsules; CI runs them through explain_capsules() and archives
// both artifacts.
//
// The same library is the repository's one baseline gate
// (`perf_explain --baseline=<file>`, ctest `perf_baseline`):
// canonical_baseline() reruns a fixed set of slices into one capsule each
// and check_baseline() compares every kernel tree exactly against the
// checked-in baselines/canonical_capsules.json, explaining any slice that
// moved with the attribution tree above.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpusim/cost_model.h"
#include "gpusim/device_spec.h"
#include "seq/database.h"
#include "sw/scoring.h"

namespace cusw::tools {

struct ExplainOptions {
  /// Children whose |delta| is below this share of the |total delta| are
  /// folded into one "(below threshold: N rows)" aggregate per parent.
  double threshold = 0.005;
  /// The report fails (within_residue_bound == false) when any internal
  /// node's |unattributed residue| exceeds this share of the |total delta|.
  double max_residue = 0.01;
  /// Explicit cross-capsule kernel pairings (labelA -> labelB), applied
  /// before label matching — the `--map=labelA=labelB` flag. Required
  /// when renaming leaves more than one unmatched kernel on each side:
  /// guessing the pairing would silently attribute one kernel's delta to
  /// another, so that case is an error instead.
  std::vector<std::pair<std::string, std::string>> label_map;
};

/// One node of the attribution tree. Cycle values are exact: stall ticks
/// are parsed as integers and divided by the fixed-point scale once.
struct ExplainNode {
  std::string name;
  double cycles_a = 0.0;
  double cycles_b = 0.0;
  double delta = 0.0;      // cycles_b - cycles_a
  double share = 0.0;      // delta / total delta (signed); 0 when total == 0
  std::size_t folded = 0;  // >0: aggregate of that many below-threshold rows
  /// Internal nodes: delta - sum(children deltas). Exactly 0 when the
  /// capsule honours the simulator's partition invariants.
  double residue = 0.0;
  /// Site rows: supporting space-counter deltas (transactions, dram_bytes).
  std::vector<std::pair<std::string, double>> notes;
  std::vector<ExplainNode> children;
};

/// Per-kernel throughput framing of the same delta.
struct KernelRate {
  std::string name;
  double gcups_a = 0.0;
  double gcups_b = 0.0;
};

struct ExplainReport {
  bool ok = false;
  std::string error;  // parse/validation failure, empty when ok
  /// Non-fatal capsule observations (obs::CapsuleCheck::warnings, e.g.
  /// sampler ring overflow), prefixed with the capsule they came from.
  std::vector<std::string> warnings;
  ExplainNode root;   // name "total"; children are kernel nodes
  std::vector<KernelRate> rates;
  double total_delta_cycles = 0.0;
  /// 1 - (sum of internal |residue|) / |total delta|; 1 when everything
  /// attributed. The acceptance bar is >= 0.99.
  double attributed_share = 1.0;
  /// max over internal nodes of |residue| / |total delta|.
  double max_residue_share = 0.0;
  bool within_residue_bound = false;
  ExplainOptions options;

  std::string to_ascii() const;
  std::string to_json() const;
};

/// Attribute capsule B's simulated-cycle delta against capsule A down the
/// kernel -> stall-reason -> (site, space) tree.
ExplainReport explain_capsules(std::string_view capsule_a,
                               std::string_view capsule_b,
                               const ExplainOptions& options = {});

/// The canonical Table I workload every canonical artifact replays: the
/// 567-residue query against the over-threshold Swiss-Prot subset on a
/// one-SM C1060 slice. Shared by the capsule builders below and by
/// tools/causal_profile_lib.h, so the capsules being explained and the
/// sweeps being run can never drift apart.
struct CanonicalWorkload {
  gpusim::DeviceSpec spec;           // one-SM C1060 slice
  std::vector<seq::Code> query;      // the 567-residue Table I query
  seq::SequenceDB longs;             // sequences above the threshold
  const sw::ScoringMatrix* matrix = nullptr;
  sw::GapPenalty gap{10, 2};
};

/// Build the workload. `db_sequences` scales the synthesized database
/// before the threshold split (2400 is the canonical Table I size; tests
/// shrink it for speed).
CanonicalWorkload canonical_workload(std::size_t db_sequences = 2400);

/// Canonical Table I capsules: the paper's intra-task kernel pair on the
/// canonical_workload() slice, each run on a fresh device into an
/// isolated registry-diff capsule with the sampler armed. Byte-identical
/// for any CUSW_THREADS and for memo on/off.
/// `db_sequences` shrinks the database as in canonical_workload().
std::string canonical_capsule_original(std::size_t db_sequences = 2400);
std::string canonical_capsule_improved(std::size_t db_sequences = 2400);

/// The canonical baseline set: a JSON object mapping each slice name to a
/// capsule holding only that slice's kernel tree (provenance left empty,
/// no registry dump or series). The slices, each kernel on a fresh device:
///   table1_q567  — both intra-task kernels on canonical_workload();
///   table1_q1500 — the same with a 1500-residue query;
///   fig2         — inter_task and inter_task_simd against the sorted
///                  lognormal_db(256, 4000, 1500, 0xF162, 32, 40000).
/// Byte-identical for any CUSW_THREADS and memo on/off. `cost` is a test
/// seam: tests perturb one constant to prove the gate trips.
std::string canonical_baseline(const gpusim::CostModel& cost = {});

struct BaselineCheck {
  std::string error;  // the baseline is unreadable or not a capsule set
  std::size_t compared = 0;             // keys compared across all slices
  std::vector<std::string> mismatches;  // "key: baseline X, current Y"
  /// The mismatch lines, then explain_capsules(baseline, current) for
  /// every slice that moved.
  std::string report;
};

/// Compare a current baseline set against a checked-in one, exactly: every
/// number, string and row of every kernel tree. A slice, kernel or site
/// row present on only one side is a mismatch.
BaselineCheck check_baseline(std::string_view baseline,
                             std::string_view current);

}  // namespace cusw::tools
