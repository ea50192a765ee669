// cusw-counters: per-site memory-hierarchy attribution report.
//
// gpusim::launch publishes each launch's counters under
// `gpusim.kernel.<label>.*`, including the per-site attribution rows the
// kernels annotate (`<label>.site.<site>.<space>.<field>`, see
// gpusim/site.h). This module renders those metrics as an ncu-style table
// and as JSON with derived metrics per kernel and per site:
//   - coalescing efficiency (requests / transactions)
//   - L1 / L2 / texture-cache hit rates (hits / transactions)
//   - achieved DRAM bandwidth (dram_bytes / kernel seconds)
//   - bank-conflict cycle share (conflict cycles / total block cycles)
//   - roofline arithmetic intensity (cell updates / dram_bytes)
//   - GCUPS (cell updates / kernel seconds / 1e9) and a roofline verdict
//     (compute- vs memory-throughput- vs latency-bound) from the stall
//     breakdown gpusim::launch attributes per charged cycle
// The same per-kernel counters form the kernel tree of a run capsule
// (obs/capsule.h), which `perf_explain --baseline` gates exactly against
// baselines/canonical_capsules.json. Enable this report at process exit
// with CUSW_COUNTERS=<path> (wired through install_process_exports(),
// like CUSW_PROF / CUSW_METRICS).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cusw::obs {

/// One kernel's counters reassembled from a snapshot's
/// `gpusim.kernel.<label>.*` metrics.
struct KernelCounters {
  std::string label;
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t windows = 0;
  std::uint64_t syncs = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t bank_conflict_cycles = 0;
  std::uint64_t cells = 0;
  double seconds = 0.0;
  double makespan_cycles = 0.0;
  double total_block_cycles = 0.0;
  /// stall reason -> fixed-point ticks (gpusim/stall.h), plus the
  /// "charged" total; the reasons sum to "charged" exactly.
  std::map<std::string, std::uint64_t> stall;
  /// space name -> field name -> value (the SpaceCounters fields).
  std::map<std::string, std::map<std::string, std::uint64_t>> spaces;
  /// (site name, space name) -> field name -> value. Site rows of one
  /// space sum to that space's totals bit for bit.
  std::map<std::pair<std::string, std::string>,
           std::map<std::string, std::uint64_t>>
      sites;
};

/// Parse every `gpusim.kernel.*` metric of `snap` into per-kernel
/// counters, sorted by label. Site names may themselves contain dots
/// ("profile.tex_fetch"); the space and field are parsed from the end.
std::vector<KernelCounters> collect_kernel_counters(const Snapshot& snap);

/// The cusw-counters JSON document: per-kernel objects with raw counters,
/// per-site attribution rows and the derived metrics listed above.
std::string counters_to_json(const Snapshot& snap);

/// ncu-style ASCII rendering: one section per kernel with its derived
/// metrics, then one row per (site, space) attribution entry. Returns ""
/// when the snapshot holds no kernel metrics.
std::string format_counters_table(const Snapshot& snap);

}  // namespace cusw::obs
