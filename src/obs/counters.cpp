#include "obs/counters.h"

#include <algorithm>
#include <string_view>

#include "util/json.h"
#include "util/table.h"

namespace cusw::obs {

namespace {

constexpr std::string_view kKernelPrefix = "gpusim.kernel.";

bool is_space_name(std::string_view s) {
  return s == "global" || s == "local" || s == "texture";
}

std::uint64_t field_sum(
    const std::map<std::string, std::uint64_t>& fields,
    std::string_view name) {
  const auto it = fields.find(std::string(name));
  return it == fields.end() ? 0 : it->second;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Fixed-point scale of the stall metrics, mirroring
// gpusim::kStallTicksPerCycle (obs parses metric names only and stays
// independent of the simulator headers).
constexpr double kStallTicksPerCycle = 1024.0;

/// Roofline verdict from a kernel's stall breakdown: which resource the
/// charged cycles say the kernel is limited by. "unknown" when no stall
/// metrics were published (e.g. a snapshot from an older run).
std::string bound_verdict(
    const std::map<std::string, std::uint64_t>& stall) {
  const std::uint64_t compute =
      field_sum(stall, "compute") + field_sum(stall, "bank_conflict");
  const std::uint64_t throughput =
      field_sum(stall, "mem_issue") + field_sum(stall, "txn_issue");
  const std::uint64_t latency = field_sum(stall, "exposed_latency");
  if (compute == 0 && throughput == 0 && latency == 0) return "unknown";
  if (latency >= compute && latency >= throughput) return "latency-bound";
  if (throughput >= compute) return "throughput-bound";
  return "compute-bound";
}

/// Append the derived metrics every counter row gets: coalescing
/// efficiency and per-level hit rates, all against transactions.
void derived_fields(util::JsonFields& f,
                    const std::map<std::string, std::uint64_t>& c) {
  const std::uint64_t txns = field_sum(c, "transactions");
  f.field("coalescing_efficiency", ratio(field_sum(c, "requests"), txns));
  f.field("l1_hit_rate", ratio(field_sum(c, "l1_hits"), txns));
  f.field("l2_hit_rate", ratio(field_sum(c, "l2_hits"), txns));
  f.field("tex_hit_rate", ratio(field_sum(c, "tex_hits"), txns));
}

}  // namespace

std::vector<KernelCounters> collect_kernel_counters(const Snapshot& snap) {
  std::map<std::string, KernelCounters> kernels;
  for (const auto& [name, s] : snap.samples()) {
    if (name.rfind(kKernelPrefix, 0) != 0) continue;
    const std::string rest = name.substr(kKernelPrefix.size());
    const std::size_t dot = rest.find('.');
    if (dot == std::string::npos) continue;
    const std::string label = rest.substr(0, dot);
    const std::string field = rest.substr(dot + 1);
    KernelCounters& k = kernels[label];
    k.label = label;
    if (field.rfind("site.", 0) == 0) {
      // site.<site>.<space>.<field>; the site name may contain dots, so
      // the space and field components are split off the end.
      const std::string path = field.substr(5);
      const std::size_t f_dot = path.rfind('.');
      if (f_dot == std::string::npos) continue;
      const std::size_t s_dot = path.rfind('.', f_dot - 1);
      if (s_dot == std::string::npos) continue;
      const std::string space = path.substr(s_dot + 1, f_dot - s_dot - 1);
      if (!is_space_name(space)) continue;
      k.sites[{path.substr(0, s_dot), space}][path.substr(f_dot + 1)] =
          s.count;
    } else if (field == "launches") {
      k.launches = s.count;
    } else if (field == "blocks") {
      k.blocks = s.count;
    } else if (field == "windows") {
      k.windows = s.count;
    } else if (field == "syncs") {
      k.syncs = s.count;
    } else if (field == "cells") {
      k.cells = s.count;
    } else if (field == "shared.accesses") {
      k.shared_accesses = s.count;
    } else if (field == "shared.bank_conflict_cycles") {
      k.bank_conflict_cycles = s.count;
    } else if (field == "seconds") {
      k.seconds = s.value;
    } else if (field == "makespan_cycles") {
      k.makespan_cycles = s.value;
    } else if (field == "total_block_cycles") {
      k.total_block_cycles = s.value;
    } else if (field.rfind("stall.", 0) == 0) {
      k.stall[field.substr(6)] = s.count;
    } else {
      const std::size_t s_dot = field.find('.');
      if (s_dot == std::string::npos) continue;
      const std::string space = field.substr(0, s_dot);
      if (!is_space_name(space)) continue;
      k.spaces[space][field.substr(s_dot + 1)] = s.count;
    }
  }
  std::vector<KernelCounters> out;
  out.reserve(kernels.size());
  for (auto& [label, k] : kernels) out.push_back(std::move(k));
  return out;
}

std::string counters_to_json(const Snapshot& snap) {
  const std::vector<KernelCounters> kernels = collect_kernel_counters(snap);
  std::string out = "{\"kernels\": [";
  bool first_kernel = true;
  for (const KernelCounters& k : kernels) {
    util::JsonFields f;
    f.field("label", std::string_view(k.label));
    f.field("launches", k.launches);
    f.field("blocks", k.blocks);
    f.field("windows", k.windows);
    f.field("syncs", k.syncs);
    f.field("cells", k.cells);
    f.field("seconds", k.seconds);
    f.field("shared_accesses", k.shared_accesses);
    f.field("bank_conflict_cycles", k.bank_conflict_cycles);

    // Stall attribution, converted from ticks back to simulated cycles
    // (exact: ticks are multiples of 1/1024 cycle).
    util::JsonFields st;
    for (const auto& [reason, ticks] : k.stall)
      st.field(reason + "_cycles",
               static_cast<double>(ticks) / kStallTicksPerCycle);
    f.raw("stall", st.object());

    util::JsonFields spaces;
    std::uint64_t dram_bytes = 0;
    for (const auto& [space, fields] : k.spaces) {
      util::JsonFields sf;
      for (const auto& [fname, v] : fields) sf.field(fname, v);
      derived_fields(sf, fields);
      spaces.raw(space, sf.object());
      dram_bytes += field_sum(fields, "dram_bytes");
    }
    f.raw("spaces", spaces.object());

    std::string sites = "[";
    bool first_site = true;
    for (const auto& [key, fields] : k.sites) {
      util::JsonFields sf;
      sf.field("site", std::string_view(key.first));
      sf.field("space", std::string_view(key.second));
      for (const auto& [fname, v] : fields) sf.field(fname, v);
      derived_fields(sf, fields);
      sites += first_site ? "" : ", ";
      sites += sf.object();
      first_site = false;
    }
    sites += "]";
    f.raw("sites", sites);

    // Kernel-level derived metrics (the roofline / bandwidth view).
    util::JsonFields d;
    d.field("dram_bytes", dram_bytes);
    d.field("dram_bandwidth_gbs",
            k.seconds > 0.0
                ? static_cast<double>(dram_bytes) / k.seconds / 1e9
                : 0.0);
    d.field("arithmetic_intensity", ratio(k.cells, dram_bytes));
    d.field("bank_conflict_share",
            k.total_block_cycles > 0.0
                ? static_cast<double>(k.bank_conflict_cycles) /
                      k.total_block_cycles
                : 0.0);
    d.field("gcups", k.seconds > 0.0
                         ? static_cast<double>(k.cells) / k.seconds / 1e9
                         : 0.0);
    const std::string bound = bound_verdict(k.stall);
    d.field("bound", std::string_view(bound));
    f.raw("derived", d.object());

    out += first_kernel ? "\n " : ",\n ";
    out += f.object();
    first_kernel = false;
  }
  out += "\n]}";
  return out;
}

std::string format_counters_table(const Snapshot& snap) {
  const std::vector<KernelCounters> kernels = collect_kernel_counters(snap);
  if (kernels.empty()) return "";
  std::string out;
  for (const KernelCounters& k : kernels) {
    std::uint64_t dram_bytes = 0;
    for (const auto& [space, fields] : k.spaces)
      dram_bytes += field_sum(fields, "dram_bytes");
    char head[320];
    std::snprintf(head, sizeof(head),
                  "%s: %llu launches, %llu cells, %.3g GCUPS, "
                  "%.3g GB/s DRAM, AI %.3g cells/B, "
                  "bank-conflict share %.3g, %s\n",
                  k.label.c_str(),
                  static_cast<unsigned long long>(k.launches),
                  static_cast<unsigned long long>(k.cells),
                  k.seconds > 0.0
                      ? static_cast<double>(k.cells) / k.seconds / 1e9
                      : 0.0,
                  k.seconds > 0.0
                      ? static_cast<double>(dram_bytes) / k.seconds / 1e9
                      : 0.0,
                  ratio(k.cells, dram_bytes),
                  k.total_block_cycles > 0.0
                      ? static_cast<double>(k.bank_conflict_cycles) /
                            k.total_block_cycles
                      : 0.0,
                  bound_verdict(k.stall).c_str());
    out += head;

    const std::uint64_t charged = field_sum(k.stall, "charged");
    Table t({"site", "space", "requests", "transactions", "coalesce",
             "dram txns", "dram bytes", "hit %", "cycles", "stall %"},
            2);
    auto add = [&](const std::string& site, const std::string& space,
                   const std::map<std::string, std::uint64_t>& c) {
      const std::uint64_t txns = field_sum(c, "transactions");
      const std::uint64_t hits = field_sum(c, "l1_hits") +
                                 field_sum(c, "l2_hits") +
                                 field_sum(c, "tex_hits");
      const std::uint64_t st = field_sum(c, "stall_ticks");
      t.add_row({site, space,
                 static_cast<std::int64_t>(field_sum(c, "requests")),
                 static_cast<std::int64_t>(txns),
                 ratio(field_sum(c, "requests"), txns),
                 static_cast<std::int64_t>(field_sum(c, "dram_transactions")),
                 static_cast<std::int64_t>(field_sum(c, "dram_bytes")),
                 100.0 * ratio(hits, txns),
                 static_cast<double>(st) / kStallTicksPerCycle,
                 100.0 * ratio(st, charged)});
    };
    for (const auto& [key, fields] : k.sites) add(key.first, key.second, fields);
    for (const auto& [space, fields] : k.spaces)
      add("(total)", space, fields);
    out += t.to_string();
  }
  return out;
}

}  // namespace cusw::obs
