#include "obs/capsule.h"

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "cusw_version.h"
#include "obs/counters.h"
#include "obs/sampler.h"
#include "obs/trace_check.h"
#include "obs/whatif.h"
#include "util/env.h"
#include "util/json.h"
#include "util/parallel.h"

namespace cusw::obs {

namespace {

std::mutex& sections_mu() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, std::string>& sections() {
  static std::map<std::string, std::string> s;
  return s;
}

/// The per-kernel counter tree of one KernelCounters entry. Stall and
/// space values stay raw integers (ticks / counts) so two capsules of the
/// same run compare bit-for-bit and perf_explain's attribution sums are
/// exact.
std::string kernel_to_json(const KernelCounters& k) {
  util::JsonFields f;
  f.field("label", k.label)
      .field("launches", k.launches)
      .field("blocks", k.blocks)
      .field("windows", k.windows)
      .field("syncs", k.syncs)
      .field("cells", k.cells)
      .field("shared_accesses", k.shared_accesses)
      .field("bank_conflict_cycles", k.bank_conflict_cycles)
      .field("seconds", k.seconds)
      .field("gcups", k.seconds > 0.0
                          ? static_cast<double>(k.cells) / k.seconds / 1e9
                          : 0.0)
      // Whole cycles: the scheduled makespan behind `seconds`, kept as an
      // integer so a baseline compares it exactly.
      .field("makespan_cycles",
             static_cast<std::int64_t>(std::llround(k.makespan_cycles)))
      .field("total_block_cycles", k.total_block_cycles);
  util::JsonFields stall;
  for (const auto& [reason, ticks] : k.stall) stall.field(reason, ticks);
  f.raw("stall_ticks", stall.object());
  util::JsonFields spaces;
  for (const auto& [space, fields] : k.spaces) {
    util::JsonFields sf;
    for (const auto& [field, v] : fields) sf.field(field, v);
    spaces.raw(space, sf.object());
  }
  f.raw("spaces", spaces.object());
  std::string sites = "[";
  bool first = true;
  for (const auto& [key, fields] : k.sites) {
    util::JsonFields sf;
    sf.field("site", key.first).field("space", key.second);
    util::JsonFields cf;
    for (const auto& [field, v] : fields) cf.field(field, v);
    sf.raw("counters", cf.object());
    // One site row per line keeps diffs of checked-in capsules readable.
    sites += std::string(first ? "\n    " : ",\n    ") + sf.object();
    first = false;
  }
  sites += "]";
  f.raw("sites", sites);
  return f.object();
}

}  // namespace

void capsule_note_section(const std::string& name, std::string json) {
  std::lock_guard<std::mutex> lk(sections_mu());
  sections()[name] = std::move(json);
}

void capsule_clear_sections() {
  std::lock_guard<std::mutex> lk(sections_mu());
  sections().clear();
}

void capsule_init() {
  std::lock_guard<std::mutex> lk(sections_mu());
  (void)sections();
}

std::string capsule_kernels_to_json(const Snapshot& snap) {
  std::string out = "[";
  bool first = true;
  for (const KernelCounters& k : collect_kernel_counters(snap)) {
    // A diff snapshot carries zeroed entries for kernels that ran before
    // the window but not inside it; a capsule records only what ran.
    const auto charged = k.stall.find("charged");
    if (k.launches == 0 &&
        (charged == k.stall.end() || charged->second == 0)) {
      continue;
    }
    out += (first ? "\n   " : ",\n   ") + kernel_to_json(k);
    first = false;
  }
  return out + (first ? "]" : "\n  ]");
}

std::string capsule_to_json(const Snapshot& snap, const std::string& run) {
  util::JsonFields prov;
  prov.field("git_sha", std::string_view(CUSW_GIT_SHA))
      .field("threads", static_cast<std::uint64_t>(util::parallelism()))
      .field("memo", std::string_view(
                         util::env_enabled("CUSW_SIM_MEMO", true) ? "on"
                                                                  : "off"))
      .field("sample_every_ms", Sampler::global().every_ms());
  // A capsule captured under an active what-if plan is a counterfactual,
  // not a measurement — stamp the plan so no tool compares it against a
  // real baseline by accident. Malformed CUSW_WHATIF is recorded rather
  // than thrown: provenance is best-effort at process exit.
  try {
    if (const whatif::Plan* plan = whatif::active_plan(); plan != nullptr)
      prov.field("whatif", std::string_view(plan->spec));
  } catch (const std::exception&) {
    prov.field("whatif", std::string_view("<invalid CUSW_WHATIF>"));
  }

  std::ostringstream os;
  os << "{\n  \"capsule_version\": " << kCapsuleVersion << ",\n";
  os << "  \"run\": \"" << util::json_escape(run) << "\",\n";
  os << "  \"provenance\": " << prov.object() << ",\n";

  os << "  \"kernels\": " << capsule_kernels_to_json(snap) << ",\n";
  os << "  \"metrics\": " << snap.to_json() << ",\n";
  os << "  \"series\": " << Sampler::global().to_json() << ",\n";

  util::JsonFields secs;
  {
    std::lock_guard<std::mutex> lk(sections_mu());
    for (const auto& [name, json] : sections()) secs.raw(name, json);
  }
  os << "  \"sections\": " << secs.object() << "\n}\n";
  return os.str();
}

std::string capsule_to_json(const std::string& run) {
  return capsule_to_json(Registry::global().snapshot(), run);
}

bool write_capsule(const std::string& path, const std::string& run) {
  const std::string json = capsule_to_json(run);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

namespace {

CapsuleCheck capsule_fail(std::string what) {
  CapsuleCheck out;
  out.error = std::move(what);
  return out;
}

}  // namespace

CapsuleCheck validate_capsule(std::string_view text) {
  json::Value root;
  std::string perr;
  if (!json::parse(text, root, &perr))
    return capsule_fail("JSON parse error: " + perr);
  return validate_capsule(root);
}

CapsuleCheck validate_capsule(const json::Value& root) {
  if (root.kind != json::Value::Kind::kObject)
    return capsule_fail("top level is not an object");
  const json::Value* version = root.find("capsule_version");
  if (version == nullptr || version->kind != json::Value::Kind::kNumber)
    return capsule_fail("missing numeric capsule_version");
  const json::Value* prov = root.find("provenance");
  if (prov == nullptr || prov->kind != json::Value::Kind::kObject)
    return capsule_fail("missing provenance object");

  CapsuleCheck out;
  if (const json::Value* kernels = root.find("kernels")) {
    if (kernels->kind != json::Value::Kind::kArray)
      return capsule_fail("kernels is not an array");
    for (const json::Value& k : kernels->array) {
      const json::Value* label =
          k.kind == json::Value::Kind::kObject ? k.find("label") : nullptr;
      if (label == nullptr || label->kind != json::Value::Kind::kString)
        return capsule_fail("kernel entry missing string label");
      ++out.kernels;
    }
  }
  if (const json::Value* series = root.find("series")) {
    if (series->kind != json::Value::Kind::kObject)
      return capsule_fail("series is not an object");
    const json::Value* list = series->find("series");
    if (list == nullptr || list->kind != json::Value::Kind::kArray)
      return capsule_fail("series section missing its series array");
    for (const json::Value& s : list->array) {
      const json::Value* name =
          s.kind == json::Value::Kind::kObject ? s.find("name") : nullptr;
      if (name == nullptr || name->kind != json::Value::Kind::kString)
        return capsule_fail("time series missing string name");
      const json::Value* points = s.find("points");
      if (points == nullptr || points->kind != json::Value::Kind::kArray)
        return capsule_fail("time series '" + name->string +
                            "' missing points array");
      double last_ms = 0.0;
      bool have_last = false;
      for (const json::Value& p : points->array) {
        const json::Value* t =
            p.kind == json::Value::Kind::kObject ? p.find("t_ms") : nullptr;
        if (t == nullptr || t->kind != json::Value::Kind::kNumber)
          return capsule_fail("sample point of '" + name->string +
                              "' missing numeric t_ms");
        if (have_last && t->number < last_ms) {
          return capsule_fail("time series '" + name->string +
                              "' timestamps are unordered");
        }
        last_ms = t->number;
        have_last = true;
        const json::Value* values = p.find("values");
        if (values == nullptr ||
            values->kind != json::Value::Kind::kObject)
          return capsule_fail("sample point of '" + name->string +
                              "' missing values object");
        for (const auto& [channel, v] : values->object) {
          if (v.kind != json::Value::Kind::kNumber)
            return capsule_fail("channel '" + channel + "' of '" +
                                name->string + "' is not numeric");
        }
        ++out.points;
      }
      if (const json::Value* dropped = s.find("dropped");
          dropped != nullptr &&
          dropped->kind == json::Value::Kind::kNumber &&
          dropped->number > 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.0f", dropped->number);
        out.warnings.push_back("time series '" + name->string +
                               "' dropped " + buf +
                               " point(s) to the sampler ring bound");
      }
      ++out.series;
    }
  }
  out.ok = true;
  return out;
}

}  // namespace cusw::obs
