#include "tools/perf_explain_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "cudasw/inter_task.h"
#include "cudasw/inter_task_simd.h"
#include "cudasw/intra_task_improved.h"
#include "cudasw/intra_task_original.h"
#include "gpusim/device_spec.h"
#include "gpusim/stall.h"
#include "obs/capsule.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace_check.h"
#include "seq/generate.h"
#include "util/json.h"
#include "util/rng.h"

namespace cusw::tools {

namespace {

bool is_memory_reason(const std::string& reason) {
  return reason == "mem_issue" || reason == "txn_issue" ||
         reason == "exposed_latency";
}

/// One capsule kernel entry reduced to what attribution needs. Stall and
/// site values stay integer ticks so sums are exact.
struct CapKernel {
  std::string label;
  double gcups = 0.0;
  std::map<std::string, std::uint64_t> stall;  // reason -> ticks, + charged
  std::map<std::pair<std::string, std::string>,
           std::map<std::string, std::uint64_t>>
      sites;
};

std::uint64_t as_u64(const obs::json::Value* v) {
  if (v == nullptr || v->kind != obs::json::Value::Kind::kNumber ||
      v->number <= 0.0) {
    return 0;
  }
  return static_cast<std::uint64_t>(std::llround(v->number));
}

double as_num(const obs::json::Value* v) {
  return v != nullptr && v->kind == obs::json::Value::Kind::kNumber
             ? v->number
             : 0.0;
}

bool load_capsule(const obs::json::Value& root, const char* which,
                  std::vector<CapKernel>& out, std::string* error,
                  std::vector<std::string>* warnings) {
  const obs::CapsuleCheck check = obs::validate_capsule(root);
  if (!check.ok) {
    *error = std::string("capsule ") + which + ": " + check.error;
    return false;
  }
  for (const std::string& w : check.warnings) {
    warnings->push_back(std::string("capsule ") + which + ": " + w);
  }
  const obs::json::Value* kernels = root.find("kernels");
  if (kernels == nullptr) return true;
  for (const obs::json::Value& k : kernels->array) {
    CapKernel ck;
    ck.label = k.find("label")->string;  // validated above
    ck.gcups = as_num(k.find("gcups"));
    if (const obs::json::Value* stall = k.find("stall_ticks");
        stall != nullptr && stall->kind == obs::json::Value::Kind::kObject) {
      for (const auto& [reason, v] : stall->object) ck.stall[reason] = as_u64(&v);
    }
    if (const obs::json::Value* sites = k.find("sites");
        sites != nullptr && sites->kind == obs::json::Value::Kind::kArray) {
      for (const obs::json::Value& s : sites->array) {
        if (s.kind != obs::json::Value::Kind::kObject) continue;
        const obs::json::Value* site = s.find("site");
        const obs::json::Value* space = s.find("space");
        if (site == nullptr || site->kind != obs::json::Value::Kind::kString ||
            space == nullptr ||
            space->kind != obs::json::Value::Kind::kString) {
          continue;
        }
        auto& fields = ck.sites[{site->string, space->string}];
        if (const obs::json::Value* ctr = s.find("counters");
            ctr != nullptr && ctr->kind == obs::json::Value::Kind::kObject) {
          for (const auto& [field, v] : ctr->object) fields[field] = as_u64(&v);
        }
      }
    }
    out.push_back(std::move(ck));
  }
  return true;
}

double cycles(std::uint64_t ticks) {
  return gpusim::stall_ticks_to_cycles(ticks);
}

ExplainNode make_node(std::string name, std::uint64_t ticks_a,
                      std::uint64_t ticks_b) {
  ExplainNode n;
  n.name = std::move(name);
  n.cycles_a = cycles(ticks_a);
  n.cycles_b = cycles(ticks_b);
  n.delta = n.cycles_b - n.cycles_a;
  return n;
}

std::uint64_t stall_of(const CapKernel* k, const std::string& reason) {
  if (k == nullptr) return 0;
  const auto it = k->stall.find(reason);
  return it == k->stall.end() ? 0 : it->second;
}

std::uint64_t site_field(const CapKernel* k,
                         const std::pair<std::string, std::string>& key,
                         const std::string& field) {
  if (k == nullptr) return 0;
  const auto it = k->sites.find(key);
  if (it == k->sites.end()) return 0;
  const auto f = it->second.find(field);
  return f == it->second.end() ? 0 : f->second;
}

double child_delta_sum(const ExplainNode& n) {
  double sum = 0.0;
  for (const ExplainNode& c : n.children) sum += c.delta;
  return sum;
}

/// Build one kernel node: direct stall-reason leaves, plus a "memory"
/// internal node holding the per-(site, space) attribution rows.
ExplainNode kernel_node(const std::string& name, const CapKernel* a,
                        const CapKernel* b) {
  ExplainNode n = make_node(name, stall_of(a, "charged"), stall_of(b, "charged"));

  std::set<std::string> reasons;
  if (a != nullptr)
    for (const auto& [r, v] : a->stall) reasons.insert(r);
  if (b != nullptr)
    for (const auto& [r, v] : b->stall) reasons.insert(r);
  reasons.erase("charged");

  std::uint64_t mem_a = 0, mem_b = 0;
  bool have_memory = false;
  for (const std::string& r : reasons) {
    if (is_memory_reason(r)) {
      mem_a += stall_of(a, r);
      mem_b += stall_of(b, r);
      have_memory = true;
      continue;
    }
    n.children.push_back(make_node(r, stall_of(a, r), stall_of(b, r)));
  }

  std::set<std::pair<std::string, std::string>> site_keys;
  if (a != nullptr)
    for (const auto& [key, fields] : a->sites) site_keys.insert(key);
  if (b != nullptr)
    for (const auto& [key, fields] : b->sites) site_keys.insert(key);

  if (have_memory || !site_keys.empty()) {
    ExplainNode mem = make_node("memory", mem_a, mem_b);
    for (const auto& key : site_keys) {
      ExplainNode row = make_node(key.first + " (" + key.second + ")",
                                  site_field(a, key, "stall_ticks"),
                                  site_field(b, key, "stall_ticks"));
      for (const char* field : {"transactions", "dram_bytes"}) {
        const std::uint64_t fa = site_field(a, key, field);
        const std::uint64_t fb = site_field(b, key, field);
        if (fa != 0 || fb != 0) {
          row.notes.emplace_back(field, static_cast<double>(fb) -
                                            static_cast<double>(fa));
        }
      }
      mem.children.push_back(std::move(row));
    }
    mem.residue = mem.delta - child_delta_sum(mem);
    n.children.push_back(std::move(mem));
  }
  n.residue = n.delta - child_delta_sum(n);
  return n;
}

struct KernelPair {
  std::string name;
  const CapKernel* a = nullptr;
  const CapKernel* b = nullptr;
};

std::string label_listing(const std::vector<const CapKernel*>& ks) {
  std::string out = "[";
  for (std::size_t i = 0; i < ks.size(); ++i) {
    out += (i != 0 ? ", " : "") + ks[i]->label;
  }
  return out + "]";
}

/// Align kernels by label. Explicit `--map=labelA=labelB` pairings apply
/// first; a lone unmatched kernel on each side is the renamed-kernel case
/// (the canonical orig-vs-improved comparison) and is paired as
/// "labelA -> labelB". When renaming leaves several unmatched kernels on
/// *each* side the pairing is ambiguous — guessing would attribute one
/// kernel's delta to another — so that is an error directing the caller
/// to --map. Leftovers with an empty opposite side (kernels genuinely
/// added or removed) stand alone.
bool pair_kernels(const std::vector<CapKernel>& ka,
                  const std::vector<CapKernel>& kb,
                  const ExplainOptions& options,
                  std::vector<KernelPair>& out, std::string* error) {
  std::map<std::string, const CapKernel*> by_label_a, by_label_b;
  for (const CapKernel& a : ka) by_label_a[a.label] = &a;
  for (const CapKernel& b : kb) by_label_b[b.label] = &b;

  std::set<std::string> matched_a, matched_b;
  for (const auto& [la, lb] : options.label_map) {
    const auto a = by_label_a.find(la);
    const auto b = by_label_b.find(lb);
    if (a == by_label_a.end() || b == by_label_b.end()) {
      *error = "--map " + la + "=" + lb + ": " +
               (a == by_label_a.end() ? "capsule A has no kernel '" + la + "'"
                                      : "capsule B has no kernel '" + lb +
                                            "'");
      return false;
    }
    out.push_back({la + " -> " + lb, a->second, b->second});
    matched_a.insert(la);
    matched_b.insert(lb);
  }

  std::vector<const CapKernel*> left_a, left_b;
  for (const CapKernel& a : ka) {
    if (matched_a.count(a.label) != 0) continue;
    if (const auto it = by_label_b.find(a.label);
        it != by_label_b.end() && matched_b.count(a.label) == 0) {
      out.push_back({a.label, &a, it->second});
      matched_b.insert(a.label);
    } else {
      left_a.push_back(&a);
    }
  }
  for (const CapKernel& b : kb) {
    if (matched_b.count(b.label) == 0) left_b.push_back(&b);
  }
  if (left_a.size() == 1 && left_b.size() == 1) {
    out.push_back(
        {left_a[0]->label + " -> " + left_b[0]->label, left_a[0], left_b[0]});
  } else if (!left_a.empty() && !left_b.empty()) {
    *error = "ambiguous kernel pairing: capsule A has unmatched " +
             label_listing(left_a) + " vs capsule B " + label_listing(left_b) +
             "; pair them explicitly with --map=labelA=labelB";
    return false;
  } else {
    for (const CapKernel* a : left_a) out.push_back({a->label, a, nullptr});
    for (const CapKernel* b : left_b) out.push_back({b->label, nullptr, b});
  }
  std::sort(out.begin(), out.end(),
            [](const KernelPair& x, const KernelPair& y) {
              return x.name < y.name;
            });
  return true;
}

void set_shares(ExplainNode& n, double total) {
  n.share = total != 0.0 ? n.delta / total : 0.0;
  for (ExplainNode& c : n.children) set_shares(c, total);
}

/// Pre-fold residue accounting: the sum of internal-node |residue| and the
/// worst single node, both against `denom` (|total delta| or 1).
void residue_stats(const ExplainNode& n, double denom, double& sum_abs,
                   double& max_share) {
  if (n.children.empty()) return;
  sum_abs += std::fabs(n.residue);
  max_share = std::max(max_share, std::fabs(n.residue) / denom);
  for (const ExplainNode& c : n.children) {
    residue_stats(c, denom, sum_abs, max_share);
  }
}

/// Fold a parent's below-threshold children (at least two — one row reads
/// fine on its own) into one aggregate leaf; sums are preserved, so the
/// residue accounting done before folding stays valid.
void fold_children(ExplainNode& n, double cut, double total) {
  for (ExplainNode& c : n.children) fold_children(c, cut, total);
  if (cut <= 0.0 || n.children.size() < 2) return;
  std::size_t candidates = 0;
  for (const ExplainNode& c : n.children) {
    if (std::fabs(c.delta) < cut) ++candidates;
  }
  if (candidates < 2) return;
  std::vector<ExplainNode> keep;
  ExplainNode agg;
  for (ExplainNode& c : n.children) {
    if (std::fabs(c.delta) < cut) {
      agg.cycles_a += c.cycles_a;
      agg.cycles_b += c.cycles_b;
      agg.delta += c.delta;
      agg.folded += c.folded > 0 ? c.folded : 1;
    } else {
      keep.push_back(std::move(c));
    }
  }
  agg.name = "(below threshold: " + std::to_string(agg.folded) + " rows)";
  agg.share = total != 0.0 ? agg.delta / total : 0.0;
  keep.push_back(std::move(agg));
  n.children = std::move(keep);
}

void render_node(const ExplainNode& n, int depth, std::string& out) {
  char buf[320];
  std::string name(static_cast<std::size_t>(depth) * 2, ' ');
  name += n.name;
  std::snprintf(buf, sizeof(buf), "%-48s %16.1f %16.1f %+14.1f %8.2f%%\n",
                name.c_str(), n.cycles_a, n.cycles_b, n.delta,
                100.0 * n.share);
  out += buf;
  if (!n.notes.empty()) {
    std::string notes(static_cast<std::size_t>(depth) * 2 + 2, ' ');
    notes += "~";
    for (const auto& [field, delta] : n.notes) {
      std::snprintf(buf, sizeof(buf), " %s %+.0f", field.c_str(), delta);
      notes += buf;
    }
    out += notes + "\n";
  }
  for (const ExplainNode& c : n.children) render_node(c, depth + 1, out);
  if (!n.children.empty() && n.residue != 0.0) {
    std::string rname(static_cast<std::size_t>(depth) * 2 + 2, ' ');
    rname += "(unattributed residue)";
    std::snprintf(buf, sizeof(buf), "%-48s %16s %16s %+14.1f\n", rname.c_str(),
                  "", "", n.residue);
    out += buf;
  }
}

std::string node_to_json(const ExplainNode& n) {
  util::JsonFields f;
  f.field("name", std::string_view(n.name))
      .field("cycles_a", n.cycles_a)
      .field("cycles_b", n.cycles_b)
      .field("delta", n.delta)
      .field("share", n.share)
      .field("residue", n.residue)
      .field("folded", static_cast<std::uint64_t>(n.folded));
  if (!n.notes.empty()) {
    util::JsonFields notes;
    for (const auto& [field, delta] : n.notes) notes.field(field, delta);
    f.raw("notes", notes.object());
  }
  if (!n.children.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      arr += (i != 0 ? ", " : "") + node_to_json(n.children[i]);
    }
    arr += "]";
    f.raw("children", arr);
  }
  return f.object();
}

ExplainReport explain_values(const obs::json::Value& capsule_a,
                             const obs::json::Value& capsule_b,
                             const ExplainOptions& options) {
  ExplainReport rep;
  rep.options = options;
  std::vector<CapKernel> ka, kb;
  if (!load_capsule(capsule_a, "A", ka, &rep.error, &rep.warnings))
    return rep;
  if (!load_capsule(capsule_b, "B", kb, &rep.error, &rep.warnings))
    return rep;

  ExplainNode root;
  root.name = "total";
  std::vector<KernelPair> pairs;
  if (!pair_kernels(ka, kb, options, pairs, &rep.error)) return rep;
  for (const KernelPair& p : pairs) {
    ExplainNode k = kernel_node(p.name, p.a, p.b);
    root.cycles_a += k.cycles_a;
    root.cycles_b += k.cycles_b;
    rep.rates.push_back({p.name, p.a != nullptr ? p.a->gcups : 0.0,
                         p.b != nullptr ? p.b->gcups : 0.0});
    root.children.push_back(std::move(k));
  }
  root.delta = root.cycles_b - root.cycles_a;
  root.residue = root.delta - child_delta_sum(root);  // 0 by construction
  rep.total_delta_cycles = root.delta;

  set_shares(root, root.delta);
  const double denom = root.delta != 0.0 ? std::fabs(root.delta) : 1.0;
  double residue_sum = 0.0;
  residue_stats(root, denom, residue_sum, rep.max_residue_share);
  rep.attributed_share = std::max(0.0, 1.0 - residue_sum / denom);
  rep.within_residue_bound = rep.max_residue_share <= options.max_residue;
  fold_children(root, options.threshold * std::fabs(root.delta), root.delta);

  rep.root = std::move(root);
  rep.ok = true;
  return rep;
}

}  // namespace

ExplainReport explain_capsules(std::string_view capsule_a,
                               std::string_view capsule_b,
                               const ExplainOptions& options) {
  obs::json::Value a, b;
  std::string perr;
  const char* bad = !obs::json::parse(capsule_a, a, &perr)   ? "A"
                    : !obs::json::parse(capsule_b, b, &perr) ? "B"
                                                             : nullptr;
  if (bad == nullptr) return explain_values(a, b, options);
  ExplainReport rep;
  rep.options = options;
  rep.error = std::string("capsule ") + bad + ": JSON parse error: " + perr;
  return rep;
}

std::string ExplainReport::to_ascii() const {
  std::ostringstream os;
  if (!ok) {
    os << "perf_explain: " << error << "\n";
    return os.str();
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "perf_explain: total simulated cycles %.1f -> %.1f "
                "(delta %+.1f)\n",
                root.cycles_a, root.cycles_b, total_delta_cycles);
  os << buf;
  for (const std::string& w : warnings) {
    os << "warning: " << w << "\n";
  }
  if (!rates.empty()) {
    os << "\nkernel GCUPS:\n";
    for (const KernelRate& r : rates) {
      std::snprintf(buf, sizeof(buf), "  %-46s %10.3f -> %10.3f (%+.1f%%)\n",
                    r.name.c_str(), r.gcups_a, r.gcups_b,
                    r.gcups_a > 0.0 ? 100.0 * (r.gcups_b - r.gcups_a) / r.gcups_a
                                    : 0.0);
      os << buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "\n%-48s %16s %16s %14s %9s\n", "node",
                "cycles A", "cycles B", "delta", "share");
  os << buf;
  std::string tree;
  render_node(root, 0, tree);
  os << tree;
  std::snprintf(buf, sizeof(buf),
                "\nattributed %.2f%% of |total delta|; max residue %.3f%% "
                "(bound %.2f%%) -> %s\n",
                100.0 * attributed_share, 100.0 * max_residue_share,
                100.0 * options.max_residue,
                within_residue_bound ? "OK" : "FAIL");
  os << buf;
  return os.str();
}

std::string ExplainReport::to_json() const {
  util::JsonFields f;
  f.field("tool", std::string_view("perf_explain")).field("ok", ok);
  if (!ok) {
    f.field("error", std::string_view(error));
    return f.object();
  }
  f.field("total_delta_cycles", total_delta_cycles)
      .field("attributed_share", attributed_share)
      .field("max_residue_share", max_residue_share)
      .field("within_residue_bound", within_residue_bound)
      .field("threshold", options.threshold)
      .field("max_residue", options.max_residue);
  if (!warnings.empty()) {
    std::string warr = "[";
    for (std::size_t i = 0; i < warnings.size(); ++i) {
      warr += (i != 0 ? ", \"" : "\"") + util::json_escape(warnings[i]) + "\"";
    }
    warr += "]";
    f.raw("warnings", warr);
  }
  std::string arr = "[";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    util::JsonFields r;
    r.field("name", std::string_view(rates[i].name))
        .field("gcups_a", rates[i].gcups_a)
        .field("gcups_b", rates[i].gcups_b);
    arr += (i != 0 ? ", " : "") + r.object();
  }
  arr += "]";
  f.raw("rates", arr);
  f.raw("tree", node_to_json(root));
  return f.object();
}

namespace {

/// Simulated sampling interval of the canonical capsules: fine enough for
/// a multi-point series on the one-SM Table I slice, coarse enough to stay
/// far from the ring bound.
constexpr double kCanonicalSampleEveryMs = 1.0;

std::string canonical_capsule(bool improved, std::size_t db_sequences) {
  const CanonicalWorkload w = canonical_workload(db_sequences);

  obs::Sampler& sampler = obs::Sampler::global();
  const double prev_every = sampler.every_ms();
  const std::size_t prev_capacity = sampler.capacity();
  sampler.configure(kCanonicalSampleEveryMs);
  sampler.clear();
  obs::capsule_clear_sections();

  const obs::Snapshot before = obs::Registry::global().snapshot();
  gpusim::Device dev(w.spec);
  if (improved) {
    cudasw::run_intra_task_improved(dev, w.query, w.longs, *w.matrix, w.gap,
                                    {});
  } else {
    cudasw::run_intra_task_original(dev, w.query, w.longs, *w.matrix, w.gap,
                                    {});
  }
  const std::string capsule = obs::capsule_to_json(
      obs::Registry::global().snapshot().diff(before),
      improved ? "table1.intra_task_improved" : "table1.intra_task_original");

  if (prev_every > 0.0) {
    sampler.configure(prev_every, prev_capacity);
    sampler.clear();
  } else {
    sampler.disable();
  }
  return capsule;
}

}  // namespace

CanonicalWorkload canonical_workload(std::size_t db_sequences) {
  CanonicalWorkload w;
  // One-SM slice of the C1060 on the Table I over-threshold subset.
  w.spec = gpusim::DeviceSpec::tesla_c1060();
  w.spec = w.spec.scaled(1.0 / w.spec.sm_count);
  Rng rng(567);
  w.query = seq::random_protein(567, rng).residues;
  const auto db =
      seq::DatabaseProfile::swissprot().synthesize(db_sequences, 0xAB1E);
  w.longs = db.split_by_threshold(3072).second;
  w.matrix = &sw::ScoringMatrix::blosum62();
  return w;
}

std::string canonical_capsule_original(std::size_t db_sequences) {
  return canonical_capsule(false, db_sequences);
}
std::string canonical_capsule_improved(std::size_t db_sequences) {
  return canonical_capsule(true, db_sequences);
}

namespace {

/// One slice of the baseline set: the kernels `run` launches, captured as
/// a registry diff into a capsule that keeps only the kernel tree (the
/// provenance, registry dump and series differ between hosts and runs).
void add_slice(std::string& doc, const char* name,
               const std::function<void()>& run) {
  const obs::Snapshot before = obs::Registry::global().snapshot();
  run();
  util::JsonFields capsule;
  capsule.field("capsule_version", obs::kCapsuleVersion)
      .field("run", std::string_view(name))
      .raw("provenance", "{}")
      .raw("kernels", obs::capsule_kernels_to_json(
                          obs::Registry::global().snapshot().diff(before)));
  doc += (doc.size() > 1 ? ",\n  \"" : "\n  \"") + std::string(name) +
         "\": " + capsule.object();
}

bool names_row(const std::string& member) {
  return member == "label" || member == "site" || member == "space";
}

/// Flatten a capsule's kernel tree into dotted keys. Array rows are keyed
/// by their kernel label or (site, space) so a kernel or site row present
/// on only one side shows up as keys present on only one side.
void flatten(const obs::json::Value& v, const std::string& key,
             std::map<std::string, const obs::json::Value*>& out) {
  if (v.kind == obs::json::Value::Kind::kObject) {
    for (const auto& [k, child] : v.object) {
      if (!names_row(k)) flatten(child, key + "." + k, out);
    }
  } else if (v.kind == obs::json::Value::Kind::kArray) {
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      const obs::json::Value& row = v.array[i];
      const obs::json::Value* label = row.find("label");
      const obs::json::Value* site = row.find("site");
      const obs::json::Value* space = row.find("space");
      std::string name = std::to_string(i);
      if (label != nullptr) {
        name = label->string;
      } else if (site != nullptr && space != nullptr) {
        name = site->string + "." + space->string;
      }
      flatten(row, key + "." + name, out);
    }
  } else {
    out[key] = &v;
  }
}

bool same_leaf(const obs::json::Value& a, const obs::json::Value& b) {
  return a.kind == b.kind && a.number == b.number && a.string == b.string &&
         a.boolean == b.boolean;
}

std::string leaf_text(const obs::json::Value* v) {
  if (v == nullptr) return "(absent)";
  if (v->kind == obs::json::Value::Kind::kString) return "\"" + v->string + "\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v->number);
  return v->kind == obs::json::Value::Kind::kNumber ? buf : "(non-number)";
}

}  // namespace

std::string canonical_baseline(const gpusim::CostModel& cost) {
  const CanonicalWorkload w = canonical_workload();
  const auto intra_pair = [&](const std::vector<seq::Code>& query) {
    gpusim::Device orig(w.spec, cost), impr(w.spec, cost);
    cudasw::run_intra_task_original(orig, query, w.longs, *w.matrix, w.gap,
                                    {});
    cudasw::run_intra_task_improved(impr, query, w.longs, *w.matrix, w.gap,
                                    {});
  };
  std::string doc = "{";
  // Table I: the canonical 567-residue query, and a 1500-residue one.
  add_slice(doc, "table1_q567", [&] { intra_pair(w.query); });
  Rng rng(1500);
  const auto q1500 = seq::random_protein(1500, rng).residues;
  add_slice(doc, "table1_q1500", [&] { intra_pair(q1500); });
  // Fig. 2: both inter-task kernels on a high-variance log-normal database
  // (stddev 1500, the paper's worst case for the SIMT kernel).
  auto db = seq::lognormal_db(256, 4000.0, 1500.0, 0xF162, 32, 40000);
  db.sort_by_length();
  add_slice(doc, "fig2", [&] {
    gpusim::Device simt(w.spec, cost), simd(w.spec, cost);
    cudasw::run_inter_task(simt, w.query, db, *w.matrix, w.gap, {});
    cudasw::run_inter_task_simd(simd, w.query, db, *w.matrix, w.gap, {});
  });
  return doc + "\n}\n";
}

BaselineCheck check_baseline(std::string_view baseline,
                             std::string_view current) {
  BaselineCheck out;
  obs::json::Value base, cur;
  std::string perr;
  if (!obs::json::parse(baseline, base, &perr) ||
      base.kind != obs::json::Value::Kind::kObject) {
    out.error = perr.empty() ? "top level is not an object" : perr;
    return out;
  }
  if (!obs::json::parse(current, cur, &perr)) {
    out.error = "current set: " + perr;
    return out;
  }
  for (const auto& [name, capsule] : base.object) {
    const obs::CapsuleCheck check = obs::validate_capsule(capsule);
    if (!check.ok) {
      out.error = "slice " + name + ": " + check.error;
      return out;
    }
  }

  std::set<std::string> slices;
  for (const auto& [name, capsule] : base.object) slices.insert(name);
  for (const auto& [name, capsule] : cur.object) slices.insert(name);
  std::string explained;
  for (const std::string& name : slices) {
    const obs::json::Value* b = base.find(name);
    const obs::json::Value* c = cur.find(name);
    if (b == nullptr || c == nullptr) {
      out.mismatches.push_back(name + ": slice only in the " +
                               (b == nullptr ? "current set" : "baseline"));
      continue;
    }
    std::map<std::string, const obs::json::Value*> fb, fc;
    if (const obs::json::Value* k = b->find("kernels")) flatten(*k, name, fb);
    if (const obs::json::Value* k = c->find("kernels")) flatten(*k, name, fc);
    std::map<std::string, std::pair<const obs::json::Value*,
                                    const obs::json::Value*>> leaves;
    for (const auto& [key, v] : fb) leaves[key].first = v;
    for (const auto& [key, v] : fc) leaves[key].second = v;
    const std::size_t before = out.mismatches.size();
    for (const auto& [key, bc] : leaves) {
      const auto [vb, vc] = bc;
      ++out.compared;
      if (vb != nullptr && vc != nullptr && same_leaf(*vb, *vc)) continue;
      out.mismatches.push_back(key + ": baseline " + leaf_text(vb) +
                               ", current " + leaf_text(vc));
    }
    if (out.mismatches.size() != before) {
      explained += "\n" + name + " (A = baseline, B = current):\n" +
                   explain_values(*b, *c, {}).to_ascii();
    }
  }

  char head[160];
  std::snprintf(head, sizeof(head),
                "perf_explain: %zu of %zu baseline keys differ in %zu "
                "slice(s)\n",
                out.mismatches.size(), out.compared, slices.size());
  out.report = head;
  for (const std::string& m : out.mismatches) out.report += "  " + m + "\n";
  out.report += explained;
  return out;
}

}  // namespace cusw::tools
