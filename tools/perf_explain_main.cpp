// perf_explain CLI: attribute the simulated-cycle delta between two run
// capsules (see tools/perf_explain_lib.h).
//
//   perf_explain A.json B.json [--threshold=F] [--max-residue=F]
//                [--json=PATH]
//   perf_explain --emit-canonical=DIR   write the canonical Table I
//                capsule pair to DIR and explain improved-vs-original
//   perf_explain --canonical-check      same pair, in memory (the
//                `perf_explain_canonical` ctest)
//   perf_explain --baseline=FILE [--update]
//                the baseline gate (the `perf_baseline` ctest):
//                rebuild the canonical baseline set and compare it
//                exactly against FILE; --update rewrites FILE instead
//
// Exit status is 0 only when both capsules parse/validate and every
// internal node's unattributed residue stays within --max-residue of the
// total delta. The baseline gate exits 1 on any differing key and 2 when
// FILE cannot be read or parsed.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/capsule.h"
#include "tools/perf_explain_lib.h"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

bool flag_value(const std::string& arg, const char* name, std::string& out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: perf_explain A.json B.json [--threshold=F] [--max-residue=F]"
      " [--map=labelA=labelB]... [--json=PATH]\n"
      "       perf_explain --emit-canonical=DIR [--json=PATH]\n"
      "       perf_explain --canonical-check [--json=PATH]\n"
      "       perf_explain --baseline=FILE [--update]\n");
  return 2;
}

int baseline_gate(const std::string& path, bool update) {
  std::string text;
  if (!update && !read_file(path, text)) {
    std::fprintf(stderr, "perf_explain: cannot read %s\n", path.c_str());
    return 2;
  }
  std::printf("perf_explain: building the canonical baseline set...\n");
  const std::string current = cusw::tools::canonical_baseline();
  if (update) {
    if (!write_file(path, current)) {
      std::fprintf(stderr, "perf_explain: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }
  const cusw::tools::BaselineCheck check =
      cusw::tools::check_baseline(text, current);
  if (!check.error.empty()) {
    std::fprintf(stderr, "perf_explain: %s: %s\n", path.c_str(),
                 check.error.c_str());
    return 2;
  }
  std::printf("%s", check.report.c_str());
  if (!check.mismatches.empty()) {
    std::printf("intentional? rerun with --baseline=%s --update and commit\n",
                path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cusw::tools::ExplainOptions opts;
  std::string json_path, emit_dir, baseline, value;
  bool canonical_check = false, update = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flag_value(arg, "threshold", value)) {
      opts.threshold = std::atof(value.c_str());
    } else if (flag_value(arg, "max-residue", value)) {
      opts.max_residue = std::atof(value.c_str());
    } else if (flag_value(arg, "map", value)) {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        std::fprintf(stderr,
                     "perf_explain: --map wants labelA=labelB, got '%s'\n",
                     value.c_str());
        return 2;
      }
      opts.label_map.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (flag_value(arg, "json", value)) {
      json_path = value;
    } else if (flag_value(arg, "emit-canonical", value)) {
      emit_dir = value;
    } else if (flag_value(arg, "baseline", value)) {
      baseline = value;
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--canonical-check") {
      canonical_check = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  if (!baseline.empty()) {
    if (!paths.empty() || canonical_check || !emit_dir.empty()) return usage();
    return baseline_gate(baseline, update);
  }
  if (update) return usage();

  std::string a, b;
  if (canonical_check || !emit_dir.empty()) {
    if (!paths.empty()) return usage();
    std::printf("perf_explain: building canonical Table I capsules...\n");
    a = cusw::tools::canonical_capsule_original();
    b = cusw::tools::canonical_capsule_improved();
    for (const auto& [name, text] :
         {std::pair<const char*, const std::string&>("original", a),
          std::pair<const char*, const std::string&>("improved", b)}) {
      const cusw::obs::CapsuleCheck check = cusw::obs::validate_capsule(text);
      if (!check.ok) {
        std::fprintf(stderr, "perf_explain: canonical %s capsule invalid: %s\n",
                     name, check.error.c_str());
        return 1;
      }
      std::printf(
          "  canonical %s capsule: %zu kernel(s), %zu series, %zu points\n",
          name, check.kernels, check.series, check.points);
    }
    if (!emit_dir.empty()) {
      for (const auto& [file, text] :
           {std::pair<const char*, const std::string&>(
                "capsule_table1_original.json", a),
            std::pair<const char*, const std::string&>(
                "capsule_table1_improved.json", b)}) {
        const std::string path = emit_dir + "/" + file;
        if (!write_file(path, text)) {
          std::fprintf(stderr, "perf_explain: cannot write %s\n",
                       path.c_str());
          return 1;
        }
        std::printf("wrote %s\n", path.c_str());
      }
    }
  } else {
    if (paths.size() != 2) return usage();
    if (!read_file(paths[0], a)) {
      std::fprintf(stderr, "perf_explain: cannot read %s\n", paths[0].c_str());
      return 1;
    }
    if (!read_file(paths[1], b)) {
      std::fprintf(stderr, "perf_explain: cannot read %s\n", paths[1].c_str());
      return 1;
    }
  }

  const cusw::tools::ExplainReport report =
      cusw::tools::explain_capsules(a, b, opts);
  std::printf("%s", report.to_ascii().c_str());
  if (!json_path.empty()) {
    if (!write_file(json_path, report.to_json() + "\n")) {
      std::fprintf(stderr, "perf_explain: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return report.ok && report.within_residue_bound ? 0 : 1;
}
