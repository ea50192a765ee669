// tools/perf_explain_lib.h: differential capsule attribution. A capsule
// explained against itself is a zero delta; a perturbed stall row is
// attributed exactly to its leaf (and nothing else); a charged total that
// disagrees with its reasons trips the residue bound; site perturbations
// land on the (site, space) row; lone unmatched kernels pair as
// "labelA -> labelB"; and the canonical Table I orig-vs-improved pair
// explains with >= 99% of the cycle delta attributed. The baseline gate
// matches the checked-in canonical capsules exactly and fails, naming the
// key and explaining the slice, on any moved count, one-sided kernel or
// site row, or cost-model change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

#include "gpusim/cost_model.h"
#include "obs/capsule.h"
#include "obs/trace_check.h"
#include "tools/perf_explain_lib.h"

namespace cusw::tools {
namespace {

/// A minimal handmade capsule with one kernel: `compute` + `mem_issue`
/// stall ticks (everything else zero), two global site rows whose
/// stall_ticks must sum to mem_issue for a residue-free tree.
std::string handmade(std::uint64_t compute, std::uint64_t mem_issue,
                     std::uint64_t charged, std::uint64_t s1_ticks,
                     std::uint64_t s2_ticks, const char* label = "k",
                     double gcups = 1.0) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      " \"capsule_version\": 1,\n"
      " \"run\": \"test\",\n"
      " \"provenance\": {\"git_sha\": \"test\", \"threads\": 1,"
      " \"memo\": \"on\", \"sample_every_ms\": 0},\n"
      " \"kernels\": [{\n"
      "  \"label\": \"%s\", \"launches\": 1, \"cells\": 1000,"
      "  \"seconds\": 0.001, \"gcups\": %.12g,\n"
      "  \"stall_ticks\": {\"bank_conflict\": 0, \"charged\": %llu,"
      " \"compute\": %llu, \"exposed_latency\": 0, \"mem_issue\": %llu,"
      " \"occupancy_idle\": 0, \"sync\": 0, \"txn_issue\": 0},\n"
      "  \"spaces\": {},\n"
      "  \"sites\": [\n"
      "   {\"site\": \"s1\", \"space\": \"global\","
      " \"counters\": {\"stall_ticks\": %llu, \"transactions\": 7}},\n"
      "   {\"site\": \"s2\", \"space\": \"global\","
      " \"counters\": {\"stall_ticks\": %llu}}\n"
      "  ]\n"
      " }]\n"
      "}\n",
      label, gcups, static_cast<unsigned long long>(charged),
      static_cast<unsigned long long>(compute),
      static_cast<unsigned long long>(mem_issue),
      static_cast<unsigned long long>(s1_ticks),
      static_cast<unsigned long long>(s2_ticks));
  return buf;
}

// 1000 cycles of compute + 2 cycles of memory, split evenly over the two
// site rows (ticks are 1024ths of a cycle, gpusim/stall.h).
constexpr std::uint64_t kCompute = 1024 * 1000;
constexpr std::uint64_t kMem = 2048;
constexpr std::uint64_t kCharged = kCompute + kMem;

const ExplainNode* find_child(const ExplainNode& n, const std::string& name) {
  for (const ExplainNode& c : n.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(PerfExplain, CapsuleAgainstItselfIsZeroDelta) {
  const std::string a = handmade(kCompute, kMem, kCharged, 1024, 1024);
  const ExplainReport rep = explain_capsules(a, a);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.total_delta_cycles, 0.0);
  EXPECT_EQ(rep.max_residue_share, 0.0);
  EXPECT_EQ(rep.attributed_share, 1.0);
  EXPECT_TRUE(rep.within_residue_bound);
  ASSERT_EQ(rep.root.children.size(), 1u);
  EXPECT_EQ(rep.root.children[0].name, "k");
  EXPECT_EQ(rep.root.children[0].delta, 0.0);
  ASSERT_EQ(rep.rates.size(), 1u);
  EXPECT_EQ(rep.rates[0].gcups_a, rep.rates[0].gcups_b);
}

TEST(PerfExplain, PerturbedStallRowIsAttributedExactlyToItsLeaf) {
  // B spends 10 extra cycles of compute; charged grows to match.
  const std::uint64_t extra = 10 * 1024;
  const std::string a = handmade(kCompute, kMem, kCharged, 1024, 1024);
  const std::string b =
      handmade(kCompute + extra, kMem, kCharged + extra, 1024, 1024);
  const ExplainReport rep = explain_capsules(a, b);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.total_delta_cycles, 10.0);
  EXPECT_EQ(rep.max_residue_share, 0.0);
  EXPECT_EQ(rep.attributed_share, 1.0);
  EXPECT_TRUE(rep.within_residue_bound);

  ASSERT_EQ(rep.root.children.size(), 1u);
  const ExplainNode& kernel = rep.root.children[0];
  EXPECT_EQ(kernel.delta, 10.0);
  EXPECT_EQ(kernel.residue, 0.0);
  const ExplainNode* compute = find_child(kernel, "compute");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->delta, 10.0);
  EXPECT_EQ(compute->share, 1.0);
  // The zero-delta rows (sync, bank_conflict, occupancy_idle, memory)
  // fold into one below-threshold aggregate.
  bool found_fold = false;
  for (const ExplainNode& c : kernel.children) {
    if (c.folded > 0) {
      found_fold = true;
      EXPECT_EQ(c.delta, 0.0);
      EXPECT_NE(c.name.find("below threshold"), std::string::npos) << c.name;
    } else {
      EXPECT_EQ(c.name, "compute");
    }
  }
  EXPECT_TRUE(found_fold);
}

TEST(PerfExplain, ChargedReasonMismatchTripsTheResidueBound) {
  // B claims 10 more charged cycles without any reason carrying them.
  const std::uint64_t extra = 10 * 1024;
  const std::string a = handmade(kCompute, kMem, kCharged, 1024, 1024);
  const std::string b = handmade(kCompute, kMem, kCharged + extra, 1024, 1024);
  const ExplainReport rep = explain_capsules(a, b);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.total_delta_cycles, 10.0);
  EXPECT_EQ(rep.max_residue_share, 1.0);
  EXPECT_EQ(rep.attributed_share, 0.0);
  EXPECT_FALSE(rep.within_residue_bound);
  EXPECT_NE(rep.to_ascii().find("FAIL"), std::string::npos);
}

TEST(PerfExplain, SitePerturbationLandsOnTheSiteRow) {
  // B's s1 row absorbs 10 extra memory cycles; mem_issue and charged grow
  // to match, so the delta threads total -> kernel -> memory -> s1.
  const std::uint64_t extra = 10 * 1024;
  const std::string a = handmade(kCompute, kMem, kCharged, 1024, 1024);
  const std::string b = handmade(kCompute, kMem + extra, kCharged + extra,
                                 1024 + extra, 1024);
  const ExplainReport rep = explain_capsules(a, b);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.total_delta_cycles, 10.0);
  EXPECT_EQ(rep.max_residue_share, 0.0);
  EXPECT_TRUE(rep.within_residue_bound);

  ASSERT_EQ(rep.root.children.size(), 1u);
  const ExplainNode* memory = find_child(rep.root.children[0], "memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->delta, 10.0);
  EXPECT_EQ(memory->residue, 0.0);
  const ExplainNode* s1 = find_child(*memory, "s1 (global)");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->delta, 10.0);
  EXPECT_EQ(s1->share, 1.0);
  ASSERT_FALSE(s1->notes.empty());
  EXPECT_EQ(s1->notes[0].first, "transactions");
  const ExplainNode* s2 = find_child(*memory, "s2 (global)");
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->delta, 0.0);
}

TEST(PerfExplain, LoneUnmatchedKernelsPairAsRename) {
  const std::uint64_t extra = 100 * 1024;
  const std::string a =
      handmade(kCompute, kMem, kCharged, 1024, 1024, "orig", 1.0);
  const std::string b = handmade(kCompute - extra, kMem, kCharged - extra,
                                 1024, 1024, "impr", 2.0);
  const ExplainReport rep = explain_capsules(a, b);
  ASSERT_TRUE(rep.ok) << rep.error;
  ASSERT_EQ(rep.root.children.size(), 1u);
  EXPECT_EQ(rep.root.children[0].name, "orig -> impr");
  EXPECT_EQ(rep.total_delta_cycles, -100.0);
  ASSERT_EQ(rep.rates.size(), 1u);
  EXPECT_EQ(rep.rates[0].name, "orig -> impr");
  EXPECT_EQ(rep.rates[0].gcups_a, 1.0);
  EXPECT_EQ(rep.rates[0].gcups_b, 2.0);
}

TEST(PerfExplain, ReportJsonParses) {
  const std::uint64_t extra = 10 * 1024;
  const std::string a = handmade(kCompute, kMem, kCharged, 1024, 1024);
  const std::string b =
      handmade(kCompute + extra, kMem, kCharged + extra, 1024, 1024);
  const ExplainReport rep = explain_capsules(a, b);
  ASSERT_TRUE(rep.ok) << rep.error;
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(rep.to_json(), doc, &error)) << error;
  EXPECT_TRUE(doc.find("within_residue_bound")->boolean);
  EXPECT_EQ(doc.find("total_delta_cycles")->number, 10.0);
  const obs::json::Value* tree = doc.find("tree");
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->find("name")->string, "total");
  ASSERT_NE(tree->find("children"), nullptr);
  EXPECT_EQ(tree->find("children")->array.size(), 1u);
}

TEST(PerfExplain, InvalidCapsuleReportsError) {
  const ExplainReport rep =
      explain_capsules("{\"not\": \"a capsule\"}",
                       handmade(kCompute, kMem, kCharged, 1024, 1024));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("capsule A"), std::string::npos) << rep.error;
}

TEST(PerfExplain, CanonicalTableOnePairExplainsWithinBound) {
  const std::string orig = canonical_capsule_original();
  const std::string impr = canonical_capsule_improved();
  ASSERT_TRUE(obs::validate_capsule(orig).ok)
      << obs::validate_capsule(orig).error;
  ASSERT_TRUE(obs::validate_capsule(impr).ok)
      << obs::validate_capsule(impr).error;

  // Against itself: exact zero.
  const ExplainReport self = explain_capsules(orig, orig);
  ASSERT_TRUE(self.ok) << self.error;
  EXPECT_EQ(self.total_delta_cycles, 0.0);
  EXPECT_EQ(self.max_residue_share, 0.0);

  // Original vs improved: the paper's speedup, >= 99% attributed.
  const ExplainReport rep = explain_capsules(orig, impr);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_LT(rep.total_delta_cycles, 0.0);  // improved spends fewer cycles
  EXPECT_TRUE(rep.within_residue_bound) << rep.to_ascii();
  EXPECT_GE(rep.attributed_share, 0.99);
  ASSERT_EQ(rep.rates.size(), 1u);
  EXPECT_EQ(rep.rates[0].name, "intra_task_original -> intra_task_improved");
  EXPECT_GT(rep.rates[0].gcups_b, rep.rates[0].gcups_a);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// This build's canonical baseline set, built once for the suite.
const std::string& current_set() {
  static const std::string set = canonical_baseline();
  return set;
}

std::string one_slice(const std::string& capsule) {
  return "{\"s\": " + capsule + "}";
}

bool mentions(const BaselineCheck& check, const std::string& text) {
  for (const std::string& m : check.mismatches) {
    if (m.find(text) != std::string::npos) return true;
  }
  return false;
}

/// The checked-in file's slices `names` against this build's, each side
/// cut to a set of its own. Slices are capsules: no braces in strings.
BaselineCheck check_slices(std::initializer_list<const char*> names) {
  const auto pick = [&](const std::string& set) {
    std::string out;
    for (const char* name : names) {
      const std::size_t at = set.find(std::string("\"") + name + "\": {");
      if (at == std::string::npos) continue;
      std::size_t end = set.find('{', at);
      for (int depth = 0; end < set.size(); ++end) {
        depth += (set[end] == '{') - (set[end] == '}');
        if (depth == 0) break;
      }
      out += (out.empty() ? "{" : ", ") + set.substr(at, end + 1 - at);
    }
    return out + "}";  // "}" alone when no slice is found: an error
  };
  return check_baseline(pick(read_file(CUSW_BASELINE_FILE)),
                        pick(current_set()));
}

// The CounterDiff and PerfDiff cases carry over the two gates this one
// replaced: counter_diff held the memory counters of Table I at query 567,
// perf_diff the cycles, windows and GCUPS of Table I at 1500 and Fig. 2.

TEST(CounterDiff, CanonicalWorkloadMatchesCheckedInBaseline) {
  const BaselineCheck check = check_slices({"table1_q567"});
  ASSERT_TRUE(check.error.empty()) << check.error;
  EXPECT_TRUE(check.mismatches.empty()) << check.report;
  EXPECT_GT(check.compared, 100u);
}

TEST(PerfDiff, CanonicalWorkloadMatchesCheckedInBaseline) {
  const BaselineCheck check = check_slices({"table1_q1500", "fig2"});
  ASSERT_TRUE(check.error.empty()) << check.error;
  EXPECT_TRUE(check.mismatches.empty()) << check.report;
  EXPECT_GT(check.compared, 100u);
}

TEST(CounterDiff, BaselineJsonRoundTrips) {
  // What --update writes reads back as a baseline that matches itself.
  const BaselineCheck check = check_baseline(current_set(), current_set());
  ASSERT_TRUE(check.error.empty()) << check.error;
  EXPECT_TRUE(check.mismatches.empty()) << check.report;
  EXPECT_GT(check.compared, 400u);
}

TEST(PerfDiff, WorkloadRoundTripsThroughBaselineJson) {
  // The checked-in file is --update's output for this tree byte for byte,
  // so rewriting it without a behaviour change leaves it untouched.
  EXPECT_EQ(read_file(CUSW_BASELINE_FILE), current_set());
}

TEST(CounterDiff, PerturbedBaselineFails) {
  // Pretend the improved kernel used to issue 30% fewer global
  // transactions at the canonical query.
  std::string base = read_file(CUSW_BASELINE_FILE);
  const std::size_t slice = base.find("\"table1_q567\"");
  const std::size_t kernel =
      base.find("\"label\": \"intra_task_improved\"", slice);
  const std::string field = "\"transactions\": ";
  const std::size_t at =
      base.find(field, base.find("\"global\": {", kernel)) + field.size();
  ASSERT_NE(slice, std::string::npos);
  ASSERT_NE(kernel, std::string::npos);
  const std::size_t end = base.find_first_of(",}", at);
  const std::uint64_t txns = std::stoull(base.substr(at, end - at));
  base.replace(at, end - at, std::to_string(txns * 7 / 10));

  const BaselineCheck check = check_baseline(base, current_set());
  ASSERT_TRUE(check.error.empty()) << check.error;
  ASSERT_EQ(check.mismatches.size(), 1u) << check.report;
  EXPECT_TRUE(
      mentions(check, "table1_q567.intra_task_improved.spaces.global."
                      "transactions"))
      << check.report;
  // The report goes on to attribute the slice down the kernel tree.
  EXPECT_NE(check.report.find("table1_q567 (A = baseline, B = current)"),
            std::string::npos)
      << check.report;
  EXPECT_NE(check.report.find("db.symbol_load (global)"), std::string::npos)
      << check.report;
}

TEST(PerfExplainBaseline, KernelOrSiteOnOnlyOneSideFails) {
  const std::string cap = handmade(kCompute, kMem, kCharged, 1024, 1024);
  EXPECT_TRUE(check_baseline(one_slice(cap), one_slice(cap)).mismatches.empty());

  // A kernel that only one side ran.
  const std::string renamed =
      handmade(kCompute, kMem, kCharged, 1024, 1024, "j");
  BaselineCheck check = check_baseline(one_slice(cap), one_slice(renamed));
  EXPECT_TRUE(mentions(check, "s.k.stall_ticks.charged: baseline"));
  EXPECT_TRUE(mentions(check, "s.j.stall_ticks.charged: baseline (absent)"));

  // A site row that only one side has.
  std::string moved = cap;
  moved.replace(moved.find("\"s2\""), 4, "\"s3\"");
  check = check_baseline(one_slice(cap), one_slice(moved));
  EXPECT_TRUE(mentions(check, "s.k.sites.s2.global.counters.stall_ticks"));
  EXPECT_TRUE(mentions(check, "s.k.sites.s3.global.counters.stall_ticks"));
  EXPECT_NE(check.report.find("s3 (global)"), std::string::npos)
      << check.report;

  // A slice that only one side has.
  check = check_baseline(one_slice(cap),
                         "{\"s\": " + cap + ", \"t\": " + cap + "}");
  EXPECT_TRUE(mentions(check, "t: slice only in the current set"));
}

TEST(PerfDiff, PerturbedCostModelTripsTheGate) {
  // One extra cycle per memory transaction: the transaction-heavy original
  // kernel's charged ticks must move.
  gpusim::CostModel cost;
  cost.txn_issue_cycles += 1.0;
  const BaselineCheck check =
      check_baseline(read_file(CUSW_BASELINE_FILE), canonical_baseline(cost));
  ASSERT_TRUE(check.error.empty()) << check.error;
  EXPECT_TRUE(
      mentions(check, "table1_q567.intra_task_original.stall_ticks.charged"))
      << check.report;
}

TEST(PerfExplainBaseline, UnreadableBaselineIsAnError) {
  const std::string cur =
      one_slice(handmade(kCompute, kMem, kCharged, 1024, 1024));
  EXPECT_FALSE(check_baseline("not json", cur).error.empty());
  EXPECT_FALSE(check_baseline("[1, 2]", cur).error.empty());
  // A slice that is not a capsule.
  EXPECT_FALSE(check_baseline("{\"s\": {\"kernels\": []}}", cur).error.empty());
}

}  // namespace
}  // namespace cusw::tools
