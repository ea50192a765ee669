// Causal what-if plans (obs/whatif.h, DESIGN.md §14): plan parsing and
// precedence, the byte-exactness contract (factor 1.0 is a no-op, scores
// never change, Σ reasons == charged at every factor, removed ticks
// reconcile exactly), provenance stamping, and bit-identical results
// across CUSW_THREADS and memo on/off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "cudasw/intra_task_original.h"
#include "gpusim/device_spec.h"
#include "gpusim/launch.h"
#include "gpusim/stall.h"
#include "obs/capsule.h"
#include "obs/metrics.h"
#include "obs/whatif.h"
#include "tools/perf_explain_lib.h"

namespace cusw {
namespace {

namespace whatif = obs::whatif;

/// Scoped environment override that restores the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_prev_)
      setenv(name_.c_str(), prev_.c_str(), 1);
    else
      unsetenv(name_.c_str());
  }

 private:
  std::string name_;
  bool had_prev_ = false;
  std::string prev_;
};

/// Clears the programmatic plan on scope exit, whatever the test did.
struct PlanGuard {
  ~PlanGuard() { whatif::clear_plan(); }
};

/// One fresh-device run of the canonical workload, shrunk for tests.
cudasw::KernelRun run_workload() {
  static const tools::CanonicalWorkload& w =
      *new tools::CanonicalWorkload(tools::canonical_workload(400));
  gpusim::Device dev(w.spec);
  return cudasw::run_intra_task_original(dev, w.query, w.longs, *w.matrix,
                                         w.gap, {});
}

std::vector<std::uint64_t> stall_vector(const gpusim::StallBreakdown& b) {
  std::vector<std::uint64_t> v;
  gpusim::for_each_stall_reason(
      b, [&](const char*, std::uint64_t x) { v.push_back(x); });
  return v;
}

std::uint64_t reason_sum(const gpusim::StallBreakdown& b) {
  std::uint64_t sum = 0;
  gpusim::for_each_stall_reason(
      b, [&](const char*, std::uint64_t x) { sum += x; });
  return sum;
}

std::uint64_t site_tick_sum(const gpusim::LaunchStats& s) {
  std::uint64_t sum = 0;
  for (const gpusim::SiteCounters& sc : s.sites) sum += sc.counters.stall_ticks;
  return sum;
}

TEST(WhatIfPlan, ParsesEveryTargetKind) {
  const whatif::Plan plan = whatif::parse_plan(
      "site:wavefront.load@global*0.5,site:x*0,stall:sync*2,"
      "kernel:intra_task_original*0.25,param:dram_latency*0.75");
  ASSERT_EQ(plan.targets.size(), 5u);
  EXPECT_EQ(plan.targets[0].kind, whatif::Target::Kind::kSite);
  EXPECT_EQ(plan.targets[0].name, "wavefront.load");
  EXPECT_EQ(plan.targets[0].space, "global");
  EXPECT_EQ(plan.targets[0].factor, 0.5);
  EXPECT_EQ(plan.targets[1].space, "");  // any space
  EXPECT_EQ(plan.targets[2].kind, whatif::Target::Kind::kStall);
  EXPECT_EQ(plan.targets[3].kind, whatif::Target::Kind::kKernel);
  EXPECT_EQ(plan.targets[4].kind, whatif::Target::Kind::kParam);
  // The canonical spec round-trips.
  EXPECT_EQ(whatif::parse_plan(plan.spec).spec, plan.spec);
}

TEST(WhatIfPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(whatif::parse_plan("site:x"), std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("site:x*"), std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("site:x*-1"), std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("bogus:x*1"), std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("nocolon*1"), std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("stall:naptime*1"), std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("site:x@shared*1"), std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("param:warp_size*1"),
               std::invalid_argument);
  EXPECT_THROW(whatif::parse_plan("site:*1"), std::invalid_argument);
  EXPECT_TRUE(whatif::parse_plan("").empty());
  EXPECT_TRUE(whatif::parse_plan(",,").empty());
}

TEST(WhatIfPlan, RejectsNonFiniteFactors) {
  // strtod reads these; a NaN factor used to run as if it were 0.
  for (const char* spec : {"stall:compute*nan", "stall:compute*inf",
                           "site:x*-nan", "kernel:k*1e999"}) {
    EXPECT_THROW(whatif::parse_plan(spec), std::invalid_argument) << spec;
  }
}

TEST(WhatIfPlan, EverySimulatorStallReasonIsAddressable) {
  // The parser mirrors gpusim/stall.h's reason list (obs sits below
  // gpusim); this breaks if a reason is added there but not here.
  gpusim::StallBreakdown b;
  gpusim::for_each_stall_reason(b, [](const char* name, std::uint64_t) {
    EXPECT_NO_THROW(
        whatif::parse_plan(std::string("stall:") + name + "*0.5"))
        << name;
  });
}

TEST(WhatIfPlan, ProgrammaticPlanWinsOverEnvironment) {
  PlanGuard guard;
  EnvGuard env("CUSW_WHATIF", "stall:sync*0.5");
  const whatif::Plan* p = whatif::active_plan();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->spec, "stall:sync*0.5");
  whatif::set_plan(whatif::parse_plan("stall:compute*0.25"));
  p = whatif::active_plan();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->spec, "stall:compute*0.25");
  whatif::clear_plan();
  p = whatif::active_plan();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->spec, "stall:sync*0.5");
}

TEST(WhatIfPlan, NoPlanWhenEnvironmentUnset) {
  whatif::clear_plan();
  unsetenv("CUSW_WHATIF");
  EXPECT_EQ(whatif::active_plan(), nullptr);
}

TEST(WhatIfPlan, MalformedEnvironmentThrowsOnFirstUse) {
  PlanGuard guard;
  EnvGuard env("CUSW_WHATIF", "stall:naptime*1");
  EXPECT_THROW(whatif::active_plan(), std::invalid_argument);
}

TEST(WhatIfSim, FactorOneIsByteIdenticalNoOp) {
  PlanGuard guard;
  whatif::clear_plan();
  const cudasw::KernelRun base = run_workload();
  whatif::set_plan(whatif::parse_plan(
      "site:wavefront.load@global*1,stall:compute*1,stall:occupancy_idle*1,"
      "kernel:intra_task_original*1,param:dram_latency*1"));
  const cudasw::KernelRun same = run_workload();
  EXPECT_EQ(base.scores, same.scores);
  EXPECT_EQ(stall_vector(base.stats.stall), stall_vector(same.stats.stall));
  EXPECT_EQ(base.stats.stall.charged, same.stats.stall.charged);
  EXPECT_EQ(base.stats.total_block_ticks, same.stats.total_block_ticks);
  EXPECT_EQ(base.stats.seconds, same.stats.seconds);  // exact, not approx
  EXPECT_EQ(base.stats.makespan_cycles, same.stats.makespan_cycles);
  EXPECT_EQ(same.stats.whatif_removed_ticks, 0);
  ASSERT_EQ(base.stats.sites.size(), same.stats.sites.size());
  for (std::size_t i = 0; i < base.stats.sites.size(); ++i) {
    EXPECT_EQ(base.stats.sites[i].counters.stall_ticks,
              same.stats.sites[i].counters.stall_ticks)
        << i;
  }
}

TEST(WhatIfSim, PartitionInvariantsHoldAtEveryFactor) {
  PlanGuard guard;
  whatif::clear_plan();
  const cudasw::KernelRun base = run_workload();
  ASSERT_EQ(reason_sum(base.stats.stall), base.stats.stall.charged);

  const char* plans[] = {
      "site:wavefront.load@global*0.5",
      "site:wavefront.load@global*0",
      "site:wavefront.load*0.25",  // any-space form
      "stall:compute*0",
      "stall:occupancy_idle*0",
      "stall:exposed_latency*0.5",
      "kernel:intra_task_original*0.25",
      "site:wavefront.load@global*0.5,stall:sync*0",
      "site:wavefront.load@global*2",  // virtual slowdown
  };
  for (const char* spec : plans) {
    whatif::set_plan(whatif::parse_plan(spec));
    const cudasw::KernelRun run = run_workload();
    // The score path is untouched: a what-if run answers only "what
    // would the clock have said".
    EXPECT_EQ(run.scores, base.scores) << spec;
    // Σ reasons == charged, bit-for-bit, at every factor.
    EXPECT_EQ(reason_sum(run.stats.stall), run.stats.stall.charged) << spec;
    // Site rows still decompose the memory reasons exactly.
    EXPECT_EQ(site_tick_sum(run.stats), run.stats.stall.memory_ticks())
        << spec;
    // Removed ticks reconcile: base charge minus scaled charge.
    EXPECT_EQ(static_cast<std::int64_t>(base.stats.stall.charged) -
                  static_cast<std::int64_t>(run.stats.stall.charged),
              run.stats.whatif_removed_ticks)
        << spec;
  }

  // Virtual slowdowns add ticks: removed is negative.
  whatif::set_plan(whatif::parse_plan("site:wavefront.load@global*2"));
  const cudasw::KernelRun slow = run_workload();
  EXPECT_LT(slow.stats.whatif_removed_ticks, 0);
  EXPECT_GT(slow.stats.stall.charged, base.stats.stall.charged);
}

TEST(WhatIfSim, ParamTargetRepricesWithoutTickAccounting) {
  PlanGuard guard;
  whatif::clear_plan();
  const cudasw::KernelRun base = run_workload();
  whatif::set_plan(whatif::parse_plan("param:dram_latency*0.5"));
  const cudasw::KernelRun run = run_workload();
  EXPECT_EQ(run.scores, base.scores);
  // The parameter reprices windows through the cost model rather than
  // scaling recorded ticks, so the removed-ticks ledger stays empty...
  EXPECT_EQ(run.stats.whatif_removed_ticks, 0);
  // ...but the partition invariant still holds for whatever was charged.
  EXPECT_EQ(reason_sum(run.stats.stall), run.stats.stall.charged);
}

TEST(WhatIfSim, BitIdenticalAcrossThreadsAndMemo) {
  PlanGuard guard;
  whatif::set_plan(
      whatif::parse_plan("site:wavefront.load@global*0.5,stall:sync*0"));
  std::vector<std::uint64_t> first_stall;
  std::vector<int> first_scores;
  double first_seconds = 0.0;
  bool have_first = false;
  for (const char* memo : {"0", "1"}) {
    for (const char* threads : {"1", "4"}) {
      EnvGuard mg("CUSW_SIM_MEMO", memo);
      EnvGuard tg("CUSW_THREADS", threads);
      const cudasw::KernelRun run = run_workload();
      if (!have_first) {
        first_stall = stall_vector(run.stats.stall);
        first_scores = run.scores;
        first_seconds = run.stats.seconds;
        have_first = true;
        continue;
      }
      EXPECT_EQ(stall_vector(run.stats.stall), first_stall)
          << "memo=" << memo << " threads=" << threads;
      EXPECT_EQ(run.scores, first_scores)
          << "memo=" << memo << " threads=" << threads;
      EXPECT_EQ(run.stats.seconds, first_seconds)
          << "memo=" << memo << " threads=" << threads;
    }
  }
}

TEST(WhatIfSim, MemoKeyIsSaltedWithThePlan) {
  PlanGuard guard;
  EnvGuard memo("CUSW_SIM_MEMO", "1");
  // Same workload, alternating plans: if the memo replayed blocks across
  // plans, the second unplanned run would see the scaled numbers.
  whatif::clear_plan();
  const cudasw::KernelRun base = run_workload();
  whatif::set_plan(whatif::parse_plan("site:wavefront.load@global*0.5"));
  const cudasw::KernelRun scaled = run_workload();
  whatif::clear_plan();
  const cudasw::KernelRun again = run_workload();
  EXPECT_LT(scaled.stats.stall.charged, base.stats.stall.charged);
  EXPECT_EQ(again.stats.stall.charged, base.stats.stall.charged);
  EXPECT_EQ(stall_vector(again.stats.stall), stall_vector(base.stats.stall));
}

TEST(WhatIfSim, CapsuleProvenanceStampsActivePlan) {
  PlanGuard guard;
  whatif::set_plan(whatif::parse_plan("stall:sync*0.5"));
  const std::string stamped =
      obs::capsule_to_json(obs::Registry::global().snapshot(), "stamped");
  EXPECT_NE(stamped.find("\"whatif\": \"stall:sync*0.5\""),
            std::string::npos);
  whatif::clear_plan();
  unsetenv("CUSW_WHATIF");
  const std::string clean =
      obs::capsule_to_json(obs::Registry::global().snapshot(), "clean");
  EXPECT_EQ(clean.find("\"whatif\""), std::string::npos);
}

}  // namespace
}  // namespace cusw
