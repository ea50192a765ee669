// cusw::obs: registry semantics (atomic updates, snapshot/diff, JSON),
// trace emission + Chrome-trace schema validation, profiler hooks on
// gpusim::launch, and the zero-overhead contract of the unobserved path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "cudasw/pipeline.h"
#include "gpusim/launch.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "test_helpers.h"

namespace cusw {
namespace {

using obs::Registry;
using obs::Snapshot;

// Unique-per-test metric names keep the process-global registry tests
// independent of each other and of the launches other tests run.
std::string uniq(const std::string& stem) {
  static int n = 0;
  return "test." + stem + "." + std::to_string(n++);
}

// Tracing is process-global: make sure a failing test never leaves it
// enabled for the rest of the binary.
struct TraceGuard {
  ~TraceGuard() { obs::disable_trace(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

gpusim::Device mini1060() {
  return gpusim::Device(gpusim::DeviceSpec::tesla_c1060().scaled(0.1));
}

seq::SequenceDB small_db(std::uint64_t seed) {
  seq::SequenceDB db = seq::lognormal_db(60, 150, 80, seed);
  Rng rng(seed + 1);
  db.add(seq::random_protein(900, rng, "long1"));
  return db;
}

// A tiny kernel touching every counter family: global loads, a barrier,
// shared accesses with a conflicting stride, texture reads. Texture and
// local traffic carries attribution sites; the global loads stay
// unattributed so both site paths are exercised.
gpusim::LaunchStats run_unit_kernel(gpusim::Device& dev, const char* label,
                                    int blocks = 4) {
  gpusim::LaunchConfig cfg;
  cfg.blocks = blocks;
  cfg.threads_per_block = 64;
  cfg.label = label;
  const gpusim::SiteId tex_site = gpusim::intern_site("unit.tex");
  const gpusim::SiteId spill_site = gpusim::intern_site("unit.spill");
  auto tex = dev.make_texture(std::vector<int>(256, 1));
  return dev.launch(cfg, [&](gpusim::BlockCtx& ctx) {
    for (int lane = 0; lane < ctx.threads(); ++lane) {
      ctx.access(gpusim::Space::Global, lane,
                 0x10000 + static_cast<std::uint64_t>(lane) * 4, 4, false);
      ctx.tex(tex, static_cast<std::size_t>(lane % 256), lane, tex_site);
    }
    ctx.sync();
    for (int lane = 0; lane < ctx.threads(); ++lane) {
      ctx.shared_access_strided(lane, 2, 2);
      ctx.local_access(lane, 0, 0, 4, true, spill_site);
    }
    ctx.charge_uniform(5.0);
  });
}

TEST(Metrics, CounterGaugeHistogramBasics) {
  auto& reg = Registry::global();
  const std::string c = uniq("counter"), g = uniq("gauge"), h = uniq("hist");
  reg.counter(c).inc();
  reg.counter(c).add(41);
  EXPECT_EQ(reg.counter(c).value(), 42u);

  reg.gauge(g).set(1.5);
  reg.gauge(g).add(2.0);
  EXPECT_DOUBLE_EQ(reg.gauge(g).value(), 3.5);

  auto& hist = reg.histogram(h, {1.0, 10.0});
  hist.observe(0.5);
  hist.observe(5.0);
  hist.observe(100.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 105.5);
  EXPECT_EQ(hist.buckets(), (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(Metrics, RegistryHandsOutStableReferences) {
  auto& reg = Registry::global();
  const std::string name = uniq("stable");
  obs::Counter& a = reg.counter(name);
  obs::Counter& b = reg.counter(name);
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, ConcurrentUpdatesAndCreatesAreClean) {
  auto& reg = Registry::global();
  const std::string shared_name = uniq("race");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix lock-free updates with lookups and creations under the lock.
      obs::Counter& c = reg.counter(shared_name);
      for (int i = 0; i < kIters; ++i) c.inc();
      reg.gauge(shared_name + ".gauge." + std::to_string(t % 2)).add(1.0);
      reg.histogram(shared_name + ".hist", {1.0}).observe(static_cast<double>(t));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter(shared_name).value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram(shared_name + ".hist", {1.0}).count(),
            static_cast<std::uint64_t>(kThreads));
}

TEST(Metrics, SnapshotDiffSubtracts) {
  auto& reg = Registry::global();
  const std::string c = uniq("diff.counter"), g = uniq("diff.gauge"),
                    h = uniq("diff.hist");
  reg.counter(c).add(10);
  reg.gauge(g).set(2.0);
  reg.histogram(h, {5.0}).observe(1.0);
  const Snapshot before = reg.snapshot();
  reg.counter(c).add(7);
  reg.gauge(g).add(0.5);
  reg.histogram(h, {5.0}).observe(10.0);
  const Snapshot diff = reg.snapshot().diff(before);
  EXPECT_EQ(diff.counter(c), 7u);
  EXPECT_DOUBLE_EQ(diff.gauge(g), 0.5);
  const obs::MetricSample* hs = diff.find(h);
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1u);
  EXPECT_EQ(hs->buckets, (std::vector<std::uint64_t>{0, 1}));
}

TEST(Metrics, SnapshotJsonIsValidJson) {
  auto& reg = Registry::global();
  reg.counter(uniq("json \"quoted\" name")).inc();
  const std::string json = reg.snapshot().to_json();
  obs::json::Value v;
  std::string error;
  ASSERT_TRUE(obs::json::parse(json, v, &error)) << error;
  const obs::json::Value* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->kind, obs::json::Value::Kind::kArray);
  EXPECT_FALSE(metrics->array.empty());
}

TEST(Metrics, LaunchPublishesStatsBitForBit) {
  auto dev = mini1060();
  const Snapshot before = Registry::global().snapshot();
  const auto stats = run_unit_kernel(dev, "obs_unit_exact");
  const Snapshot d = Registry::global().snapshot().diff(before);

  const std::string p = "gpusim.kernel.obs_unit_exact.";
  EXPECT_EQ(d.counter(p + "launches"), 1u);
  EXPECT_EQ(d.counter(p + "blocks"), static_cast<std::uint64_t>(stats.blocks));
  EXPECT_EQ(d.counter(p + "windows"), stats.windows);
  EXPECT_EQ(d.counter(p + "syncs"), stats.syncs);
  EXPECT_EQ(d.counter(p + "shared.accesses"), stats.shared_accesses);
  EXPECT_EQ(d.counter(p + "shared.bank_conflict_cycles"),
            stats.bank_conflict_cycles);
  // Iterate the canonical field visitor rather than naming fields by
  // hand: a field added to SpaceCounters is published and checked here
  // without touching either file (the visitor's static_assert pins the
  // struct size, so it cannot silently fall behind).
  const auto expect_space = [&](const std::string& prefix,
                                const gpusim::SpaceCounters& c) {
    gpusim::for_each_space_counter_field(
        c, [&](const char* field, std::uint64_t v) {
          EXPECT_EQ(d.counter(prefix + field), v) << prefix << field;
        });
  };
  expect_space(p + "global.", stats.global);
  expect_space(p + "local.", stats.local);
  expect_space(p + "texture.", stats.texture);
  // Per-site attribution rows mirror field-for-field under the same
  // visitor; the unit kernel produces attributed texture/local rows plus
  // the unattributed global row.
  ASSERT_FALSE(stats.sites.empty());
  bool saw_attributed = false, saw_unattributed = false;
  for (const gpusim::SiteCounters& sc : stats.sites) {
    expect_space(p + "site." + gpusim::site_name(sc.site) + "." +
                     gpusim::space_name(sc.space) + ".",
                 sc.counters);
    (sc.site == gpusim::kSiteUnattributed ? saw_unattributed
                                          : saw_attributed) = true;
  }
  EXPECT_TRUE(saw_attributed);
  EXPECT_TRUE(saw_unattributed);
  // The per-kernel seconds gauge started from zero (unique label), so one
  // launch leaves exactly stats.seconds in it.
  EXPECT_EQ(d.gauge(p + "seconds"), stats.seconds);
  // Device-wide aggregates move by the same amounts.
  EXPECT_EQ(d.counter("gpusim.global.transactions"),
            stats.global.transactions);
  EXPECT_EQ(d.counter("gpusim.global_memory.transactions"),
            stats.global_memory_transactions());
}

TEST(Profile, KernelTableMatchesLaunchStats) {
  auto dev = mini1060();
  const Snapshot before = Registry::global().snapshot();
  const auto stats = run_unit_kernel(dev, "obs_prof_table");
  const Snapshot d = Registry::global().snapshot().diff(before);
  const std::string table = obs::format_kernel_profile(d);
  ASSERT_FALSE(table.empty());
  EXPECT_NE(table.find("obs_prof_table"), std::string::npos) << table;
  // The profiler's "global txns" is global + local, exactly as LaunchStats
  // reports it; texture and shared columns match the struct too.
  EXPECT_NE(table.find(std::to_string(stats.global_memory_transactions())),
            std::string::npos)
      << table;
  EXPECT_NE(table.find(std::to_string(stats.texture.transactions)),
            std::string::npos)
      << table;
  EXPECT_NE(table.find(std::to_string(stats.shared_accesses)),
            std::string::npos)
      << table;
}

// Collects observer callbacks; thread-safe as the contract requires.
class RecordingObserver final : public gpusim::LaunchObserver {
 public:
  void on_window(const gpusim::WindowEvent& e) override {
    std::lock_guard<std::mutex> lk(mu_);
    windows_.push_back(e);
  }
  void on_block(const gpusim::BlockEvent& e) override {
    std::lock_guard<std::mutex> lk(mu_);
    blocks_.push_back({e.block_id, e.cycles});
  }
  void on_launch(const gpusim::LaunchConfig&,
                 const gpusim::LaunchStats& s) override {
    std::lock_guard<std::mutex> lk(mu_);
    ++launches_;
    last_ = s;
  }

  std::mutex mu_;
  std::vector<gpusim::WindowEvent> windows_;
  std::vector<std::pair<int, double>> blocks_;
  int launches_ = 0;
  gpusim::LaunchStats last_;
};

TEST(Observer, WindowAndBlockEventsAreConsistent) {
  setenv("CUSW_THREADS", "8", 1);
  auto dev = mini1060();
  RecordingObserver rec;
  dev.set_observer(&rec);
  const int blocks = 6;
  const auto stats = run_unit_kernel(dev, "obs_observer", blocks);
  dev.set_observer(nullptr);
  unsetenv("CUSW_THREADS");

  EXPECT_EQ(rec.launches_, 1);
  EXPECT_EQ(rec.last_.windows, stats.windows);
  EXPECT_EQ(rec.last_.global.transactions, stats.global.transactions);
  ASSERT_EQ(rec.blocks_.size(), static_cast<std::size_t>(blocks));
  EXPECT_EQ(rec.windows_.size(), stats.windows);

  // Every block's windows tile its execution: starts are monotonic within
  // the block and the cycles sum to the block total reported by on_block.
  std::vector<double> window_sum(blocks, 0.0);
  std::vector<double> last_start(blocks, -1.0);
  std::vector<std::uint64_t> txn_sum(blocks, 0);
  for (const auto& w : rec.windows_) {
    ASSERT_GE(w.block_id, 0);
    ASSERT_LT(w.block_id, blocks);
    EXPECT_GT(w.start_cycles, last_start[w.block_id]);
    last_start[w.block_id] = w.start_cycles;
    window_sum[w.block_id] += w.cycles;
    txn_sum[w.block_id] += w.transactions;
  }
  double total = 0.0;
  std::uint64_t txn_total = 0;
  for (const auto& [id, cycles] : rec.blocks_) {
    EXPECT_DOUBLE_EQ(window_sum[id], cycles) << "block " << id;
    total += cycles;
    txn_total += txn_sum[id];
  }
  EXPECT_DOUBLE_EQ(total, stats.total_block_cycles);
  EXPECT_EQ(txn_total, stats.global.transactions + stats.local.transactions +
                           stats.texture.transactions);
}

TEST(Observer, UnobservedSearchAllocatesNoMetrics) {
  auto dev = mini1060();
  const auto query = test::random_codes(80, 21);
  const auto db = small_db(22);
  const auto& matrix = sw::ScoringMatrix::blosum62();
  cudasw::SearchConfig cfg;
  cfg.threshold = 600;
  // First search may create this workload's metrics lazily...
  const auto first = cudasw::search(dev, query, db, matrix, cfg);
  const std::size_t metrics = Registry::global().metric_count();
  // ...but steady state is allocation-free: an identical search creates
  // nothing, so the per-window path provably never touches the registry.
  const auto second = cudasw::search(dev, query, db, matrix, cfg);
  EXPECT_EQ(Registry::global().metric_count(), metrics);
  EXPECT_EQ(first.scores, second.scores);
}

TEST(Trace, PipelineRunEmitsValidTwoDomainTrace) {
  TraceGuard guard;
  const std::string path = testing::TempDir() + "cusw_obs_trace.json";
  obs::configure_trace(path);

  setenv("CUSW_THREADS", "8", 1);
  auto dev = mini1060();
  const auto db = small_db(31);
  const auto& matrix = sw::ScoringMatrix::blosum62();
  cudasw::SearchConfig cfg;
  cfg.threshold = 600;
  std::vector<std::vector<seq::Code>> queries;
  queries.push_back(test::random_codes(60, 32));
  queries.push_back(test::random_codes(90, 33));
  const auto reports = cudasw::search_batch(dev, queries, db, matrix, cfg);
  unsetenv("CUSW_THREADS");
  ASSERT_EQ(reports.size(), 2u);

  ASSERT_EQ(obs::flush_trace(), path);
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());

  const obs::TraceCheck check = obs::validate_chrome_trace(text);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.spans, 0u);
  EXPECT_GE(check.tracks, 2u);

  // Both clock domains are present: wall-clock host spans on pid 1 and
  // simulated device spans on pid >= 100.
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(text, v, nullptr));
  const obs::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool host_span = false, device_span = false, window_span = false;
  for (const auto& e : events->array) {
    const obs::json::Value* ph = e.find("ph");
    const obs::json::Value* pid = e.find("pid");
    if (ph == nullptr || pid == nullptr || ph->string != "X") continue;
    if (pid->number == obs::kHostPid) host_span = true;
    if (pid->number >= obs::kFirstDevicePid) device_span = true;
    const obs::json::Value* cat = e.find("cat");
    if (cat != nullptr && cat->string == "window") window_span = true;
  }
  EXPECT_TRUE(host_span);
  EXPECT_TRUE(device_span);
  EXPECT_TRUE(window_span);
}

TEST(Trace, HostSpansCarryWorkerThreadIds) {
  TraceGuard guard;
  const std::string path = testing::TempDir() + "cusw_obs_host.json";
  obs::configure_trace(path);
  {
    obs::HostSpan outer("outer");
    obs::HostSpan inner("inner");
  }
  ASSERT_EQ(obs::flush_trace(), path);
  const std::string text = read_file(path);
  const obs::TraceCheck check = obs::validate_chrome_trace(text);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.spans, 2u);
  EXPECT_NE(text.find("\"main\""), std::string::npos);
}

TEST(JsonParse, RejectsNestingBeyondTheDepthLimit) {
  // Unbounded recursion used to overflow the stack on input like this.
  obs::json::Value v;
  std::string error;
  EXPECT_FALSE(obs::json::parse(std::string(100000, '['), v, &error));
  EXPECT_NE(error.find("nested too deep"), std::string::npos) << error;
  EXPECT_FALSE(obs::json::parse(std::string(100000, '{'), v, &error));
  // Documents as deep as real ones (capsules nest < 10) still parse.
  EXPECT_TRUE(obs::json::parse(
      std::string(64, '[') + "{\"a\": 1}" + std::string(64, ']'), v, &error))
      << error;
}

TEST(TraceCheck, AcceptsMinimalValidTrace) {
  const char* text = R"({"traceEvents": [
    {"name": "p", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": 10.0},
    {"name": "c", "ph": "X", "pid": 1, "tid": 0, "ts": 2.0, "dur": 3.0},
    {"name": "m", "ph": "M", "pid": 1, "tid": 0}
  ]})";
  const obs::TraceCheck check = obs::validate_chrome_trace(text);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 3u);
  EXPECT_EQ(check.spans, 2u);
  EXPECT_EQ(check.tracks, 1u);
}

TEST(TraceCheck, RejectsStructuralViolations) {
  // Malformed JSON.
  EXPECT_FALSE(obs::validate_chrome_trace("{not json").ok);
  // Missing traceEvents.
  EXPECT_FALSE(obs::validate_chrome_trace(R"({"foo": []})").ok);
  // Event without ph.
  EXPECT_FALSE(obs::validate_chrome_trace(
                   R"({"traceEvents": [{"name": "x", "pid": 1, "tid": 0}]})")
                   .ok);
  // Negative duration.
  EXPECT_FALSE(
      obs::validate_chrome_trace(
          R"({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 0,
              "ts": 0, "dur": -1}]})")
          .ok);
  // Non-monotonic starts within one track.
  EXPECT_FALSE(
      obs::validate_chrome_trace(
          R"({"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": 5, "dur": 1},
            {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 1}
          ]})")
          .ok);
  // Straddling spans: b starts inside a but ends after it.
  EXPECT_FALSE(
      obs::validate_chrome_trace(
          R"({"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 10},
            {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 5, "dur": 10}
          ]})")
          .ok);
}

}  // namespace
}  // namespace cusw
