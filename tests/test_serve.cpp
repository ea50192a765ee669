// cusw::serve: log-bucketed histogram quantile guarantees, arrival /
// admission / batching determinism, SLO parsing and burn rates, and the
// end-to-end service scheduler — including the bit-identity contract
// across CUSW_THREADS and the async request lanes in the Chrome trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/log_histogram.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "seq/generate.h"
#include "serve/service.h"

namespace cusw {
namespace {

using obs::LogHistogram;

// ------------------------------------------------------------ helpers

struct EnvVarGuard {
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      unsetenv(name);
    } else {
      setenv(name, value, 1);
    }
  }
  ~EnvVarGuard() {
    if (had_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  const char* name_;
  bool had_ = false;
  std::string old_;
};

struct TraceGuard {
  ~TraceGuard() { obs::disable_trace(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Wrap hand-written trace events into a full Chrome trace document.
std::string trace_doc(const std::string& events) {
  return "{\"traceEvents\": [" + events + "]}";
}

/// One async event line; pass id_json as "\"1\"" or "7".
std::string async_ev(const char* ph, const char* name, double ts,
                     const std::string& id_json,
                     const char* cat = "serve.request") {
  std::ostringstream os;
  os << "{\"name\": \"" << name << "\", \"ph\": \"" << ph
     << "\", \"pid\": 50, \"tid\": 0, \"cat\": \"" << cat
     << "\", \"ts\": " << ts << ", \"id\": " << id_json << "}";
  return os.str();
}

/// A small service fixture: tiny device slices, a tiny database, a pool of
/// two queries. Scans are memoized, so each run costs two simulations.
struct ServiceFixture {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::tesla_c1060().scaled(1.0 / 30);
  seq::SequenceDB db = seq::lognormal_db(24, 120, 40, 0xD8);
  const sw::ScoringMatrix& matrix = sw::ScoringMatrix::blosum62();
  std::vector<std::vector<seq::Code>> pool;

  ServiceFixture() {
    Rng rng(0x9001);
    pool.push_back(seq::random_protein(40, rng).residues);
    pool.push_back(seq::random_protein(90, rng).residues);
  }

  serve::Executor make_exec(const cudasw::MultiGpuConfig& cfg = {}) {
    return serve::Executor(spec, 2, db, matrix, cfg);
  }
};

serve::ServiceConfig small_config() {
  serve::ServiceConfig cfg;
  cfg.arrival.rate_rps = 500.0;
  cfg.num_requests = 120;
  cfg.max_batch = 4;
  cfg.deadline_ms = 50.0;
  cfg.window_ms = 100.0;
  cfg.seed = 0xCAFE;
  cfg.slo = serve::SloSpec::parse("p90<25ms,goodput>0.5");
  return cfg;
}

// ------------------------------------------------- LogHistogram quantiles

TEST(LogHistogram, EmptyHistogramReportsZeros) {
  LogHistogram h(1.0, 1000.0, 0.01);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.min_recorded(), 0.0);
  EXPECT_EQ(h.max_recorded(), 0.0);
}

TEST(LogHistogram, SingleSampleIsEveryQuantile) {
  LogHistogram h(1.0, 1000.0, 0.01);
  h.record(42.0);
  EXPECT_EQ(h.count(), 1u);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(h.quantile(q), 42.0, 42.0 * h.relative_error())
        << "q=" << q;
  }
}

TEST(LogHistogram, AllSamplesInOverflowReportExactMax) {
  LogHistogram h(1.0, 10.0, 0.01);
  h.record(50.0);
  h.record(99.0);
  h.record(1000.0);
  EXPECT_EQ(h.overflow(), 3u);
  EXPECT_EQ(h.count(), 3u);
  // The overflow bucket's representative is the exact recorded maximum —
  // never a clamped edge-bucket midpoint.
  EXPECT_EQ(h.quantile(0.5), 1000.0);
  EXPECT_EQ(h.quantile(0.99), 1000.0);
  EXPECT_EQ(h.min_recorded(), 50.0);
}

TEST(LogHistogram, AllSamplesInUnderflowReportExactMin) {
  LogHistogram h(1.0, 10.0, 0.01);
  h.record(0.5);
  h.record(0.2);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.quantile(0.5), 0.2);
  EXPECT_EQ(h.quantile(1.0), 0.2);
}

TEST(LogHistogram, QuantilesStayWithinAdvertisedRelativeError) {
  LogHistogram h(1e-3, 1e7, 0.01);
  Rng rng(0x9A17);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.lognormal(3.0, 1.2));
  for (const double v : samples) h.record(v);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);

  std::sort(samples.begin(), samples.end());
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[std::max<std::size_t>(rank, 1) - 1];
    const double got = h.quantile(q);
    EXPECT_LE(std::abs(got - exact) / exact, h.relative_error() + 1e-12)
        << "q=" << q << " exact=" << exact << " got=" << got;
  }
}

TEST(LogHistogram, TotalsInvariantAndMerge) {
  LogHistogram a(1.0, 100.0, 0.05), b(1.0, 100.0, 0.05);
  a.record(0.5);
  a.record(5.0);
  b.record(50.0);
  b.record(500.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  std::uint64_t binned = 0;
  for (std::size_t i = 0; i < a.bucket_count(); ++i) binned += a.bucket(i);
  EXPECT_EQ(a.underflow() + binned + a.overflow(), a.count());
  EXPECT_EQ(a.min_recorded(), 0.5);
  EXPECT_EQ(a.max_recorded(), 500.0);

  LogHistogram c(1.0, 100.0, 0.05), d(2.0, 100.0, 0.05);
  EXPECT_THROW(c.merge(d), std::exception);  // geometry mismatch
}

TEST(LogHistogram, EqualitySeesEveryField) {
  LogHistogram a(1.0, 100.0, 0.01), b(1.0, 100.0, 0.01);
  EXPECT_TRUE(a == b);
  a.record(7.0);
  EXPECT_TRUE(a != b);
  b.record(7.0);
  EXPECT_TRUE(a == b);
  a.record(0.1);  // underflow only
  b.record(0.2);  // different underflow value -> different sum/min
  EXPECT_TRUE(a != b);
}

TEST(LogHistogram, ToJsonIsValidAndListsOnlyNonEmptyBuckets) {
  LogHistogram h(1.0, 1000.0, 0.01);
  h.record(2.0);
  h.record(900.0);
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(h.to_json(), v, &err)) << err;
  EXPECT_EQ(v.find("count")->number, 2.0);
  EXPECT_EQ(v.find("buckets")->array.size(), 2u);
}

// ----------------------------------------------------------- arrivals

TEST(Arrival, SameSeedSameGaps) {
  serve::ArrivalConfig cfg;
  cfg.rate_rps = 250.0;
  serve::ArrivalProcess a(cfg, 42), b(cfg, 42), c(cfg, 43);
  bool any_diff = false;
  for (int i = 0; i < 200; ++i) {
    const double ga = a.next_gap_ms();
    EXPECT_EQ(ga, b.next_gap_ms());
    if (ga != c.next_gap_ms()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);  // a different seed is a different stream
}

TEST(Arrival, PoissonGapsMatchTheConfiguredRate) {
  serve::ArrivalConfig cfg;
  cfg.rate_rps = 200.0;  // mean gap 5 ms
  serve::ArrivalProcess p(cfg, 7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double gap = p.next_gap_ms();
    EXPECT_GT(gap, 0.0);
    sum += gap;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
  EXPECT_FALSE(p.in_burst());  // Poisson never bursts
}

TEST(Arrival, BurstyAlternatesStatesAndTightensGaps) {
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalConfig::Kind::kBursty;
  cfg.rate_rps = 100.0;  // calm: 10 ms gaps; burst defaults to 4x -> 2.5 ms
  serve::ArrivalProcess p(cfg, 11);
  double sum = 0.0;
  bool saw_burst = false, saw_calm = false;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += p.next_gap_ms();
    (p.in_burst() ? saw_burst : saw_calm) = true;
  }
  EXPECT_TRUE(saw_burst);
  EXPECT_TRUE(saw_calm);
  const double mean = sum / n;
  EXPECT_LT(mean, 10.0);  // bursts tighten the average below pure calm
  EXPECT_GT(mean, 2.5);   // but it never beats pure burst
}

TEST(Arrival, KindParsesAndRejects) {
  EXPECT_EQ(serve::parse_arrival_kind("poisson"),
            serve::ArrivalConfig::Kind::kPoisson);
  EXPECT_EQ(serve::parse_arrival_kind("bursty"),
            serve::ArrivalConfig::Kind::kBursty);
  EXPECT_THROW(serve::parse_arrival_kind("fractal"), std::invalid_argument);
}

// ----------------------------------------------------------- admission

TEST(Admission, QueueAndConcurrencyCapsReject) {
  serve::AdmissionConfig cfg;
  cfg.max_queue = 2;
  cfg.max_inflight = 3;
  serve::AdmissionController adm(cfg);
  EXPECT_EQ(adm.admit(0.0, 10, 1, 1), serve::Outcome::kPending);
  EXPECT_EQ(adm.admit(0.0, 10, 2, 1), serve::Outcome::kRejectedQueue);
  EXPECT_EQ(adm.admit(0.0, 10, 1, 3), serve::Outcome::kRejectedConcurrency);
}

TEST(Admission, ZeroCapsMeanUnbounded) {
  serve::AdmissionConfig cfg;
  cfg.max_queue = 0;
  cfg.max_inflight = 0;
  serve::AdmissionController adm(cfg);
  EXPECT_EQ(adm.admit(0.0, 10, 100000, 100000), serve::Outcome::kPending);
}

TEST(Admission, TokenBucketSpendsAndRefills) {
  serve::AdmissionConfig cfg;
  cfg.cells_per_second = 1000.0;  // bucket defaults to 1000 cells
  serve::AdmissionController adm(cfg);
  EXPECT_EQ(adm.admit(0.0, 600, 0, 0), serve::Outcome::kPending);
  EXPECT_EQ(adm.admit(0.0, 600, 0, 0), serve::Outcome::kRejectedBudget);
  EXPECT_DOUBLE_EQ(adm.tokens(0.0), 400.0);
  // 500 simulated ms refills 500 cells (capped at the burst size).
  EXPECT_EQ(adm.admit(500.0, 600, 0, 0), serve::Outcome::kPending);
  // Rejections never spend tokens.
  EXPECT_EQ(adm.admit(500.0, 600, 0, 0), serve::Outcome::kRejectedBudget);
  EXPECT_NEAR(adm.tokens(500.0), 300.0, 1e-9);
}

// ------------------------------------------------------------ batching

serve::Request req(serve::RequestId id, std::size_t len, double deadline) {
  serve::Request r;
  r.id = id;
  r.query_length = len;
  r.deadline_ms = deadline;
  return r;
}

TEST(Batching, FifoPreservesArrivalOrderAndCapsBatch) {
  serve::BatchQueue q(serve::BatchPolicy::kFifo, 2);
  q.push(req(1, 300, 0));
  q.push(req(2, 100, 0));
  q.push(req(3, 200, 0));
  const auto batch = q.pop_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Batching, ShortestQueryFirstSortsByLength) {
  serve::BatchQueue q(serve::BatchPolicy::kShortestFirst, 2);
  q.push(req(1, 300, 0));
  q.push(req(2, 100, 0));
  q.push(req(3, 200, 0));
  const auto batch = q.pop_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 2u);
  EXPECT_EQ(batch[1].id, 3u);
  // The long query is still queued, not starved out of the structure.
  EXPECT_EQ(q.pop_batch()[0].id, 1u);
}

TEST(Batching, DeadlineOrdersEarliestFirstAndNoDeadlineLast) {
  serve::BatchQueue q(serve::BatchPolicy::kDeadline, 3);
  q.push(req(1, 100, 50.0));
  q.push(req(2, 100, 20.0));
  q.push(req(3, 100, 0.0));  // no deadline sorts after every deadline
  const auto batch = q.pop_batch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 2u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(batch[2].id, 3u);
}

// ----------------------------------------------------------------- SLO

TEST(Slo, ParsesQuantileAndGoodputObjectives) {
  const auto spec = serve::SloSpec::parse("p99<40ms, goodput>0.95");
  ASSERT_EQ(spec.objectives.size(), 2u);
  EXPECT_EQ(spec.objectives[0].kind,
            serve::SloObjective::Kind::kQuantileLatency);
  EXPECT_DOUBLE_EQ(spec.objectives[0].quantile, 0.99);
  EXPECT_DOUBLE_EQ(spec.objectives[0].latency_bound_ms, 40.0);
  EXPECT_EQ(spec.objectives[0].label(), "p99<40ms");
  EXPECT_NEAR(spec.objectives[0].budget(), 0.01, 1e-12);
  EXPECT_EQ(spec.objectives[1].kind, serve::SloObjective::Kind::kGoodput);
  EXPECT_DOUBLE_EQ(spec.objectives[1].goodput_target, 0.95);
  EXPECT_EQ(spec.objectives[1].label(), "goodput>0.95");
}

TEST(Slo, ParsesLatencyUnits) {
  EXPECT_DOUBLE_EQ(
      serve::SloSpec::parse("p99.9<1.5s").objectives[0].latency_bound_ms,
      1500.0);
  EXPECT_DOUBLE_EQ(
      serve::SloSpec::parse("p50<250us").objectives[0].latency_bound_ms, 0.25);
  EXPECT_DOUBLE_EQ(serve::SloSpec::parse("p99.9<1.5s").objectives[0].quantile,
                   0.999);
}

TEST(Slo, RejectsMalformedSpecs) {
  EXPECT_THROW(serve::SloSpec::parse("p99"), std::invalid_argument);
  EXPECT_THROW(serve::SloSpec::parse("p0<10ms"), std::invalid_argument);
  EXPECT_THROW(serve::SloSpec::parse("p100<10ms"), std::invalid_argument);
  EXPECT_THROW(serve::SloSpec::parse("goodput>1.5"), std::invalid_argument);
  EXPECT_THROW(serve::SloSpec::parse("latency<10ms"), std::invalid_argument);
  EXPECT_THROW(serve::SloSpec::parse("p99<-3ms"), std::invalid_argument);
}

TEST(Slo, BurnRatesScaleByErrorBudget) {
  // p99 tolerates 1% violations; 2% observed burns at 2x.
  EXPECT_NEAR(serve::latency_burn_rate(2, 100, 0.99), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(serve::latency_burn_rate(0, 100, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(serve::latency_burn_rate(0, 0, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(serve::goodput_burn_rate(0.8, 0.9, 10), 2.0);
  EXPECT_DOUBLE_EQ(serve::goodput_burn_rate(1.0, 0.9, 10), 0.0);
  EXPECT_DOUBLE_EQ(serve::goodput_burn_rate(0.0, 0.9, 0), 0.0);
}

// ------------------------------------------------------- config parsing

TEST(ServiceConfig, SpecOverlaysEveryKnob) {
  serve::ServiceConfig cfg;
  cfg.apply_spec(
      "arrivals=bursty,rate=123,burst_rate=400,queue=5,inflight=9,"
      "cells_per_s=2e9,policy=sqf,batch=16,deadline_ms=25,requests=77,"
      "seed=99,window_ms=50");
  EXPECT_EQ(cfg.arrival.kind, serve::ArrivalConfig::Kind::kBursty);
  EXPECT_DOUBLE_EQ(cfg.arrival.rate_rps, 123.0);
  EXPECT_DOUBLE_EQ(cfg.arrival.burst_rate_rps, 400.0);
  EXPECT_EQ(cfg.admission.max_queue, 5u);
  EXPECT_EQ(cfg.admission.max_inflight, 9u);
  EXPECT_DOUBLE_EQ(cfg.admission.cells_per_second, 2e9);
  EXPECT_EQ(cfg.policy, serve::BatchPolicy::kShortestFirst);
  EXPECT_EQ(cfg.max_batch, 16u);
  EXPECT_DOUBLE_EQ(cfg.deadline_ms, 25.0);
  EXPECT_EQ(cfg.num_requests, 77u);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_DOUBLE_EQ(cfg.window_ms, 50.0);
  EXPECT_THROW(cfg.apply_spec("warp_speed=9"), std::invalid_argument);
}

TEST(ServiceConfig, RejectsNonFiniteNumbers) {
  serve::ServiceConfig cfg;
  EXPECT_THROW(cfg.apply_spec("rate=nan"), std::invalid_argument);
  EXPECT_THROW(cfg.apply_spec("deadline_ms=inf"), std::invalid_argument);
  EXPECT_THROW(cfg.apply_spec("window_ms=1e999"), std::invalid_argument);
}

TEST(ServiceConfig, AppliesEnvSpecAndSlo) {
  EnvVarGuard serve_env("CUSW_SERVE", "rate=33,policy=edf");
  EnvVarGuard slo_env("CUSW_SLO", "p90<5ms");
  serve::ServiceConfig cfg;
  cfg.apply_env();
  EXPECT_DOUBLE_EQ(cfg.arrival.rate_rps, 33.0);
  EXPECT_EQ(cfg.policy, serve::BatchPolicy::kDeadline);
  ASSERT_EQ(cfg.slo.objectives.size(), 1u);
  EXPECT_EQ(cfg.slo.objectives[0].label(), "p90<5ms");
}

// -------------------------------------------------------------- service

TEST(Service, ReportInvariantsHold) {
  ServiceFixture fx;
  auto exec = fx.make_exec();
  serve::ServiceConfig cfg = small_config();
  cfg.arrival.rate_rps = 20000.0;  // far past the tiny fleet's capacity
  cfg.admission.max_queue = 2;     // so the waiting room overflows
  cfg.max_batch = 2;
  serve::Service svc(cfg, exec, fx.pool);
  const serve::ServiceReport rep = svc.run();

  EXPECT_EQ(rep.arrivals, cfg.num_requests);
  EXPECT_EQ(rep.requests.size(), cfg.num_requests);
  EXPECT_EQ(rep.admitted + rep.rejected(), rep.arrivals);
  EXPECT_EQ(rep.completed, rep.admitted);  // the queue always drains
  EXPECT_GT(rep.rejected(), 0u);
  EXPECT_EQ(rep.latency_ms.count(), rep.completed);
  EXPECT_EQ(rep.queue_delay_ms.count(), rep.completed);
  EXPECT_EQ(rep.batch_size.count(), rep.batches);
  EXPECT_GT(rep.sim_seconds, 0.0);
  EXPECT_GE(rep.goodput(), 0.0);
  EXPECT_LE(rep.goodput(), 1.0);

  std::uint64_t win_arrivals = 0, win_completed = 0;
  for (const serve::WindowStats& w : rep.windows) {
    win_arrivals += w.arrivals;
    win_completed += w.completed;
  }
  EXPECT_EQ(win_arrivals, rep.arrivals);
  EXPECT_EQ(win_completed, rep.completed);

  for (const serve::RequestRecord& r : rep.requests) {
    EXPECT_NE(r.outcome, serve::Outcome::kPending);
    if (r.completed()) {
      EXPECT_GE(r.start_ms, r.arrival_ms);
      EXPECT_GE(r.end_ms, r.start_ms);
      EXPECT_GE(r.done_ms, r.end_ms);
      EXPECT_NE(r.batch, serve::kNoBatch);
    }
  }

  ASSERT_EQ(rep.slo.size(), 2u);
  EXPECT_EQ(rep.slo[0].label, "p90<25ms");
  EXPECT_FALSE(rep.dashboard().empty());

  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(rep.to_json(), v, &err)) << err;
  EXPECT_EQ(v.find("arrivals")->number,
            static_cast<double>(cfg.num_requests));
  EXPECT_EQ(v.find("slo")->array.size(), 2u);
  EXPECT_FALSE(v.find("windows")->array.empty());
}

TEST(Service, SameSeedIsBitIdentical) {
  ServiceFixture fx;
  serve::ServiceConfig cfg = small_config();
  auto exec1 = fx.make_exec();
  auto exec2 = fx.make_exec();
  serve::Service s1(cfg, exec1, fx.pool);
  serve::Service s2(cfg, exec2, fx.pool);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  EXPECT_EQ(r1.requests, r2.requests);
  EXPECT_TRUE(r1.latency_ms == r2.latency_ms);
  EXPECT_TRUE(r1.queue_delay_ms == r2.queue_delay_ms);
  EXPECT_EQ(r1.rejected(), r2.rejected());

  serve::ServiceConfig other = cfg;
  other.seed = cfg.seed + 1;
  auto exec3 = fx.make_exec();
  serve::Service s3(other, exec3, fx.pool);
  EXPECT_FALSE(s3.run().requests == r1.requests);
}

TEST(Service, LatencyHistogramsAreThreadCountInvariant) {
  ServiceFixture fx;
  serve::ServiceConfig cfg = small_config();
  serve::ServiceReport reports[2];
  const char* threads[2] = {"1", "3"};
  for (int i = 0; i < 2; ++i) {
    EnvVarGuard guard("CUSW_THREADS", threads[i]);
    auto exec = fx.make_exec();
    serve::Service svc(cfg, exec, fx.pool);
    reports[i] = svc.run();
  }
  // The whole report — admission decisions, timestamps, histograms — is a
  // function of the simulated clock only, never of host parallelism.
  EXPECT_EQ(reports[0].requests, reports[1].requests);
  EXPECT_TRUE(reports[0].latency_ms == reports[1].latency_ms);
  EXPECT_TRUE(reports[0].queue_delay_ms == reports[1].queue_delay_ms);
  EXPECT_TRUE(reports[0].batch_size == reports[1].batch_size);
  EXPECT_DOUBLE_EQ(reports[0].sim_seconds, reports[1].sim_seconds);
}

TEST(Service, DegradedFleetComposesWithFaultLayer) {
  ServiceFixture fx;
  cudasw::MultiGpuConfig mg;
  mg.faults.lose_device = 0;
  mg.faults.lose_at = 0;
  auto clean = fx.make_exec();
  auto degraded = fx.make_exec(mg);
  serve::ServiceConfig cfg = small_config();
  serve::Service sc(cfg, clean, fx.pool);
  serve::Service sd(cfg, degraded, fx.pool);
  const auto rc = sc.run();
  const auto rd = sd.run();
  EXPECT_GT(rd.failovers, 0u);
  EXPECT_EQ(rc.failovers, 0u);
  // Losing a device never loses work, it loses time.
  EXPECT_GT(rd.sim_seconds, rc.sim_seconds);
}

TEST(Service, TraceCarriesRequestLanesAndSloCounters) {
  TraceGuard guard;
  const std::string path = "test_serve_trace.json";
  obs::configure_trace(path);
  ServiceFixture fx;
  auto exec = fx.make_exec();
  serve::ServiceConfig cfg = small_config();
  cfg.arrival.rate_rps = 20000.0;  // overload: rejected lanes appear too
  cfg.admission.max_queue = 2;
  cfg.max_batch = 2;
  serve::Service svc(cfg, exec, fx.pool);
  const auto rep = svc.run();
  ASSERT_EQ(obs::flush_trace(), path);

  const std::string text = read_file(path);
  const obs::TraceCheck check = obs::validate_chrome_trace(text);
  EXPECT_TRUE(check.ok) << check.error;
  // One async lane per arrival (rejected requests get a lane too), plus
  // per-window SLO burn-rate / goodput counter samples.
  EXPECT_EQ(check.lanes, rep.arrivals);
  EXPECT_GE(check.counters, rep.windows.size());
  EXPECT_GT(check.asyncs, 2 * rep.arrivals);
  std::remove(path.c_str());
}

// ------------------------------------------------- trace_check (asyncs)

TEST(TraceCheckAsync, AcceptsBalancedNestedLanes) {
  const std::string doc = trace_doc(
      async_ev("b", "request", 0, "\"1\"") + "," +
      async_ev("b", "queue", 0, "\"1\"") + "," +
      async_ev("e", "queue", 4, "\"1\"") + "," +
      async_ev("b", "execute", 4, "\"1\"") + "," +
      async_ev("n", "retry", 5, "\"1\"") + "," +
      async_ev("e", "execute", 9, "\"1\"") + "," +
      async_ev("e", "request", 9, "\"1\"") + "," +
      async_ev("b", "request", 2, "\"2\"") + "," +
      async_ev("e", "request", 3, "\"2\""));
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.asyncs, 9u);
  EXPECT_EQ(check.lanes, 2u);
}

TEST(TraceCheckAsync, NumericIdsFormTheirOwnLanes) {
  const std::string doc = trace_doc(async_ev("b", "request", 0, "7") + "," +
                                    async_ev("e", "request", 1, "7"));
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.lanes, 1u);
}

TEST(TraceCheckAsync, RejectsEndBeforeBegin) {
  const std::string doc = trace_doc(async_ev("b", "request", 10, "\"1\"") +
                                    "," + async_ev("e", "request", 5, "\"1\""));
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("ends before it begins"), std::string::npos)
      << check.error;
}

TEST(TraceCheckAsync, RejectsMismatchedEndName) {
  const std::string doc = trace_doc(async_ev("b", "request", 0, "\"1\"") + "," +
                                    async_ev("b", "queue", 1, "\"1\"") + "," +
                                    async_ev("e", "request", 2, "\"1\""));
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("does not match open"), std::string::npos)
      << check.error;
}

TEST(TraceCheckAsync, RejectsUnclosedLaneAtEndOfFile) {
  const std::string doc = trace_doc(async_ev("b", "request", 0, "\"1\""));
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("never ends"), std::string::npos) << check.error;
}

TEST(TraceCheckAsync, RejectsEventsAfterLaneCloses) {
  const std::string doc = trace_doc(async_ev("b", "request", 0, "\"1\"") + "," +
                                    async_ev("e", "request", 5, "\"1\"") + "," +
                                    async_ev("n", "late", 6, "\"1\""));
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("outermost span closed"), std::string::npos)
      << check.error;
}

TEST(TraceCheckAsync, RejectsInstantOutsideAnySpan) {
  const std::string doc = trace_doc(async_ev("n", "lost", 0, "\"1\""));
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("outside any open span"), std::string::npos)
      << check.error;
}

TEST(TraceCheckAsync, RequiresCatAndId) {
  const std::string no_cat =
      "{\"traceEvents\": [{\"name\": \"r\", \"ph\": \"b\", \"pid\": 50, "
      "\"tid\": 0, \"ts\": 0, \"id\": \"1\"}]}";
  EXPECT_FALSE(obs::validate_chrome_trace(no_cat).ok);
  const std::string no_id =
      "{\"traceEvents\": [{\"name\": \"r\", \"ph\": \"b\", \"pid\": 50, "
      "\"tid\": 0, \"cat\": \"c\", \"ts\": 0}]}";
  EXPECT_FALSE(obs::validate_chrome_trace(no_id).ok);
}

TEST(TraceCheckAsync, RejectsDurOnAsyncEvents) {
  const std::string doc =
      "{\"traceEvents\": [{\"name\": \"r\", \"ph\": \"b\", \"pid\": 50, "
      "\"tid\": 0, \"cat\": \"c\", \"ts\": 0, \"dur\": 3, \"id\": \"1\"}]}";
  const auto check = obs::validate_chrome_trace(doc);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("carries a dur"), std::string::npos)
      << check.error;
}

}  // namespace
}  // namespace cusw
