// Host-parallelism speedup harness: runs a scaled Table II workload
// (Swiss-Prot profile, both kernels engaged) once with CUSW_THREADS=1 and
// once with the requested/parallel thread count, reports serial vs
// parallel *host wall-clock* (simulated GCUPs are identical by the
// determinism contract — that identity is checked and reported too), and
// writes the result to BENCH_host_parallel.json.
//
// Flags: --threads=N picks the parallel worker count (default: hardware
// threads); --repeat=N takes the best of N timed passes per mode.
#include "bench_common.h"

namespace cusw {
namespace {

struct Measurement {
  double wall_seconds = 0.0;
  std::vector<cudasw::SearchReport> reports;
};

bool reports_identical(const std::vector<cudasw::SearchReport>& a,
                       const std::vector<cudasw::SearchReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].scores != b[i].scores) return false;
    if (a[i].seconds() != b[i].seconds()) return false;  // exact, by design
    if (a[i].inter_stats.global.transactions !=
        b[i].inter_stats.global.transactions)
      return false;
    if (a[i].intra_stats.global.transactions !=
        b[i].intra_stats.global.transactions)
      return false;
  }
  return true;
}

void run(std::size_t parallel_threads, int repeat, bool hardware_limited) {
  bench::print_header(
      "Host-parallel speedup — serial vs CUSW_THREADS worker sharding",
      "this repo's host execution model (DESIGN.md §5); workload from "
      "Hains et al., IPDPS'11, Table II");

  const auto& matrix = sw::ScoringMatrix::blosum62();
  const auto db =
      seq::DatabaseProfile::swissprot().synthesize(bench::scaled(1500), 0x51AB);
  std::vector<std::vector<seq::Code>> queries;
  for (std::size_t len : {144, 567}) {
    Rng rng(len + 3);
    queries.push_back(seq::random_protein(len, rng).residues);
  }
  const auto slice = bench::c1060();

  const auto measure = [&](std::size_t threads) {
    setenv("CUSW_THREADS", std::to_string(threads).c_str(), 1);
    Measurement best;
    for (int r = 0; r < repeat; ++r) {
      gpusim::Device dev(slice.spec);
      cudasw::SearchConfig cfg;
      WallTimer timer;
      auto reports = cudasw::search_batch(dev, queries, db, matrix, cfg);
      const double wall = timer.seconds();
      if (r == 0 || wall < best.wall_seconds) {
        best.wall_seconds = wall;
        best.reports = std::move(reports);
      }
    }
    return best;
  };

  const Measurement serial = measure(1);
  const Measurement parallel = measure(parallel_threads);

  const bool identical = reports_identical(serial.reports, parallel.reports);
  const double speedup = parallel.wall_seconds > 0.0
                             ? serial.wall_seconds / parallel.wall_seconds
                             : 0.0;
  double cells = 0.0, sim_seconds = 0.0;
  for (const auto& r : serial.reports) {
    cells += static_cast<double>(r.cells());
    sim_seconds += r.seconds();
  }
  const double sim_gcups =
      sim_seconds > 0.0 ? slice.eq(cells / sim_seconds * 1e-9) : 0.0;
  const std::size_t hw = ThreadPool::default_thread_count();

  Table t({"mode", "threads", "wall s", "speedup", "simulated identical"});
  t.add_row({std::string("serial"), std::int64_t{1}, serial.wall_seconds, 1.0,
             std::string("-")});
  t.add_row({std::string("parallel"),
             static_cast<std::int64_t>(parallel_threads),
             parallel.wall_seconds, speedup,
             std::string(identical ? "yes" : "NO")});
  bench::emit(t);
  std::printf(
      "hardware threads: %zu; simulated GCUPs (thread-count invariant): "
      "%.2f\n"
      "expected shape: speedup approaches the worker count on multi-core\n"
      "hosts (>= 2x with >= 4 hardware threads); 'simulated identical'\n"
      "must always be yes.\n\n",
      hw, sim_gcups);
  if (hardware_limited) {
    std::printf(
        "NOTE: worker count clamped to the %zu available hardware "
        "thread(s);\nwall-clock speedup is not meaningful on this host; "
        "the JSON stamps\n\"hardware_limited\": true so comparisons skip "
        "the wall-clock keys.\n\n",
        hw);
  }

  // Keys and filename are the cross-PR perf-trajectory contract; keep
  // them stable (the payload is custom, so it goes through emit_json
  // directly rather than the BenchMain table mirror).
  char payload[512];
  std::snprintf(payload, sizeof(payload),
                "{\n"
                "  \"bench\": \"host_parallel_speedup\",\n"
                "  \"workload\": \"swissprot-profile, %zu sequences, "
                "%zu queries\",\n"
                "  \"hardware_threads\": %zu,\n"
                "  \"parallel_threads\": %zu,\n"
                "  \"hardware_limited\": %s,\n"
                "  \"serial_wall_seconds\": %.6f,\n"
                "  \"parallel_wall_seconds\": %.6f,\n"
                "  \"speedup\": %.3f,\n"
                "  \"simulated_identical\": %s,\n"
                "  \"simulated_gcups\": %.3f\n"
                "}\n",
                db.size(), queries.size(), hw, parallel_threads,
                hardware_limited ? "true" : "false", serial.wall_seconds,
                parallel.wall_seconds, speedup,
                identical ? "true" : "false", sim_gcups);
  bench::emit_json("host_parallel", payload);
}

}  // namespace
}  // namespace cusw

int main(int argc, char** argv) {
  cusw::bench::note_seed(0x51AB);  // primary workload seed, stamped into the JSON
  cusw::Cli cli(argc, argv);
  const auto threads = static_cast<long>(cli.get_int("threads", 0));
  const std::size_t requested =
      threads > 1
          ? static_cast<std::size_t>(threads)
          : std::max<std::size_t>(2, cusw::ThreadPool::default_thread_count());
  // A worker count above the hardware's parallelism cannot produce a real
  // speedup — on a 1-thread box it used to report a meaningless ~1.0x
  // "parallel" figure. Clamp, and stamp the JSON so whoever compares it
  // knows the wall-clock keys carry no signal on this host.
  const std::size_t limit = std::min(cusw::util::parallelism(),
                                     cusw::ThreadPool::default_thread_count());
  const bool hardware_limited = requested > limit;
  const std::size_t parallel_threads = hardware_limited ? limit : requested;
  const auto repeat = static_cast<int>(cli.get_int("repeat", 1));
  cusw::run(parallel_threads, std::max(1, repeat), hardware_limited);
  return 0;
}
