// Property-based sweeps (parameterised gtest): invariants that must hold
// across the parameter spaces of the aligners and the simulator.
#include <gtest/gtest.h>

#include "cudasw/intra_task_improved.h"
#include "gpusim/occupancy.h"
#include "swps3/striped_sw.h"
#include "test_helpers.h"

namespace cusw {
namespace sw {
// Print a matrix parameter by name: the default pointer print puts a
// per-process address into the listed test name.
void PrintTo(const ScoringMatrix* m, std::ostream* os) { *os << m->name(); }
}  // namespace sw

namespace {

using sw::GapPenalty;
using sw::ScoringMatrix;

// ---- gap penalty sweep: striped vs scalar -------------------------------

class GapSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GapSweep, StripedMatchesScalarReference) {
  const auto [open, extend] = GetParam();
  const GapPenalty gap{open, extend};
  const auto& m = ScoringMatrix::blosum62();
  for (int i = 0; i < 8; ++i) {
    const auto q = test::random_codes(20 + i * 17, 4000 + i);
    const auto t = test::random_codes(30 + i * 13, 5000 + i);
    const swps3::StripedProfile prof(q, m);
    ASSERT_EQ(swps3::striped_sw_score(prof, t, gap).score,
              sw::sw_score(q, t, m, gap))
        << "open=" << open << " extend=" << extend << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Penalties, GapSweep,
    ::testing::Values(std::pair{0, 1}, std::pair{1, 1}, std::pair{5, 1},
                      std::pair{10, 2}, std::pair{12, 3}, std::pair{20, 1},
                      std::pair{3, 3}),
    [](const auto& info) {
      return "open" + std::to_string(info.param.first) + "_ext" +
             std::to_string(info.param.second);
    });

// ---- occupancy properties over the launch-shape space -------------------

class OccupancySweep : public ::testing::TestWithParam<int> {};

TEST_P(OccupancySweep, InvariantsHold) {
  const int threads = GetParam();
  for (const auto& dev : {gpusim::DeviceSpec::tesla_c1060(),
                          gpusim::DeviceSpec::tesla_c2050()}) {
    if (threads > dev.max_threads_per_block) continue;
    for (int regs : {0, 16, 32, 64}) {
      for (std::size_t shared : {std::size_t{0}, std::size_t{4096},
                                 std::size_t{16384}}) {
        if (shared > dev.shared_mem_per_sm) continue;
        const auto occ = gpusim::compute_occupancy(dev, threads, shared, regs);
        // Never exceeds any per-SM cap.
        EXPECT_LE(occ.blocks_per_sm * threads, dev.max_threads_per_sm);
        EXPECT_LE(occ.blocks_per_sm, dev.max_blocks_per_sm);
        if (shared > 0) {
          EXPECT_LE(static_cast<std::size_t>(occ.blocks_per_sm) * shared,
                    dev.shared_mem_per_sm);
        }
        if (regs > 0) {
          EXPECT_LE(static_cast<std::size_t>(occ.blocks_per_sm) *
                        static_cast<std::size_t>(regs * threads),
                    dev.registers_per_sm);
        }
        EXPECT_GE(occ.occupancy, 0.0);
        EXPECT_LE(occ.occupancy, 1.0);
        // Monotonicity: more registers never increases residency.
        const auto occ2 =
            gpusim::compute_occupancy(dev, threads, shared, regs + 16);
        EXPECT_LE(occ2.blocks_per_sm, occ.blocks_per_sm);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockShapes, OccupancySweep,
                         ::testing::Values(32, 64, 96, 128, 192, 256, 320,
                                           512));

// ---- improved-kernel invariants over strip shapes ------------------------

struct StripShape {
  int threads;
  int tile_h;
};

class StripSweep : public ::testing::TestWithParam<StripShape> {};

TEST_P(StripSweep, TransactionsShrinkAsStripsGrow) {
  // Larger strips -> fewer passes -> fewer strip-boundary global
  // transactions (the §III-C tradeoff), never more.
  const auto p = GetParam();
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c1060().scaled(0.1));
  const auto query = test::random_codes(640, 1);
  const auto db = seq::uniform_db(2, 700, 800, 2);
  const auto& m = ScoringMatrix::blosum62();

  cudasw::ImprovedIntraParams small, big;
  small.threads_per_block = p.threads;
  small.tile_height = p.tile_h;
  big.threads_per_block = p.threads * 2;
  big.tile_height = p.tile_h;
  const auto r_small =
      cudasw::run_intra_task_improved(dev, query, db, m, {10, 2}, small);
  const auto r_big =
      cudasw::run_intra_task_improved(dev, query, db, m, {10, 2}, big);
  EXPECT_EQ(r_small.scores, r_big.scores);
  EXPECT_GE(r_small.stats.global.transactions,
            r_big.stats.global.transactions);
}

INSTANTIATE_TEST_SUITE_P(Shapes, StripSweep,
                         ::testing::Values(StripShape{16, 4}, StripShape{32, 4},
                                           StripShape{64, 4}, StripShape{16, 8},
                                           StripShape{32, 8}),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param.threads) +
                                  "_h" + std::to_string(info.param.tile_h);
                         });

// ---- scoring-system sanity over both embedded matrices -------------------

class MatrixSweep : public ::testing::TestWithParam<const ScoringMatrix*> {};

TEST_P(MatrixSweep, SelfAlignmentDominates) {
  const auto& m = *GetParam();
  for (int i = 0; i < 10; ++i) {
    const auto q = test::random_codes(60, 9000 + i);
    const auto t = test::random_codes(60, 9100 + i);
    const int self = sw::sw_score(q, q, m, {10, 2});
    EXPECT_GE(self, sw::sw_score(q, t, m, {10, 2}));
    // Self score equals the sum of diagonal scores.
    int diag = 0;
    for (auto c : q) diag += m.score(c, c);
    EXPECT_EQ(self, diag);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrices, MatrixSweep,
                         ::testing::Values(&ScoringMatrix::blosum62(),
                                           &ScoringMatrix::blosum50()),
                         [](const auto& info) {
                           return info.param->name();
                         });

}  // namespace
}  // namespace cusw
