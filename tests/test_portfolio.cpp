/// \file test_portfolio.cpp
/// \brief Tests for the combined (engine + SAT) and portfolio checkers.

#include "portfolio/portfolio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "aig/aig_analysis.hpp"
#include "aig/cex.hpp"
#include "aig/miter.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/resume.hpp"
#include "common/timer.hpp"
#include "gen/arith.hpp"
#include "gen/suite.hpp"
#include "opt/resyn.hpp"
#include "test_util.hpp"
#include "obs/metric_names.hpp"

namespace simsweep::portfolio {
namespace {

using aig::Aig;

CombinedParams small_combined() {
  CombinedParams p;
  p.engine.k_P = 16;
  p.engine.k_p = 10;
  p.engine.k_g = 10;
  p.engine.k_l = 6;
  p.engine.memory_words = 1 << 16;
  return p;
}

TEST(Combined, EngineAloneSolvesEasyCase) {
  const Aig a = gen::ripple_adder(5);
  const Aig b = gen::kogge_stone_adder(5);
  const CombinedResult r = combined_check(a, b, small_combined());
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_FALSE(r.used_sat);  // 10-PI supports fit the one-shot P phase
  EXPECT_DOUBLE_EQ(r.reduction_percent, 100.0);
}

TEST(Combined, SatFinishesWhatEngineLeaves) {
  // Cripple the engine so it must hand a residue to the SAT sweeper.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  p.engine = engine::full_flow(p.engine);
  p.engine.k_P = 4;
  p.engine.k_p = 3;
  p.engine.k_g = 3;
  p.engine.k_l = 3;
  p.engine.max_local_phases = 1;
  const CombinedResult r = combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  // Either the engine managed alone or SAT ran; both are acceptable, but
  // the timing columns must be consistent with the path taken.
  if (r.used_sat) {
    EXPECT_GT(r.sat_seconds, 0.0);
  }
}

TEST(Combined, DisproofPropagates) {
  const Aig a = testutil::random_aig(8, 120, 5, 304);
  const Aig b = testutil::mutate(a, 305);
  if (aig::brute_force_equivalent(a, b)) GTEST_SKIP() << "mutation no-op";
  const CombinedResult r = combined_check(a, b, small_combined());
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  if (r.cex) {
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

class CombinedOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CombinedOracle, AlwaysDecidesSmallMitersCorrectly) {
  const Aig a = testutil::random_aig(8, 110, 5, GetParam());
  const Aig b = (GetParam() % 2) ? testutil::mutate(a, GetParam() + 5)
                                 : opt::resyn_light(a);
  const bool equivalent = aig::brute_force_equivalent(a, b);
  const CombinedResult r = combined_check(a, b, small_combined());
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.verdict == Verdict::kEquivalent, equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombinedOracle,
                         ::testing::Values(310, 311, 312, 313, 314, 315));

TEST(Combined, InterleavedRewritingMergesAttemptStats) {
  // Regression: with interleave_rewriting, CombinedResult::engine_stats
  // must cover ALL engine attempts. The bug merged only total_seconds and
  // initial_ands, dropping the first attempt's proved-pair counters.
  const Aig a = testutil::random_aig(12, 260, 6, 340);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  // Cripple the engine so the first attempt leaves a residue (forcing a
  // second, rewritten attempt) while still proving some pairs.
  p.engine.k_P = 4;
  p.engine.k_p = 3;
  p.engine.k_g = 4;
  p.engine.k_l = 4;
  p.engine.max_local_phases = 1;
  p.engine.escalate_global = false;

  // Baseline: the first attempt alone.
  const engine::SimCecEngine eng(p.engine);
  const engine::EngineResult first =
      eng.check_miter(aig::make_miter(a, b));
  if (first.verdict != Verdict::kUndecided)
    GTEST_SKIP() << "crippled engine still decided the miter";
  const std::size_t first_proved = first.stats.pairs_proved_global +
                                   first.stats.pairs_proved_local +
                                   first.stats.pos_proved;

  p.interleave_rewriting = true;
  p.max_rewrite_rounds = 1;
  const CombinedResult r = combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  // Merged stats: at least the first attempt's work is in there, the
  // chain is measured against the original miter, and the phase-time
  // partition covers both attempts.
  EXPECT_GE(r.engine_stats.pairs_proved_global +
                r.engine_stats.pairs_proved_local +
                r.engine_stats.pos_proved,
            first_proved);
  EXPECT_EQ(r.engine_stats.initial_ands, first.stats.initial_ands);
  EXPECT_GE(r.engine_stats.local_phases, first.stats.local_phases);
  // Time totals are noisy across runs; only their structure is checked:
  // the merged total must itself partition into phases + other.
  EXPECT_GT(r.engine_stats.total_seconds, 0.0);
  EXPECT_NEAR(r.engine_stats.po_seconds + r.engine_stats.global_seconds +
                  r.engine_stats.local_seconds +
                  r.engine_stats.other_seconds,
              r.engine_stats.total_seconds, 1e-6);
  // The report snapshot exists and carries the merged engine gauges.
  EXPECT_DOUBLE_EQ(r.report.value(obs::metric::kEngineTotalSeconds),
                   r.engine_stats.total_seconds);
  EXPECT_DOUBLE_EQ(r.report.value(obs::metric::kEnginePairsProvedLocal),
                   static_cast<double>(r.engine_stats.pairs_proved_local));
}

TEST(Combined, SweeperGetsRemainingBudgetNotFullBudget) {
  // Regression (deadline plumbing, DESIGN.md §2.4): engine.time_limit is
  // the budget of the WHOLE combined flow. The SAT fallback used to be
  // handed the full budget again, so a combined run could legally take
  // twice its nominal limit. Now the sweeper's effective time_limit is
  // the budget *minus* the engine's elapsed time (floored at a small
  // epsilon), and CombinedResult records it for inspection.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  // Disable every engine phase so the undecided residue — and therefore
  // the SAT fallback — is guaranteed, making the budget check
  // deterministic.
  p.engine.enable_po_phase = false;
  p.engine.enable_global_phase = false;
  p.engine.max_local_phases = 0;
  p.engine.escalate_global = false;
  p.engine.time_limit = 30.0;  // generous: the engine spends a sliver of it
  const CombinedResult r = combined_check(a, b, p);
  ASSERT_TRUE(r.used_sat);
  EXPECT_GT(r.sweeper_time_limit, 0.0);
  EXPECT_LE(r.sweeper_time_limit, p.engine.time_limit);
  // The remaining budget is the total minus what the engine consumed.
  EXPECT_LE(r.sweeper_time_limit, p.engine.time_limit - r.engine_seconds + 0.5);

  // A caller-set sweeper limit tighter than the remaining budget wins.
  CombinedParams tight = p;
  tight.sweeper.time_limit = 1e-6;
  const CombinedResult rt = combined_check(a, b, tight);
  ASSERT_TRUE(rt.used_sat);
  EXPECT_LE(rt.sweeper_time_limit, 1e-6);
  EXPECT_EQ(rt.verdict, Verdict::kUndecided);  // no time to decide

  // Unbounded flow: no clamping happens and the field stays 0.
  CombinedParams unbounded = p;
  unbounded.engine.time_limit = 0;
  const CombinedResult ru = combined_check(a, b, unbounded);
  ASSERT_TRUE(ru.used_sat);
  EXPECT_DOUBLE_EQ(ru.sweeper_time_limit, 0.0);
}

TEST(Combined, ExhaustedBudgetShortCircuitsAttempts) {
  // Regression (expired-budget dribble): remaining() used to floor the
  // remainder at 0.05 s, so a spent budget still granted every
  // interleaved-rewriting round and the SAT fallback a 50 ms slice each —
  // up to max_rewrite_rounds+1 extra attempts past the deadline. With the
  // fix, a budget exhausted by the first engine attempt stops the flow
  // cold: exactly ONE engine attempt, no rewrite rounds, no sweeper.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  p.engine.enable_po_phase = false;
  p.engine.enable_global_phase = false;
  p.engine.max_local_phases = 0;
  p.engine.escalate_global = false;
  p.engine.time_limit = 1e-6;  // gone before the first attempt returns
  p.interleave_rewriting = true;
  p.max_rewrite_rounds = 5;  // pre-fix: 5 bonus rounds + the sweeper
  const CombinedResult r = combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.report.count(obs::metric::kEngineAttempts), 1u);
  EXPECT_FALSE(r.used_sat);
  EXPECT_DOUBLE_EQ(r.sat_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.sweeper_time_limit, 0.0);
}

TEST(Combined, ArmedCancelAndBudgetAddNoPerCheckFloor) {
  // A cancel flag that is never raised and a run budget are read where the
  // phases already poll; they start no thread and add no fixed cost per
  // check. log2 at doublings 0 checks in about a millisecond, so twenty
  // armed checks must finish within 0.1 s of twenty unarmed ones. The best
  // of three tries absorbs a loaded host.
  gen::SuiteParams sp;
  sp.doublings = 0;
  const gen::BenchCase c = gen::make_case("log2", sp);
  const Aig m = aig::make_miter(c.original, c.optimized);
  CombinedParams unarmed;
  unarmed.engine.k_P = 24;
  unarmed.engine.k_p = 14;
  unarmed.engine.k_g = 14;
  std::atomic<bool> cancel{false};
  CombinedParams armed = unarmed;
  armed.engine.cancel = &cancel;
  armed.engine.time_limit = 60;
  armed.sweeper.cancel = &cancel;
  const auto twenty_checks = [&m](const CombinedParams& p) {
    Timer t;
    for (int k = 0; k < 20; ++k)
      EXPECT_EQ(combined_check_miter(m, p).verdict, Verdict::kEquivalent);
    return t.seconds();
  };
  double best_gap = 1e9;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const double base = twenty_checks(unarmed);
    best_gap = std::min(best_gap, twenty_checks(armed) - base);
  }
  EXPECT_LT(best_gap, 0.1);
}

TEST(Combined, ResumedRunChargesElapsedAgainstDeadline) {
  // Regression (deadline plumbing x checkpoint/resume, DESIGN.md §2.8):
  // a resumed run restores the snapshot's wall-clock and charges it
  // against engine.time_limit, so the SAT fallback receives only the TRUE
  // remainder of the original budget — not the full budget restarted.
  // Here the "crashed" run had burned 80% of a 30 s budget; the resumed
  // leg's sweeper may see at most the remaining 6 s.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";

  ckpt::CheckpointedParams cp;
  cp.combined = small_combined();
  // Same phase gating as above: the SAT fallback is guaranteed.
  cp.combined.engine.enable_po_phase = false;
  cp.combined.engine.enable_global_phase = false;
  cp.combined.engine.max_local_phases = 0;
  cp.combined.engine.escalate_global = false;
  cp.combined.engine.time_limit = 30.0;
  cp.checkpoint_path = ::testing::TempDir() + "simsweep_budget.ckpt";
  std::remove(cp.checkpoint_path.c_str());
  std::remove((cp.checkpoint_path + ".prev").c_str());

  // Hand-craft the crashed run's engine-boundary snapshot: 24 s already
  // spent, miter untouched.
  const aig::Aig miter = aig::make_miter(a, b);
  ckpt::Snapshot snap;
  snap.stage = ckpt::Stage::kEngine;
  snap.fingerprint = ckpt::run_fingerprint(miter, cp.combined);
  snap.elapsed_seconds = 24.0;
  snap.boundary = "G";
  snap.miter = miter;
  snap.engine_stats.initial_ands = miter.num_ands();
  snap.engine_stats.final_ands = miter.num_ands();
  snap.engine_stats.pos_total = miter.num_pos();
  const std::vector<std::uint8_t> bytes = ckpt::serialize(snap);
  {
    std::ofstream out(cp.checkpoint_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  const ckpt::CheckpointedResult r =
      ckpt::checked_combined_check_miter(miter, cp);
  EXPECT_TRUE(r.resumed);
  ASSERT_TRUE(r.combined.used_sat);
  EXPECT_GT(r.combined.sweeper_time_limit, 0.0);
  EXPECT_LE(r.combined.sweeper_time_limit, 6.0);
}

TEST(Portfolio, FirstDecisiveEngineWins) {
  const Aig a = gen::array_multiplier(4);
  const Aig b = gen::wallace_multiplier(4);
  const PortfolioResult r = portfolio_check(a, b, small_combined());
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_TRUE(r.winner == "sim+sat" || r.winner == "sat") << r.winner;
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Portfolio, DisproofWithCex) {
  // Whichever arm wins, a disproof leaves the race with a counterexample
  // that replays on the miter.
  unsigned refuted = 0;
  for (std::uint64_t seed = 330; refuted < 4 && seed < 370; seed += 2) {
    SCOPED_TRACE(seed);
    const Aig a = testutil::random_aig(8, 100, 4, seed);
    const Aig b = testutil::mutate(a, seed + 1);
    if (aig::brute_force_equivalent(a, b)) continue;  // mutation no-op
    const Aig miter = aig::make_miter(a, b);
    const PortfolioResult r = portfolio_check_miter(miter, small_combined());
    ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
    ASSERT_TRUE(r.cex.has_value()) << "winner " << r.winner;
    EXPECT_GE(aig::find_failing_po(miter, *r.cex), 0) << "winner " << r.winner;
    ++refuted;
  }
  EXPECT_EQ(refuted, 4u);
}

TEST(Portfolio, SatArmDoesNotStallCombinedArm) {
  // The engine decides sin in a fraction of a second; SAT sweeping alone
  // needs many seconds. The race must return about when the combined arm
  // alone would. When the SAT arm's sweep rounds held the pool the
  // combined arm launches on, the race took 7-10 s here against 0.1 s for
  // the combined flow alone. The bound is relative to the combined flow's
  // own time, so a slow (sanitizer) build scales it too.
  gen::SuiteParams sp;
  sp.doublings = 0;
  const gen::BenchCase c = gen::make_case("sin", sp);
  const Aig miter = aig::make_miter(c.original, c.optimized);
  CombinedParams p;
  p.engine.k_P = 24;
  p.engine.k_p = 14;
  p.engine.k_g = 14;
  p.sweeper.time_limit = 60;
  Timer alone;
  ASSERT_EQ(combined_check_miter(miter, p).verdict, Verdict::kEquivalent);
  const double alone_seconds = alone.seconds();
  const PortfolioResult r = portfolio_check_miter(miter, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r.winner, "sim+sat");
  EXPECT_LT(r.seconds, 5 * alone_seconds + 1.0)
      << "combined flow alone took " << alone_seconds << " s";
}

TEST(Portfolio, AllUndecidedReportsUndecided) {
  const Aig a = testutil::random_aig(12, 260, 6, 322);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  // Both arms run out of time before they decide anything.
  CombinedParams p = small_combined();
  p.engine.time_limit = 1e-9;
  p.sweeper.time_limit = 1e-9;
  const PortfolioResult r = portfolio_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
  EXPECT_TRUE(r.winner.empty());
}

}  // namespace
}  // namespace simsweep::portfolio
