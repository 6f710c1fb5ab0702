/// \file test_extensions.cpp
/// \brief Tests for the paper §V (Discussion) extensions: EC transfer to
/// the SAT sweeper, distance-1 CEX simulation, adaptive L-phase passes,
/// and the graduated global-checking escalation.

#include <gtest/gtest.h>

#include "aig/aig_analysis.hpp"
#include "engine/engine.hpp"
#include "gen/arith.hpp"
#include "opt/resyn.hpp"
#include "portfolio/portfolio.hpp"
#include "sweep/sat_sweeper.hpp"
#include "test_util.hpp"

namespace simsweep {
namespace {

using aig::Aig;

engine::EngineParams small_params() {
  engine::EngineParams p;
  p.k_P = 16;
  p.k_p = 10;
  p.k_g = 10;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  return p;
}

TEST(EcTransfer, SweeperAcceptsInitialBank) {
  const Aig a = testutil::random_aig(8, 120, 5, 400);
  const Aig b = opt::resyn_light(a);
  const Aig m = aig::make_miter(a, b);
  if (aig::miter_proved(m)) GTEST_SKIP() << "strash solved it";

  const sim::PatternBank bank =
      sim::PatternBank::random(m.num_pis(), 8, 41);
  sweep::SweeperParams p;
  p.initial_bank = &bank;
  const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
}

TEST(EcTransfer, EngineBankIsExposedAndUsable) {
  const Aig a = testutil::random_aig(10, 200, 6, 401);
  const Aig b = opt::resyn_light(a);
  engine::EngineParams p = small_params();
  p.k_P = 4;  // cripple so the engine leaves a residue with its bank
  p.k_p = 3;
  p.k_g = 3;
  p.k_l = 3;
  p.escalate_global = false;
  p.max_local_phases = 1;
  const engine::EngineResult er = engine::SimCecEngine(p).check(a, b);
  ASSERT_TRUE(er.bank.has_value());
  EXPECT_EQ(er.bank->num_pis(), a.num_pis());
  if (er.verdict == Verdict::kUndecided) {
    sweep::SweeperParams sp;
    sp.initial_bank = &*er.bank;
    const sweep::SweepResult sr =
        sweep::SatSweeper(sp).check_miter(er.reduced);
    EXPECT_EQ(sr.verdict, Verdict::kEquivalent);
  }
}

TEST(EcTransfer, CombinedFlowStillSoundWithAndWithoutTransfer) {
  const Aig a = testutil::random_aig(10, 220, 6, 402);
  const Aig b = testutil::mutate(a, 403);
  const bool equivalent = aig::brute_force_equivalent(a, b);
  for (bool transfer : {false, true}) {
    portfolio::CombinedParams cp;
    cp.engine = small_params();
    cp.transfer_ec = transfer;
    const portfolio::CombinedResult r = portfolio::combined_check(a, b, cp);
    ASSERT_NE(r.verdict, Verdict::kUndecided);
    EXPECT_EQ(r.verdict == Verdict::kEquivalent, equivalent)
        << "transfer=" << transfer;
  }
}

TEST(Distance1Cex, SoundAndAgreesWithBaseline) {
  for (std::uint64_t seed : {410u, 411u, 412u}) {
    const Aig a = testutil::random_aig(8, 120, 5, seed);
    const Aig b = testutil::mutate(a, seed + 7);
    const bool equivalent = aig::brute_force_equivalent(a, b);
    engine::EngineParams p = small_params();
    p.distance1_cex = true;
    const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
    if (r.verdict != Verdict::kUndecided) {
      EXPECT_EQ(r.verdict == Verdict::kEquivalent, equivalent);
    }
  }
}

TEST(AdaptivePasses, SoundOnEquivalentPairs) {
  const Aig a = testutil::random_aig(9, 160, 5, 420);
  const Aig b = opt::resyn_light(a);
  engine::EngineParams p = small_params();
  p.adaptive_passes = true;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
}

TEST(Escalation, ProvesPairsBeyondInitialKg) {
  // Multiplier architectures: supports up to 12 exceed the tiny initial
  // k_g; escalation to k_P must still finish the proof without SAT.
  const Aig a = gen::array_multiplier(6);
  const Aig b = gen::wallace_multiplier(6);
  engine::EngineParams p = engine::full_flow(small_params());
  p.enable_po_phase = false;  // force the G/L machinery to do the work
  p.k_g = 4;
  p.k_P = 12;
  p.k_g_step = 4;
  p.escalate_global = true;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
}

TEST(Escalation, DisabledFlowMatchesPaperFigure5) {
  // With escalation off (L phases on), the engine must still be sound,
  // merely weaker.
  const Aig a = gen::array_multiplier(6);
  const Aig b = gen::wallace_multiplier(6);
  engine::EngineParams p = engine::full_flow(small_params());
  p.enable_po_phase = false;
  p.k_g = 4;
  p.escalate_global = false;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
}

TEST(Escalation, NotEquivalentStillDetected) {
  const Aig a = gen::array_multiplier(5);
  Aig b = gen::wallace_multiplier(5);
  b.set_po(2, b.add_and(b.po(2), b.pi_lit(0)));
  engine::EngineParams p = engine::full_flow(small_params());
  p.k_g = 4;
  p.escalate_global = true;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kNotEquivalent);
}

}  // namespace
}  // namespace simsweep
