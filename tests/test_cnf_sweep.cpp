/// \file test_cnf_sweep.cpp
/// \brief Tests for the Tseitin encoder and the SAT-sweeping baseline.

#include <gtest/gtest.h>

#include <atomic>

#include "aig/aig_analysis.hpp"
#include "cnf/tseitin.hpp"
#include "gen/arith.hpp"
#include "opt/refactor.hpp"
#include "opt/resyn.hpp"
#include "sweep/pair_solver.hpp"
#include "sweep/sat_sweeper.hpp"
#include "test_util.hpp"

namespace simsweep {
namespace {

using aig::Aig;
using aig::Lit;

TEST(Tseitin, EncodesAndSemantics) {
  Aig a(2);
  const Lit g = a.add_and(a.pi_lit(0), aig::lit_not(a.pi_lit(1)));
  sat::Solver solver;
  cnf::TseitinEncoder enc(a, solver);
  const sat::Lit sg = enc.encode(g);
  // g & pi1 is UNSAT (g requires !pi1).
  const sat::Lit p1 = sat::mk_lit(enc.sat_var(2));
  EXPECT_EQ(solver.solve({sg, p1}), sat::Solver::Result::kUnsat);
  // g alone is SAT with pi0=1, pi1=0.
  ASSERT_EQ(solver.solve({sg}), sat::Solver::Result::kSat);
  EXPECT_EQ(solver.model_value(enc.sat_var(1)), sat::LBool::kTrue);
  EXPECT_EQ(solver.model_value(enc.sat_var(2)), sat::LBool::kFalse);
}

TEST(Tseitin, LazyEncodingOnlyTouchesCone) {
  Aig a(4);
  const Lit g1 = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit g2 = a.add_and(a.pi_lit(2), a.pi_lit(3));
  sat::Solver solver;
  cnf::TseitinEncoder enc(a, solver);
  enc.encode(g1);
  EXPECT_GE(enc.sat_var(aig::lit_var(g1)), 0);
  EXPECT_LT(enc.sat_var(aig::lit_var(g2)), 0);  // untouched cone
  EXPECT_LT(enc.sat_var(3), 0);                 // PI of g2 untouched
}

TEST(Tseitin, ConstantNode) {
  Aig a(1);
  sat::Solver solver;
  cnf::TseitinEncoder enc(a, solver);
  const sat::Lit c0 = enc.encode(aig::kLitFalse);
  EXPECT_EQ(solver.solve({c0}), sat::Solver::Result::kUnsat);
  const sat::Lit c1 = enc.encode(aig::kLitTrue);
  EXPECT_EQ(solver.solve({c1}), sat::Solver::Result::kSat);
}

class TseitinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TseitinProperty, MiterSatIffInequivalent) {
  const Aig a = testutil::random_aig(6, 50, 3, GetParam());
  const Aig b = testutil::mutate(a, GetParam() + 500);
  const Aig m = aig::make_miter(a, b);
  sat::Solver solver;
  cnf::TseitinEncoder enc(m, solver);
  bool any_sat = false;
  for (Lit po : m.pos()) {
    if (solver.solve({enc.encode(po)}) == sat::Solver::Result::kSat)
      any_sat = true;
  }
  EXPECT_EQ(any_sat, !aig::brute_force_equivalent(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TseitinProperty,
                         ::testing::Values(90, 91, 92, 93, 94));

TEST(SatSweeper, ProvesSelfEquivalenceViaOptimizedCopy) {
  // a vs a is structurally folded; use a random AIG vs its mutated-back
  // (double mutation on the same node) self to still exercise SAT.
  const Aig a = testutil::random_aig(6, 60, 4, 95);
  sweep::SatSweeper sweeper;
  const sweep::SweepResult r = sweeper.check(a, a);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
}

TEST(SatSweeper, DisprovesWithValidCex) {
  const Aig a = testutil::random_aig(6, 60, 4, 99);
  const Aig b = testutil::mutate(a, 100);
  if (aig::brute_force_equivalent(a, b)) GTEST_SKIP() << "mutation no-op";
  sweep::SatSweeper sweeper;
  const sweep::SweepResult r = sweeper.check(a, b);
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  ASSERT_TRUE(r.cex.has_value());
  EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
}

class SatSweeperOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SatSweeperOracle, AgreesWithBruteForce) {
  const Aig a = testutil::random_aig(7, 80, 5, GetParam());
  const Aig b = testutil::mutate(a, GetParam() * 31 + 7);
  sweep::SatSweeper sweeper;
  const sweep::SweepResult r = sweeper.check(a, b);
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.verdict == Verdict::kEquivalent,
            aig::brute_force_equivalent(a, b));
  if (r.verdict == Verdict::kNotEquivalent) {
    ASSERT_TRUE(r.cex.has_value());
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatSweeperOracle,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 201,
                                           202, 203, 204, 205, 206));

TEST(SatSweeper, SweepingMergesInternalEquivalences) {
  // Build a miter with many internal equivalences: x vs shifted copy of
  // the same logic. The sweeper must prove it and report merged pairs.
  Aig base(4);
  const Lit f = base.add_or(base.add_and(base.pi_lit(0), base.pi_lit(1)),
                            base.add_and(base.pi_lit(2), base.pi_lit(3)));
  base.add_po(f);
  // Second implementation: f = !( !(ab) & !(cd) ) built through XOR-free
  // restructuring that strash cannot fold onto the first.
  Aig other(4);
  const Lit ab = other.add_and(other.pi_lit(0), other.pi_lit(1));
  const Lit cd = other.add_and(other.pi_lit(2), other.pi_lit(3));
  const Lit g = other.add_or(
      other.add_or(other.add_and(ab, aig::lit_not(cd)),
                   other.add_and(aig::lit_not(ab), cd)),
      other.add_and(ab, cd));
  other.add_po(g);
  sweep::SatSweeper sweeper;
  const sweep::SweepResult r = sweeper.check(base, other);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(r.stats.sat_calls, 0u);
}

TEST(SatSweeper, TimeLimitYieldsUndecided) {
  // A miter that does not strash to constant zero (restructured copy).
  const Aig a = testutil::random_aig(10, 300, 6, 121);
  const Aig b = opt::refactor(a);
  const Aig m = aig::make_miter(a, b);
  if (aig::miter_proved(m)) GTEST_SKIP() << "refactor was the identity";
  sweep::SweeperParams p;
  p.time_limit = 1e-9;  // expires immediately
  const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(SatSweeper, CancellationYieldsUndecided) {
  const Aig a = testutil::random_aig(10, 300, 6, 121);
  const Aig m = aig::make_miter(a, opt::refactor(a));
  if (aig::miter_proved(m)) GTEST_SKIP() << "refactor was the identity";
  std::atomic<bool> cancel{true};
  sweep::SweeperParams p;
  p.cancel = &cancel;
  const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(SatSweeper, ConflictBudgetCoversBothDirectionalSolves) {
  // Regression: check_pair() issues two directional solves (a&!b, !a&b).
  // Each used to receive the full conflict_limit, so one candidate pair
  // could spend up to twice its budget; now the second call gets only
  // what the first left over. Metered on a pair of hard const-false POs
  // of a multiplier miter, where BOTH directions need real conflicts.
  const Aig m = aig::make_miter(gen::array_multiplier(4),
                                gen::wallace_multiplier(4));
  ASSERT_GE(m.num_pos(), 8u);
  const Lit p = m.pos()[6];
  const Lit q = m.pos()[7];
  sweep::PairSolver unbounded(m);
  ASSERT_EQ(unbounded.check_pair(p, q, -1),
            sweep::PairSolver::Outcome::kEqual);
  const std::uint64_t total = unbounded.conflicts();
  if (total < 8) GTEST_SKIP() << "pair too easy to meter the budget";
  // A budget that the first direction fits in but the pair as a whole
  // exceeds. Pre-fix the pair would spend ~total (> budget + 1).
  const std::int64_t budget = static_cast<std::int64_t>(total) * 3 / 4;
  sweep::PairSolver bounded(m);
  bounded.check_pair(p, q, budget);
  // +1: a direction entered with 0 remaining still detects its first
  // conflict before giving up.
  EXPECT_LE(bounded.conflicts(), static_cast<std::uint64_t>(budget) + 1);
}

TEST(SatSweeper, StructurallySolvedMitersShortCircuit) {
  Aig zero(2);
  zero.add_po(aig::kLitFalse);
  sweep::SatSweeper sweeper;
  EXPECT_EQ(sweeper.check_miter(zero).verdict, Verdict::kEquivalent);
  Aig one(2);
  one.add_po(aig::kLitTrue);
  EXPECT_EQ(sweeper.check_miter(one).verdict, Verdict::kNotEquivalent);
}

}  // namespace
}  // namespace simsweep
