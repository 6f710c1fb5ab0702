/// \file test_bdd.cpp
/// \brief Tests for the ROBDD package and the BDD-based CEC baseline.

#include "bdd/bdd.hpp"
#include "bdd/bdd_cec.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "aig/aig_analysis.hpp"
#include "common/timer.hpp"
#include "gen/suite.hpp"
#include "test_util.hpp"
#include "tt/truth_table.hpp"

namespace simsweep::bdd {
namespace {

using Ref = BddManager::Ref;

TEST(Bdd, Terminals) {
  BddManager m(3);
  EXPECT_TRUE(m.is_const(BddManager::kFalse));
  EXPECT_TRUE(m.is_const(BddManager::kTrue));
  EXPECT_EQ(m.negate(BddManager::kFalse), BddManager::kTrue);
  EXPECT_EQ(m.apply_and(BddManager::kTrue, BddManager::kFalse),
            BddManager::kFalse);
}

TEST(Bdd, Canonicity) {
  BddManager m(3);
  const Ref x = m.var(0), y = m.var(1);
  // x & y built twice, and via De Morgan, must be the same node.
  const Ref a1 = m.apply_and(x, y);
  const Ref a2 = m.apply_and(y, x);
  const Ref a3 = m.negate(m.apply_or(m.negate(x), m.negate(y)));
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1, a3);
  // Double negation is the identity.
  EXPECT_EQ(m.negate(m.negate(a1)), a1);
}

TEST(Bdd, XorAndIte) {
  BddManager m(2);
  const Ref x = m.var(0), y = m.var(1);
  const Ref xo = m.apply_xor(x, y);
  EXPECT_EQ(xo, m.ite(x, m.negate(y), y));
  EXPECT_EQ(m.apply_xor(xo, xo), BddManager::kFalse);
  EXPECT_EQ(m.apply_xor(xo, BddManager::kTrue), m.negate(xo));
  EXPECT_EQ(m.ite(x, BddManager::kTrue, BddManager::kFalse), x);
}

TEST(Bdd, EvaluateAgainstTruthTable) {
  // Random 4-var functions via random AIGs, compared pointwise.
  const aig::Aig a = testutil::random_aig(4, 30, 2, 110);
  BddManager m(4);
  std::vector<Ref> ref(a.num_nodes(), BddManager::kFalse);
  for (unsigned i = 0; i < 4; ++i) ref[i + 1] = m.var(i);
  for (aig::Var v = 5; v < a.num_nodes(); ++v) {
    auto lr = [&](aig::Lit l) {
      return aig::lit_compl(l) ? m.negate(ref[aig::lit_var(l)])
                               : ref[aig::lit_var(l)];
    };
    ref[v] = m.apply_and(lr(a.fanin0(v)), lr(a.fanin1(v)));
  }
  for (aig::Var v = 1; v < a.num_nodes(); ++v) {
    const tt::TruthTable t = aig::global_truth_table(a, aig::make_lit(v));
    for (unsigned p = 0; p < 16; ++p) {
      std::vector<bool> assignment(4);
      for (unsigned i = 0; i < 4; ++i) assignment[i] = (p >> i) & 1;
      ASSERT_EQ(m.evaluate(ref[v], assignment), t.get_bit(p))
          << "node " << v << " pattern " << p;
    }
  }
}

TEST(Bdd, SatisfyOne) {
  BddManager m(3);
  const Ref f = m.apply_and(m.var(0), m.negate(m.var(2)));
  const auto sat = m.satisfy_one(f);
  ASSERT_TRUE(sat.has_value());
  EXPECT_TRUE((*sat)[0]);
  EXPECT_FALSE((*sat)[2]);
  EXPECT_FALSE(m.satisfy_one(BddManager::kFalse).has_value());
}

TEST(Bdd, SatCount) {
  BddManager m(4);
  EXPECT_DOUBLE_EQ(m.sat_count(BddManager::kTrue), 16.0);
  EXPECT_DOUBLE_EQ(m.sat_count(BddManager::kFalse), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0)), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.apply_and(m.var(0), m.var(3))), 4.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.apply_xor(m.var(1), m.var(2))), 8.0);
}

TEST(Bdd, NodeLimitThrows) {
  BddManager m(16, /*node_limit=*/8);
  EXPECT_THROW(
      {
        Ref acc = BddManager::kTrue;
        for (unsigned i = 0; i < 16; ++i)
          acc = m.apply_xor(acc, m.var(i));
      },
      BddOverflow);
}

TEST(BddCec, EquivalentAndInequivalent) {
  const aig::Aig a = testutil::random_aig(6, 60, 4, 111);
  EXPECT_EQ(bdd_check(a, a).verdict, Verdict::kEquivalent);
  const aig::Aig b = testutil::mutate(a, 112);
  const BddCecResult r = bdd_check(a, b);
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.verdict == Verdict::kEquivalent,
            aig::brute_force_equivalent(a, b));
  if (r.verdict == Verdict::kNotEquivalent) {
    ASSERT_TRUE(r.cex.has_value());
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

TEST(BddCec, NodeLimitYieldsUndecided) {
  const aig::Aig a = testutil::random_aig(14, 600, 4, 113);
  const aig::Aig b = testutil::mutate(a, 114);
  BddCecParams p;
  p.node_limit = 16;
  const BddCecResult r = bdd_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(BddCec, DeadlineAndCancelHoldInsideOneApplyAnd) {
  // One apply_and on voter's miter recurses for minutes below the node
  // limit. The budget used to be polled only between AND nodes, so a
  // 0.2 s deadline (or a portfolio cancel) waited for that whole call.
  const gen::BenchCase c = gen::make_case("voter", {.doublings = 1});
  const aig::Aig m = aig::make_miter(c.original, c.optimized);
  {
    BddCecParams p;
    p.time_limit = 0.2;
    const Timer t;
    EXPECT_EQ(bdd_check_miter(m, p).verdict, Verdict::kUndecided);
    EXPECT_LT(t.seconds(), 5.0);
  }
  {
    const std::atomic<bool> cancel{true};
    BddCecParams p;
    p.cancel = &cancel;
    const Timer t;
    EXPECT_EQ(bdd_check_miter(m, p).verdict, Verdict::kUndecided);
    EXPECT_LT(t.seconds(), 5.0);
  }
}

class BddOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddOracle, AgreesWithBruteForce) {
  const aig::Aig a = testutil::random_aig(6, 50, 3, GetParam());
  const aig::Aig b = testutil::mutate(a, GetParam() + 13);
  const BddCecResult r = bdd_check(a, b);
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.verdict == Verdict::kEquivalent,
            aig::brute_force_equivalent(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddOracle,
                         ::testing::Values(120, 121, 122, 123, 124));

}  // namespace
}  // namespace simsweep::bdd
