/// \file test_integration.cpp
/// \brief End-to-end tests: the full benchmark-suite pipeline (generate ->
/// optimize -> miter -> engine + SAT fallback), positive and negative.

#include <gtest/gtest.h>

#include "aig/aig_analysis.hpp"
#include "aig/aig_io.hpp"
#include "common/random.hpp"
#include "gen/suite.hpp"
#include "gen/transforms.hpp"
#include "portfolio/portfolio.hpp"
#include "test_util.hpp"

#include <sstream>

namespace simsweep {
namespace {

using aig::Aig;

portfolio::CombinedParams integration_params() {
  portfolio::CombinedParams p;
  p.engine.k_P = 20;
  p.engine.k_p = 12;
  p.engine.k_g = 12;
  p.engine.k_l = 6;
  p.engine.memory_words = 1 << 18;
  p.sweeper.conflict_limit = 100000;
  return p;
}

class SuiteFamily : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteFamily, OriginalVsOptimizedProvedEquivalent) {
  gen::SuiteParams sp;
  sp.doublings = 0;  // base size is plenty for integration
  const gen::BenchCase c = gen::make_case(GetParam(), sp);
  const portfolio::CombinedResult r =
      portfolio::combined_check(c.original, c.optimized,
                                integration_params());
  EXPECT_EQ(r.verdict, Verdict::kEquivalent) << c.name;
}

TEST_P(SuiteFamily, InjectedBugIsCaught) {
  gen::SuiteParams sp;
  sp.doublings = 0;
  const gen::BenchCase c = gen::make_case(GetParam(), sp);
  const Aig broken = testutil::mutate(c.optimized, 42);
  const portfolio::CombinedResult r =
      portfolio::combined_check(c.original, broken, integration_params());
  // The mutation may or may not change the function; whatever the engine
  // says must match a direct sampled comparison.
  if (r.verdict == Verdict::kNotEquivalent) {
    if (r.cex) {
      EXPECT_NE(c.original.evaluate(*r.cex), broken.evaluate(*r.cex));
    }
  } else {
    EXPECT_EQ(r.verdict, Verdict::kEquivalent);
    // Sampled agreement check.
    Rng rng(9);
    for (int t = 0; t < 32; ++t) {
      std::vector<bool> pis(c.original.num_pis());
      for (auto&& b : pis) b = rng.flip();
      ASSERT_EQ(c.original.evaluate(pis), broken.evaluate(pis));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SuiteFamily,
    ::testing::Values("multiplier", "square", "sqrt", "voter", "sin",
                      "log2", "hyp", "ac97_ctrl", "vga_lcd"));

TEST(Integration, DoubledCaseStillProves) {
  gen::SuiteParams sp;
  sp.doublings = 2;
  const gen::BenchCase c = gen::make_case("voter", sp);
  const portfolio::CombinedResult r =
      portfolio::combined_check(c.original, c.optimized,
                                integration_params());
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
}

TEST(Integration, AigerRoundTripThroughEngine) {
  // Export/import the pair and verify through the full flow, as a user
  // working with AIGER files would.
  gen::SuiteParams sp;
  sp.doublings = 0;
  const gen::BenchCase c = gen::make_case("multiplier", sp);
  std::stringstream sa, sb;
  aig::write_aiger(c.original, sa);
  aig::write_aiger(c.optimized, sb);
  const Aig ra = aig::read_aiger(sa);
  const Aig rb = aig::read_aiger(sb);
  const portfolio::CombinedResult r =
      portfolio::combined_check(ra, rb, integration_params());
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
}

TEST(Integration, ReducedMiterHandoffMatchesPaperFlow) {
  // Reproduce the paper's GPU->ABC handoff explicitly: run the full
  // engine flow with snapshots, then SAT-sweep the final reduced miter.
  gen::SuiteParams sp;
  sp.doublings = 1;
  const gen::BenchCase c = gen::make_case("sqrt", sp);
  engine::EngineParams ep = engine::full_flow(integration_params().engine);
  ep.capture_snapshots = true;
  const engine::SimCecEngine eng(ep);
  const engine::EngineResult er =
      eng.check(c.original, c.optimized);
  if (er.verdict == Verdict::kUndecided) {
    const sweep::SatSweeper sweeper;
    const sweep::SweepResult sr = sweeper.check_miter(er.reduced);
    EXPECT_EQ(sr.verdict, Verdict::kEquivalent);
  } else {
    EXPECT_EQ(er.verdict, Verdict::kEquivalent);
  }
}

}  // namespace
}  // namespace simsweep
