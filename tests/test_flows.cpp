/// \file test_flows.cpp
/// \brief Differential test of the two engine flows through the combined
/// checker: the default flow (P, G once, then the SAT residue sweep) and
/// the full-flow preset (engine::full_flow: repeated L phases and
/// graduated-G escalation before the sweep).

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "aig/cex.hpp"
#include "aig/miter.hpp"
#include "engine/engine.hpp"
#include "gen/suite.hpp"
#include "obs/metric_names.hpp"
#include "portfolio/portfolio.hpp"
#include "test_util.hpp"

namespace simsweep {
namespace {

/// The integration suite's configuration (doublings=0 scale).
portfolio::CombinedParams default_flow() {
  portfolio::CombinedParams p;
  p.engine.k_P = 20;
  p.engine.k_p = 12;
  p.engine.k_g = 12;
  p.engine.k_l = 6;
  p.engine.memory_words = 1 << 18;
  return p;
}

portfolio::CombinedParams full_flow() {
  portfolio::CombinedParams p = default_flow();
  p.engine = engine::full_flow(p.engine);
  return p;
}

/// Sum of every cut-module counter and gauge in a run report: the
/// per-pass leaves and the enumeration-level histogram.
double cut_work(const obs::Snapshot& report) {
  double sum = 0;
  for (const obs::Metric& m : report.metrics) {
    const std::string_view name(m.name);
    if (name.starts_with(obs::metric::kCutPassPrefix) ||
        name.starts_with(obs::metric::kCutLevelHistPrefix))
      sum += m.as_double();
  }
  return sum;
}

/// A decided verdict whose CEX (if refuted) fails the miter and
/// separates the two circuits.
void expect_checked(const portfolio::CombinedResult& r, const aig::Aig& a,
                    const aig::Aig& b) {
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  if (r.verdict != Verdict::kNotEquivalent) return;
  ASSERT_TRUE(r.cex.has_value());
  EXPECT_GE(aig::find_failing_po(aig::make_miter(a, b), *r.cex), 0);
  EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
}

class FlowDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(FlowDifferential, DefaultFlowAgreesWithFullFlow) {
  gen::SuiteParams sp;
  sp.doublings = 0;
  const gen::BenchCase c = gen::make_case(GetParam(), sp);
  const aig::Aig mutant = testutil::mutate(c.optimized, 42);
  const bool l_bound = GetParam() == "hyp" || GetParam() == "sqrt" ||
                       GetParam() == "voter";

  for (const bool equivalent_pair : {true, false}) {
    SCOPED_TRACE(equivalent_pair ? "equivalent pair" : "mutant");
    const aig::Aig& b = equivalent_pair ? c.optimized : mutant;
    const portfolio::CombinedResult dflt =
        portfolio::combined_check(c.original, b, default_flow());
    const portfolio::CombinedResult full =
        portfolio::combined_check(c.original, b, full_flow());
    expect_checked(dflt, c.original, b);
    expect_checked(full, c.original, b);
    EXPECT_EQ(dflt.verdict, full.verdict);
    if (equivalent_pair) {
      EXPECT_EQ(dflt.verdict, Verdict::kEquivalent);
    }

    // The default flow stops the engine after G: no L phase, no cuts.
    EXPECT_EQ(dflt.engine_stats.local_phases, 0u);
    EXPECT_EQ(dflt.report.value(obs::metric::kEngineLocalPhases), 0.0);
    EXPECT_EQ(cut_work(dflt.report), 0.0);
    // The preset runs L phases where G leaves a residue.
    if (equivalent_pair && l_bound) {
      EXPECT_GT(full.engine_stats.local_phases, 0u);
      EXPECT_GT(cut_work(full.report), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FlowDifferential, ::testing::ValuesIn(gen::table2_families()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace simsweep
