/// \file test_incremental_sim.cpp
/// \brief Incremental simulation and EC carry-over (DESIGN.md §2.7):
/// delta simulation must be bit-identical to full re-simulation, rebuild
/// carry-over must agree with a fresh build, and a failed carry-over
/// (injected sim.carryover fault) must fall back soundly. Also covers the
/// word-major PatternBank's amortized-append contract and the cached
/// level schedule. Suite names share the IncrementalSim prefix so the
/// SIMSWEEP_CHECKED matrix leg (tools/run_static_analysis.sh) selects
/// them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/rebuild.hpp"
#include "engine/engine.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "obs/metric_names.hpp"
#include "sim/ec_manager.hpp"
#include "sim/incremental.hpp"
#include "sim/partial_sim.hpp"
#include "test_util.hpp"

namespace simsweep::sim {
namespace {

using aig::Aig;
using aig::Lit;
using aig::Var;

/// Appends `n` pseudo-random word-columns to the bank, one per call (the
/// CEX-absorption shape the delta path must track).
void append_random_columns(PatternBank& bank, std::size_t n,
                           std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<Word> col(bank.num_pis());
    for (Word& w : col) w = rng.next64();
    bank.append_words(col);
  }
}

// ---------------------------------------------------------------------------
// PatternBank: word-major layout, amortized appends, sliding window (S1).
// ---------------------------------------------------------------------------

TEST(IncrementalSimBank, AppendIsAmortizedNotPerWord) {
  PatternBank bank(8, 1);
  const std::size_t kAppends = 1000;
  append_random_columns(bank, kAppends, 11);
  EXPECT_EQ(bank.num_words(), 1 + kAppends);
  // Regression for the O(pis×words)-per-append bug: growth must be
  // geometric, so ~1000 appends reallocate O(log n) times, not ~1000.
  EXPECT_LE(bank.reallocations(), 16u);
  EXPECT_GE(bank.reallocations(), 1u);
}

TEST(IncrementalSimBank, AppendGroupsMatchesRepeatedAppendWords) {
  std::vector<std::vector<Word>> groups;
  Rng rng(12);
  for (int g = 0; g < 17; ++g) {
    std::vector<Word> col(5);
    for (Word& w : col) w = rng.next64();
    groups.push_back(col);
  }
  PatternBank one_by_one(5, 2);
  for (const auto& g : groups) one_by_one.append_words(g);
  PatternBank batched(5, 2);
  batched.append_groups(groups);
  ASSERT_EQ(batched.num_words(), one_by_one.num_words());
  for (unsigned pi = 0; pi < 5; ++pi)
    for (std::size_t w = 0; w < batched.num_words(); ++w)
      ASSERT_EQ(batched.word(pi, w), one_by_one.word(pi, w));
  // The batch reserves once up front, so it can never reallocate more
  // often than the one-by-one path.
  EXPECT_LE(batched.reallocations(), one_by_one.reallocations());
}

TEST(IncrementalSimBank, TruncateFrontSlidesTheStreamWindow) {
  PatternBank bank(3, 4);
  Rng rng(13);
  for (unsigned pi = 0; pi < 3; ++pi)
    for (std::size_t w = 0; w < 4; ++w) bank.word(pi, w) = rng.next64();
  const Word keep2 = bank.word(1, 2);
  EXPECT_EQ(bank.start_index(), 0u);
  EXPECT_EQ(bank.truncate_front(2), 2u);
  EXPECT_EQ(bank.num_words(), 2u);
  EXPECT_EQ(bank.start_index(), 2u);
  EXPECT_EQ(bank.word(1, 0), keep2);  // old column 2 is the new column 0
  EXPECT_EQ(bank.truncate_front(2), 0u);  // already fits: no-op
  EXPECT_EQ(bank.truncate_front(1), 1u);
  EXPECT_EQ(bank.start_index(), 3u);  // stream index is monotonic
}

// ---------------------------------------------------------------------------
// Level schedule: one counting sort shared by every consumer.
// ---------------------------------------------------------------------------

TEST(IncrementalSimSchedule, MatchesComputeLevelsAndOrdersByLevel) {
  const Aig a = testutil::random_aig(8, 200, 4, 21);
  const aig::LevelSchedule s = aig::build_level_schedule(a);
  EXPECT_TRUE(s.matches(a));
  EXPECT_EQ(s.levels, aig::compute_levels(a));
  // order[offset[l]..offset[l+1]) must enumerate exactly the AND nodes of
  // level l, each AND node exactly once.
  std::vector<std::uint8_t> seen(a.num_nodes(), 0);
  for (std::uint32_t l = 1; l <= s.max_level; ++l) {
    for (std::size_t k = s.offset[l]; k < s.offset[l + 1]; ++k) {
      const Var v = s.order[k];
      ASSERT_TRUE(a.is_and(v));
      ASSERT_EQ(s.levels[v], l);
      ASSERT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
  std::size_t covered = 0;
  for (Var v = 0; v < a.num_nodes(); ++v) covered += seen[v];
  EXPECT_EQ(covered, a.num_ands());
  // A schedule goes stale with the AIG shape. AND(last node, pi0) cannot
  // already exist (no node has the topologically-last node as a fanin),
  // so this add genuinely grows the graph past the strash.
  Aig b = a;
  b.add_and(aig::make_lit(static_cast<Var>(b.num_nodes() - 1)), b.pi_lit(0));
  ASSERT_GT(b.num_nodes(), a.num_nodes());
  EXPECT_FALSE(s.matches(b));
}

TEST(IncrementalSimSchedule, SimulateWithScheduleIsBitIdentical) {
  const Aig a = testutil::random_aig(10, 300, 4, 22);
  const PatternBank bank = PatternBank::random(a.num_pis(), 6, 23);
  const aig::LevelSchedule s = aig::build_level_schedule(a);
  const Signatures plain = simulate(a, bank);
  const Signatures sched = simulate(a, bank, &s);
  EXPECT_EQ(plain.num_words, sched.num_words);
  EXPECT_EQ(plain.words, sched.words);
}

// ---------------------------------------------------------------------------
// Delta simulation (tentpole): bit-identical to a full re-simulation.
// ---------------------------------------------------------------------------

TEST(IncrementalSim, ExtendSignaturesIsBitIdenticalToFullSimulate) {
  const Aig a = testutil::random_aig(9, 250, 4, 31);
  PatternBank bank = PatternBank::random(a.num_pis(), 4, 32);
  Signatures sig = simulate(a, bank);
  append_random_columns(bank, 5, 33);
  extend_signatures(a, bank, 4, sig);
  const Signatures full = simulate(a, bank);
  EXPECT_EQ(sig.num_words, full.num_words);
  EXPECT_EQ(sig.words, full.words);
}

TEST(IncrementalSim, SyncDeltaPathTracksAppendsAndTruncations) {
  const Aig a = testutil::random_aig(8, 220, 4, 41);
  PatternBank bank = PatternBank::random(a.num_pis(), 4, 42);
  IncrementalState inc;
  inc.sync(a, bank);
  EXPECT_EQ(inc.stats().full_resims, 1u);
  EXPECT_TRUE(inc.valid());

  // Several CEX-shaped rounds: append a few columns, sometimes slide the
  // window; every sync must stay on the delta path and the cached rows
  // must equal a from-scratch simulation.
  for (int round = 0; round < 4; ++round) {
    append_random_columns(bank, 2 + round, 43 + round);
    if (round % 2 == 1) bank.truncate_front(6);
    inc.sync(a, bank);
    EXPECT_EQ(inc.stats().full_resims, 1u) << "round " << round;
    const Signatures full = simulate(a, bank);
    ASSERT_EQ(inc.signatures().num_words, full.num_words);
    ASSERT_EQ(inc.signatures().words, full.words) << "round " << round;
  }
  EXPECT_GT(inc.stats().incremental_words, 0u);

  // The refined classes must equal what a fresh build over the full bank
  // produces: refinement (equal on prefix, then equal on suffix) is the
  // same partition as equality on the whole width.
  EcManager fresh;
  fresh.build(a, inc.signatures());
  const auto to_tuples = [](const std::vector<CandidatePair>& ps) {
    std::vector<std::tuple<Var, Var, bool>> out;
    for (const CandidatePair& p : ps) out.emplace_back(p.repr, p.node, p.phase);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(to_tuples(inc.ec().candidate_pairs()),
            to_tuples(fresh.candidate_pairs()));
}

TEST(IncrementalSim, DisabledStateAlwaysFullySimulates) {
  const Aig a = testutil::random_aig(8, 150, 4, 51);
  PatternBank bank = PatternBank::random(a.num_pis(), 3, 52);
  IncrementalState inc;
  inc.set_enabled(false);
  inc.sync(a, bank);
  append_random_columns(bank, 2, 53);
  inc.sync(a, bank);
  EXPECT_EQ(inc.stats().full_resims, 2u);
  EXPECT_EQ(inc.stats().incremental_words, 0u);
  EXPECT_FALSE(inc.valid());
  const Signatures full = simulate(a, bank);
  EXPECT_EQ(inc.signatures().words, full.words);
}

// ---------------------------------------------------------------------------
// Rebuild carry-over (tentpole): translated rows == re-simulated rows.
// ---------------------------------------------------------------------------

/// An AIG with a provably equivalent internal pair (n == m as literals,
/// structurally distinct) plus downstream logic observing both, so a
/// merge genuinely rewires fanouts. The substitution merging the larger
/// var into the smaller one (phase = complement XOR of the two literals)
/// is returned ready to rebuild with.
Aig equivalent_pair_aig(aig::SubstitutionMap* subst_out) {
  Aig a(6);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit g = a.add_or(a.pi_lit(2), a.pi_lit(3));
  const Lit h = a.add_xor(a.pi_lit(4), a.pi_lit(5));
  const Lit n = a.add_or(a.add_and(f, g), a.add_and(f, h));   // (f&g)|(f&h)
  const Lit m = a.add_and(f, a.add_or(g, h));                 // f&(g|h)
  a.add_po(a.add_and(n, a.pi_lit(5)));
  a.add_po(a.add_xor(m, a.pi_lit(0)));
  const Var vn = aig::lit_var(n), vm = aig::lit_var(m);
  const bool phase = aig::lit_compl(n) != aig::lit_compl(m);
  *subst_out = aig::SubstitutionMap(a.num_nodes());
  EXPECT_TRUE(subst_out->merge(std::max(vn, vm),
                               aig::make_lit(std::min(vn, vm), phase)));
  return a;
}

TEST(IncrementalSim, CarryOverThroughRebuildMatchesResimulation) {
  aig::SubstitutionMap subst(1);
  const Aig a = equivalent_pair_aig(&subst);
  const PatternBank bank = PatternBank::random(a.num_pis(), 4, 61);
  IncrementalState inc;
  inc.sync(a, bank);
  ASSERT_TRUE(inc.valid());

  const aig::RebuildResult rr = aig::rebuild(a, subst);
  ASSERT_LT(rr.aig.num_ands(), a.num_ands());

  EXPECT_TRUE(inc.apply_rebuild(rr.aig, rr.lit_map));
  EXPECT_TRUE(inc.valid());
  EXPECT_EQ(inc.stats().carry_fallbacks, 0u);

  // Soundness core: the translated rows must be exactly what simulating
  // the rebuilt AIG over the same bank produces.
  const Signatures full = simulate(rr.aig, bank);
  EXPECT_EQ(inc.signatures().num_words, full.num_words);
  EXPECT_EQ(inc.signatures().words, full.words);

  // And the carried classes must be internally consistent with the new
  // signatures: members of one class agree modulo their phase bits.
  for (const auto& cls : inc.ec().classes()) {
    ASSERT_GE(cls.size(), 2u);
    const Var repr = cls[0];
    for (const Var v : cls) {
      const Word flip =
          inc.ec().phase(v) != inc.ec().phase(repr) ? ~Word{0} : Word{0};
      for (std::size_t w = 0; w < full.num_words; ++w)
        ASSERT_EQ(full.word(v, w) ^ flip, full.word(repr, w))
            << "class member " << v << " word " << w;
    }
  }

  // The next sync over the unchanged (aig, bank) must be a pure cache
  // hit — no re-simulation, no delta columns.
  const CarryStats before = inc.stats();
  inc.sync(rr.aig, bank);
  EXPECT_EQ(inc.stats().full_resims, before.full_resims);
  EXPECT_EQ(inc.stats().incremental_words, before.incremental_words);
}

TEST(IncrementalSim, TranslateSignaturesHandlesComplementedMaps) {
  const Aig a = testutil::random_aig(6, 60, 2, 71);
  const PatternBank bank = PatternBank::random(a.num_pis(), 3, 72);
  const Signatures sigs = simulate(a, bank);
  // Identity map with one node complemented: row must flip.
  std::vector<Lit> lit_map(a.num_nodes());
  for (Var v = 0; v < a.num_nodes(); ++v) lit_map[v] = aig::make_lit(v);
  const Var flipped = a.num_pis() + 3;
  lit_map[flipped] = aig::make_lit(flipped, true);
  const auto out = translate_signatures(sigs, lit_map, a.num_nodes());
  ASSERT_TRUE(out.has_value());
  for (Var v = 0; v < a.num_nodes(); ++v)
    for (std::size_t w = 0; w < sigs.num_words; ++w)
      ASSERT_EQ(out->word(v, w),
                v == flipped ? ~sigs.word(v, w) : sigs.word(v, w));
  // A map leaving a new var uncovered is rejected (not a rebuild map).
  std::vector<Lit> holey = lit_map;
  holey[flipped] = aig::RebuildResult::kLitInvalid;
  EXPECT_FALSE(translate_signatures(sigs, holey, a.num_nodes()).has_value());
  // Conflicting duplicate preimages are rejected: map two rows with
  // different signatures onto one new var.
  std::vector<Lit> dup = lit_map;
  Var other = 0;
  for (Var v = a.num_pis() + 1; v < a.num_nodes(); ++v)
    if (sigs.row(v)[0] != sigs.row(flipped)[0]) other = v;
  ASSERT_NE(other, 0u);
  dup[other] = aig::make_lit(flipped);
  // (flipped itself still maps to flipped complemented, so rows differ.)
  EXPECT_FALSE(translate_signatures(sigs, dup, a.num_nodes()).has_value());
}

TEST(IncrementalSim, DropFrontWordsMirrorsBankTruncation) {
  const Aig a = testutil::random_aig(7, 90, 3, 81);
  PatternBank bank = PatternBank::random(a.num_pis(), 5, 82);
  Signatures sigs = simulate(a, bank);
  const Signatures before = sigs;
  drop_front_words(sigs, 2);
  ASSERT_EQ(sigs.num_words, 3u);
  for (Var v = 0; v < a.num_nodes(); ++v)
    for (std::size_t w = 0; w < 3; ++w)
      ASSERT_EQ(sigs.word(v, w), before.word(v, w + 2));
  drop_front_words(sigs, 0);  // no-op
  EXPECT_EQ(sigs.num_words, 3u);
}

// ---------------------------------------------------------------------------
// Fault-armed fallback (sim.carryover): sound, accounted, recovered.
// ---------------------------------------------------------------------------

TEST(IncrementalSimFault, CarryoverFaultFallsBackToFullResimulation) {
  aig::SubstitutionMap subst(1);
  const Aig a = equivalent_pair_aig(&subst);
  const PatternBank bank = PatternBank::random(a.num_pis(), 4, 91);
  IncrementalState inc;
  inc.sync(a, bank);
  const aig::RebuildResult rr = aig::rebuild(a, subst);

  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kSimCarryover, 1);
  fault::ScopedFaultPlan scoped(plan);
  EXPECT_FALSE(inc.apply_rebuild(rr.aig, rr.lit_map));
  EXPECT_FALSE(inc.valid());
  EXPECT_EQ(inc.stats().carry_fallbacks, 1u);
  EXPECT_EQ(scoped.fires(fault::sites::kSimCarryover), 1u);

  // Recovery: the next sync re-simulates from scratch and the state is
  // bit-identical to what an uninterrupted run would hold.
  inc.sync(rr.aig, bank);
  EXPECT_TRUE(inc.valid());
  EXPECT_EQ(inc.stats().full_resims, 2u);
  const Signatures full = simulate(rr.aig, bank);
  EXPECT_EQ(inc.signatures().words, full.words);
}

TEST(IncrementalSimFault, EngineSurvivesCarryoverFaultWithSoundVerdict) {
  const Aig a = gen::array_multiplier(4);
  const Aig b = gen::wallace_multiplier(4);
  engine::EngineParams p;
  p.enable_po_phase = false;
  p.k_P = 10;
  p.k_p = 4;
  p.k_g = 5;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  p = engine::full_flow(p);  // L phases: carry-over across many syncs
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kSimCarryover, 1, /*fires=*/2);
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(scoped.fires(fault::sites::kSimCarryover), 0u);
  EXPECT_GT(r.report.count(obs::metric::kPartialSimCarryFallbacks), 0u);
  EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
  // The fallback re-simulations are visible next to the delta columns.
  EXPECT_GT(r.report.count(obs::metric::kPartialSimFullResims), 0u);
}

TEST(IncrementalSimEngine, AbLeverProducesIdenticalVerdicts) {
  // incremental_sim on vs off must agree on the verdict (the A/B contract
  // bench_incremental relies on), and the on-side must actually use the
  // carry-over machinery on a multi-phase run.
  const Aig a = gen::array_multiplier(4);
  const Aig b = gen::wallace_multiplier(4);
  engine::EngineParams p;
  p.enable_po_phase = false;
  p.k_P = 10;
  p.k_p = 4;
  p.k_g = 5;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  p = engine::full_flow(p);  // a multi-phase run
  engine::EngineParams p_off = p;
  p_off.incremental_sim = false;
  const engine::EngineResult on = engine::SimCecEngine(p).check(a, b);
  const engine::EngineResult off = engine::SimCecEngine(p_off).check(a, b);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.verdict, Verdict::kEquivalent);
  EXPECT_GT(on.report.count(obs::metric::kPartialSimCarryClasses), 0u);
  EXPECT_EQ(off.report.count(obs::metric::kPartialSimCarryClasses), 0u);
  // Off pays a full re-simulation at every sync; on syncs mostly ride the
  // carried state.
  EXPECT_LT(on.report.count(obs::metric::kPartialSimFullResims),
            off.report.count(obs::metric::kPartialSimFullResims));
}

}  // namespace
}  // namespace simsweep::sim
