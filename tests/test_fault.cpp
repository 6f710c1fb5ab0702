/// \file test_fault.cpp
/// \brief Fault-injection framework, resource governor and degradation
/// ladder (DESIGN.md §2.4).
///
/// Three layers of coverage:
///  - the injector itself (deterministic nth-hit and probability replay,
///    scoped install/restore, idle-path behaviour);
///  - the governor primitives (memory ledger, lease RAII, deadlines);
///  - end-to-end recovery: every catalogued site is injected against the
///    real engine / sweeper / pool with a fixed seed, and the run must
///    survive with a SOUND verdict while the run report records the
///    faults and the ladder steps taken (the PR's acceptance contract).

#include "fault/fault.hpp"
#include "fault/governor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/cex.hpp"
#include "aig/miter.hpp"
#include "ckpt/checkpoint.hpp"
#include "engine/engine.hpp"
#include "engine/phase_common.hpp"
#include "gen/arith.hpp"
#include "opt/resyn.hpp"
#include "parallel/thread_pool.hpp"
#include "portfolio/portfolio.hpp"
#include "service/cec_service.hpp"
#include "sweep/sat_sweeper.hpp"
#include "test_util.hpp"
#include "obs/metric_names.hpp"

namespace simsweep {
namespace {

// ---------------------------------------------------------------------------
// Injector.
// ---------------------------------------------------------------------------

TEST(FaultInjector, IdleSitesNeverFire) {
  // No plan installed: the fast path (one relaxed load) returns false.
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.idle"));
}

TEST(FaultInjector, NthHitFiresDeterministically) {
  fault::FaultPlan plan;
  plan.on_hit("test.site", 3);  // fire exactly on the 3rd hit
  fault::ScopedFaultPlan scoped(plan);
  std::vector<bool> pattern;
  for (int i = 0; i < 6; ++i)
    pattern.push_back(SIMSWEEP_FAULT_POINT("test.site"));
  EXPECT_EQ(pattern,
            (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(scoped.hits("test.site"), 6u);
  EXPECT_EQ(scoped.fires("test.site"), 1u);
  EXPECT_EQ(scoped.fires_total(), 1u);
  // A site the plan does not arm records nothing and never fires.
  EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.unarmed"));
  EXPECT_EQ(scoped.fires("test.unarmed"), 0u);
}

TEST(FaultInjector, NthHitWithFireWindow) {
  fault::FaultPlan plan;
  plan.on_hit("test.site", 2, 3);  // hits 2, 3 and 4 fail
  fault::ScopedFaultPlan scoped(plan);
  std::vector<bool> pattern;
  for (int i = 0; i < 6; ++i)
    pattern.push_back(SIMSWEEP_FAULT_POINT("test.site"));
  EXPECT_EQ(pattern,
            (std::vector<bool>{false, true, true, true, false, false}));
  EXPECT_EQ(scoped.fires("test.site"), 3u);
}

TEST(FaultInjector, ProbabilityModeReplaysExactly) {
  // The per-site Rng substream is forked from the plan seed at install
  // time, so the same plan over the same hit sequence reproduces the
  // exact fire pattern — the property that makes probabilistic soak
  // failures replayable.
  fault::FaultPlan plan;
  plan.seed(42).with_probability("test.p", 0.3);
  auto run = [&](const fault::FaultPlan& pl) {
    std::vector<bool> fired;
    fault::ScopedFaultPlan scoped(pl);
    for (int i = 0; i < 200; ++i)
      fired.push_back(SIMSWEEP_FAULT_POINT("test.p"));
    return fired;
  };
  const std::vector<bool> first = run(plan);
  const std::vector<bool> second = run(plan);
  EXPECT_EQ(first, second);
  const std::size_t fires =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0u);   // p=0.3 over 200 hits: all-miss is ~2^-103
  EXPECT_LT(fires, 200u);
  // A different seed forks different substreams.
  fault::FaultPlan other;
  other.seed(43).with_probability("test.p", 0.3);
  EXPECT_NE(run(other), first);
}

TEST(FaultInjector, MaxFiresBoundsProbabilityMode) {
  fault::FaultPlan plan;
  plan.seed(7).with_probability("test.p", 1.0, /*max_fires=*/2);
  fault::ScopedFaultPlan scoped(plan);
  int fires = 0;
  for (int i = 0; i < 10; ++i)
    if (SIMSWEEP_FAULT_POINT("test.p")) ++fires;
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(scoped.hits("test.p"), 10u);
}

TEST(FaultInjector, NestedPlansShadowAndRestore) {
  fault::FaultPlan outer;
  outer.on_hit("test.outer", 1, /*fires=*/0);  // unlimited
  fault::ScopedFaultPlan a(outer);
  EXPECT_TRUE(SIMSWEEP_FAULT_POINT("test.outer"));
  {
    fault::FaultPlan inner;
    inner.on_hit("test.inner", 1, 0);
    fault::ScopedFaultPlan b(inner);
    // The inner plan fully shadows the outer one for its scope.
    EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.outer"));
    EXPECT_TRUE(SIMSWEEP_FAULT_POINT("test.inner"));
  }
  EXPECT_TRUE(SIMSWEEP_FAULT_POINT("test.outer"));  // restored
  EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.inner"));
}

TEST(FaultInjector, ProcessFireCounterAccumulates) {
  const std::uint64_t before = fault::fires_total();
  fault::FaultPlan plan;
  plan.on_hit("test.site", 1, 3);
  {
    fault::ScopedFaultPlan scoped(plan);
    for (int i = 0; i < 5; ++i) (void)SIMSWEEP_FAULT_POINT("test.site");
  }
  EXPECT_EQ(fault::fires_total(), before + 3);
}

// ---------------------------------------------------------------------------
// Governor primitives.
// ---------------------------------------------------------------------------

TEST(Governor, LedgerChargesReleasesAndDenies) {
  fault::MemoryLedger ledger(1000);
  EXPECT_TRUE(ledger.try_charge(600));
  EXPECT_EQ(ledger.charged_bytes(), 600u);
  EXPECT_FALSE(ledger.try_charge(500));  // 1100 > 1000
  EXPECT_EQ(ledger.denials(), 1u);
  EXPECT_EQ(ledger.charged_bytes(), 600u);  // denied charge left no trace
  ledger.release(600);
  EXPECT_TRUE(ledger.try_charge(1000));  // exactly the budget fits
  EXPECT_EQ(ledger.peak_bytes(), 1000u);
  ledger.release(1000);
  EXPECT_EQ(ledger.charged_bytes(), 0u);
}

TEST(Governor, UnlimitedLedgerStillAccounts) {
  fault::MemoryLedger ledger;  // budget 0 = unlimited
  EXPECT_TRUE(ledger.try_charge(std::uint64_t{1} << 40));
  EXPECT_EQ(ledger.peak_bytes(), std::uint64_t{1} << 40);
  EXPECT_EQ(ledger.denials(), 0u);
  ledger.release(std::uint64_t{1} << 40);
}

TEST(Governor, LeaseIsRaiiAndMovable) {
  fault::MemoryLedger ledger(100);
  {
    fault::MemoryLease lease(&ledger, 80);
    EXPECT_TRUE(lease.ok());
    EXPECT_EQ(ledger.charged_bytes(), 80u);
    fault::MemoryLease moved = std::move(lease);
    EXPECT_TRUE(moved.ok());
    EXPECT_EQ(ledger.charged_bytes(), 80u);  // moved, not double-charged
    fault::MemoryLease denied(&ledger, 50);
    EXPECT_FALSE(denied.ok());
  }
  EXPECT_EQ(ledger.charged_bytes(), 0u);  // every lease released
  // A lease against no ledger always acquires (the governor is opt-in).
  fault::MemoryLease ungoverned(nullptr, 1 << 30);
  EXPECT_TRUE(ungoverned.ok());
}

TEST(Governor, DeadlineSemantics) {
  const fault::Deadline unbounded;
  EXPECT_FALSE(unbounded.bounded());
  EXPECT_FALSE(unbounded.expired());
  EXPECT_FALSE(fault::Deadline::after(0).bounded());
  EXPECT_FALSE(fault::Deadline::after(-1).bounded());
  const fault::Deadline generous = fault::Deadline::after(3600);
  EXPECT_TRUE(generous.bounded());
  EXPECT_FALSE(generous.expired());
  EXPECT_GT(generous.remaining_seconds(), 3000.0);
  const fault::Deadline past = fault::Deadline::after(1e-9);
  while (!past.expired()) {
  }
  EXPECT_DOUBLE_EQ(past.remaining_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end recovery through the engine.
// ---------------------------------------------------------------------------

/// Engine configuration that pushes an equivalent multiplier pair through
/// the G and L phases (same shape as the obs end-to-end test): the
/// full-flow preset, so the cut-pass sites are on the path.
engine::EngineParams small_engine() {
  engine::EngineParams p = engine::full_flow({});
  p.enable_po_phase = false;
  p.k_P = 10;
  p.k_p = 4;
  p.k_g = 5;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  return p;
}

TEST(FaultRecovery, ExhaustiveAllocOomIsRecoveredByHalvingM) {
  // Satellite (c): inject bad_alloc at the simulation-table allocation.
  // The ladder's first rung halves M and retries; the verdict must stay
  // sound and the report must show the faults and the ladder activity.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kExhaustiveSimtAlloc, 1, /*fires=*/3);
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(scoped.fires(fault::sites::kExhaustiveSimtAlloc), 3u);
  EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeMemoryHalvings), 0u);
  EXPECT_GT(r.report.count("faults.site.exhaustive.simt_alloc"), 0u);
}

TEST(FaultRecovery, WindowMergeBuildFaultFallsBackToUnmergedWindows) {
  // Satellite (c): a failed merged-window build must fall back to the
  // original unmerged windows (copy-safe path), not lose checks.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kWindowMergeBuild, 1, /*fires=*/2);
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(scoped.fires(fault::sites::kWindowMergeBuild), 0u);
  EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeMergeFallbacks), 0u);
}

TEST(FaultRecovery, CutPassFaultIsRetriedWithBackoff) {
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kCutEnumOverflow, 1, /*fires=*/2);
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(scoped.fires(fault::sites::kCutEnumOverflow), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradePassRetries), 0u);
  EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
  // S3 accounting: both fires hit the first pass, which then succeeded on
  // its third attempt — exactly those 2 retries count as recovered (no
  // other recovery source is armed or under pressure in this run).
  EXPECT_EQ(r.report.count(obs::metric::kDegradePassRetries), 2u);
  EXPECT_EQ(r.report.count(obs::metric::kFaultsRecovered), 2u);
}

TEST(FaultRecovery, AbandonedPassRetriesAreNotCountedRecovered) {
  // S3 regression: with the overflow site firing on EVERY hit no pass can
  // ever complete — every retry is futile and every pass is abandoned.
  // faults_recovered must stay 0 (the old accounting credited each retry
  // as a recovery up front, so a fully-failing run looked "recovered").
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kCutEnumOverflow, 1, /*fires=*/0);  // unlimited
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);  // soundness
  EXPECT_GT(scoped.fires(fault::sites::kCutEnumOverflow), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradePassRetries), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeUnitsAbandoned), 0u);
  EXPECT_EQ(r.report.count(obs::metric::kFaultsRecovered), 0u);
}

TEST(FaultRecovery, ExhaustedRetriesAbandonToUndecidedNeverUnsound) {
  // Fire the allocation site on EVERY hit: no retry can ever succeed, so
  // the ladder must bottom out by abandoning units. The run must still
  // terminate with a sound verdict — undecided, never a wrong answer and
  // never a crash.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kExhaustiveSimtAlloc, 1, /*fires=*/0);  // unlimited
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);  // soundness
  EXPECT_GT(scoped.fires(fault::sites::kExhaustiveSimtAlloc), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeUnitsAbandoned), 0u);
  // The abandoned residue remains in the miter for a downstream checker.
  if (r.verdict == Verdict::kUndecided) {
    EXPECT_GT(r.reduced.num_ands(), 0u);
  }
}

TEST(Governor, MemoryBudgetDenialsDegradeInsteadOfAborting) {
  // A real (uninjected) resource limit: a process budget far below the
  // configured M denies the first charges; the ladder halves M until
  // batches fit. The run completes and the gauges record the pressure.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  engine::EngineParams p = small_engine();
  p.memory_budget_bytes = 1 << 12;  // 4 KiB: M=2^16 words cannot fit
  p.min_memory_words = 1 << 9;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
  EXPECT_GT(r.report.value(obs::metric::kDegradeMemoryDenials), 0.0);
  EXPECT_GT(r.report.value(obs::metric::kDegradeMemoryPeakBytes), 0.0);
  EXPECT_LE(r.report.value(obs::metric::kDegradeMemoryPeakBytes),
            static_cast<double>(p.memory_budget_bytes));
}

TEST(FaultRecovery, LedgerFittingOneLaneButNotAllIsRecoveredByTheLadder) {
  // A batch spread over several lanes charges every lane's table in one
  // lease. A ledger with room for one lane's table but not for all of them
  // denies the batch; the ladder's halved M then fits it (smaller tiles or
  // fewer lanes) and returns the unconstrained run's outcomes.
  if (parallel::ThreadPool::global().concurrency() < 2)
    GTEST_SKIP() << "needs an executor with more than one context";
  const aig::Aig miter = aig::make_miter(gen::array_multiplier(8),
                                         gen::wallace_multiplier(8));
  std::vector<aig::Var> pis(miter.num_pis());
  for (unsigned i = 0; i < miter.num_pis(); ++i) pis[i] = i + 1;
  std::vector<window::CheckItem> items;
  for (std::uint32_t i = 0; i < miter.num_pos(); ++i)
    items.push_back(window::CheckItem{miter.po(i), aig::kLitFalse, i});
  auto w = window::build_window(miter, pis, std::move(items));
  ASSERT_TRUE(w);
  const std::size_t slots = w->num_slots();
  std::vector<window::Window> windows;
  windows.push_back(std::move(*w));

  exhaustive::Params sim;
  sim.memory_words = std::size_t{1} << 17;
  const exhaustive::BatchResult free_run =
      exhaustive::check_batch(miter, windows, sim);
  ASSERT_EQ(free_run.failure, exhaustive::BatchFailure::kNone);
  ASSERT_GT(free_run.lanes, 1u);
  const std::uint64_t one_lane_bytes =
      slots * free_run.entry_words * sizeof(std::uint64_t);

  fault::MemoryLedger tight(one_lane_bytes);
  exhaustive::Params denied = sim;
  denied.ledger = &tight;
  const exhaustive::BatchResult r =
      exhaustive::check_batch(miter, windows, denied);
  EXPECT_EQ(r.failure, exhaustive::BatchFailure::kMemoryBudget);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(tight.denials(), 1u);

  engine::EngineParams p;
  p.memory_words = sim.memory_words;
  engine::detail::EngineContext ctx{p,  miter,   {}, {}, {}, false, {},
                                    {true, true, true}, nullptr, {}, &tight,
                                    {}, {}};
  ctx.degrade.memory_words = p.memory_words;
  const engine::detail::LadderOutcome out =
      engine::detail::run_batch_with_ladder(ctx, miter, windows, sim);
  EXPECT_FALSE(out.cancelled);
  EXPECT_EQ(out.items_abandoned, 0u);
  EXPECT_GT(ctx.degrade.memory_halvings, 0u);
  EXPECT_EQ(out.result.outcomes, free_run.outcomes);
  EXPECT_LE(tight.peak_bytes(), one_lane_bytes);
  EXPECT_EQ(tight.charged_bytes(), 0u);
}

TEST(Governor, DenialThatHalvingCannotShrinkSkipsToTheNextRung) {
  // A one-window batch whose E is capped by its truth-table length
  // charges the same table under every M: halving M after a ledger denial
  // would only be denied again, so the ladder goes straight past rung 1
  // (here to abandoning, since one window cannot be split).
  const aig::Aig miter = aig::make_miter(gen::array_multiplier(4),
                                         gen::wallace_multiplier(4));
  std::vector<aig::Var> pis(miter.num_pis());
  for (unsigned i = 0; i < miter.num_pis(); ++i) pis[i] = i + 1;
  std::vector<window::CheckItem> items;
  for (std::uint32_t i = 0; i < miter.num_pos(); ++i)
    items.push_back(window::CheckItem{miter.po(i), aig::kLitFalse, i});
  auto w = window::build_window(miter, pis, std::move(items));
  ASSERT_TRUE(w);
  const std::size_t num_items = w->items.size();
  std::vector<window::Window> windows;
  windows.push_back(std::move(*w));

  exhaustive::Params sim;
  sim.memory_words = std::size_t{1} << 17;
  const exhaustive::BatchResult free_run =
      exhaustive::check_batch(miter, windows, sim);
  ASSERT_EQ(free_run.failure, exhaustive::BatchFailure::kNone);
  ASSERT_EQ(free_run.entry_words, windows[0].tt_words());
  ASSERT_LE(free_run.table_words, sim.memory_words / 2);

  fault::MemoryLedger tight(free_run.table_words * sizeof(std::uint64_t) - 1);
  engine::EngineParams p;
  p.memory_words = sim.memory_words;
  engine::detail::EngineContext ctx{p,  miter,   {}, {}, {}, false, {},
                                    {true, true, true}, nullptr, {}, &tight,
                                    {}, {}};
  ctx.degrade.memory_words = p.memory_words;
  const engine::detail::LadderOutcome out =
      engine::detail::run_batch_with_ladder(ctx, miter, windows, sim);
  EXPECT_FALSE(out.cancelled);
  EXPECT_EQ(ctx.degrade.memory_halvings, 0u);
  EXPECT_EQ(ctx.degrade.memory_words, p.memory_words);
  EXPECT_EQ(tight.denials(), 1u);
  EXPECT_EQ(out.items_abandoned, num_items);
  EXPECT_EQ(tight.charged_bytes(), 0u);
}

TEST(Governor, SharedLedgerIsChargedAcrossRuns) {
  const aig::Aig a = gen::array_multiplier(3);
  const aig::Aig b = gen::wallace_multiplier(3);
  fault::MemoryLedger ledger;  // unlimited, observing only
  engine::EngineParams p = small_engine();
  p.memory_ledger = &ledger;
  (void)engine::SimCecEngine(p).check(a, b);
  EXPECT_GT(ledger.peak_bytes(), 0u);
  EXPECT_EQ(ledger.charged_bytes(), 0u);  // all leases released
  EXPECT_EQ(ledger.denials(), 0u);
}

TEST(Governor, PhaseDeadlineExpiryRoutesToUndecided) {
  // An immediately-expiring per-phase deadline: every phase gives up its
  // remaining work. The verdict is undecided (sound), the process never
  // aborts, and the expiries are recorded.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  engine::EngineParams p = small_engine();
  p.phase_time_limit = 1e-9;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(r.report.count(obs::metric::kDegradeDeadlineExpiries), 0u);
}

// ---------------------------------------------------------------------------
// Sweeper and pool sites.
// ---------------------------------------------------------------------------

TEST(FaultRecovery, SatSolveFaultsActLikeConflictLimitExhaustion) {
  const aig::Aig a = testutil::random_aig(8, 120, 5, 501);
  const aig::Aig b = opt::resyn_light(a);
  const aig::Aig miter = aig::make_miter(a, b);
  // A bounded burst of solve faults: those entries come back unknown and
  // the sweep continues; the verdict is still reached by later solves.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kSatSolve, 1, /*fires=*/3);
    fault::ScopedFaultPlan scoped(plan);
    const sweep::SweepResult r = sweep::SatSweeper().check_miter(miter);
    EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
    if (scoped.hits(fault::sites::kSatSolve) > 0) {
      EXPECT_EQ(r.stats.solve_faults, scoped.fires(fault::sites::kSatSolve));
      EXPECT_GT(r.stats.solve_faults, 0u);
    }
  }
  // Every solve faulted: the sweeper must come back undecided — its
  // native sound failure mode — not crash or claim a verdict.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kSatSolve, 1, /*fires=*/0);  // unlimited
    fault::ScopedFaultPlan scoped(plan);
    const sweep::SweepResult r = sweep::SatSweeper().check_miter(miter);
    if (scoped.fires(fault::sites::kSatSolve) > 0) {
      EXPECT_EQ(r.verdict, Verdict::kUndecided);
    }
  }
}

/// A miter that fails on exactly one input, all ones: flipping any bit
/// of its only counterexample yields an input that does not fail.
aig::Aig one_minterm_miter(unsigned num_pis) {
  aig::Aig m(num_pis);
  aig::Lit all = m.pi_lit(0);
  for (unsigned i = 1; i < num_pis; ++i) all = m.add_and(all, m.pi_lit(i));
  m.add_po(all);
  return m;
}

TEST(FaultRecovery, CorruptedCounterexampleIsNeverReturned) {
  // sweep.cex_replay flips input 0 of the counterexample the sweep is
  // about to return. Here the flipped input no longer fails the miter:
  // the replay must reject it and the sweep must come back undecided.
  const aig::Aig m = one_minterm_miter(8);
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kSweepCexReplay, 1);
    fault::ScopedFaultPlan scoped(plan);
    const sweep::SweepResult r = sweep::SatSweeper().check_miter(m);
    EXPECT_EQ(scoped.fires(fault::sites::kSweepCexReplay), 1u);
    EXPECT_EQ(r.verdict, Verdict::kUndecided);
    EXPECT_FALSE(r.cex.has_value());
    EXPECT_EQ(r.stats.cex_replay_failures, 1u);
  }
  // Unfaulted, the same sweep refutes with the one failing input.
  const sweep::SweepResult clean = sweep::SatSweeper().check_miter(m);
  ASSERT_EQ(clean.verdict, Verdict::kNotEquivalent);
  ASSERT_TRUE(clean.cex.has_value());
  EXPECT_EQ(*clean.cex, std::vector<bool>(8, true));
  EXPECT_EQ(clean.stats.cex_replay_failures, 0u);

  // Mutated miters, every counterexample corrupted: a flip may or may
  // not break the counterexample, but whatever the sweep returns replays.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const aig::Aig a = testutil::random_aig(8, 120, 5, seed);
    const aig::Aig mm = aig::make_miter(a, testutil::mutate(a, seed));
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kSweepCexReplay, 1, /*fires=*/0);
    fault::ScopedFaultPlan scoped(plan);
    const sweep::SweepResult r = sweep::SatSweeper().check_miter(mm);
    if (r.verdict == Verdict::kNotEquivalent) {
      ASSERT_TRUE(r.cex.has_value());
      EXPECT_GE(aig::find_failing_po(mm, *r.cex), 0) << "seed " << seed;
    } else if (scoped.fires(fault::sites::kSweepCexReplay) > 0) {
      EXPECT_EQ(r.verdict, Verdict::kUndecided);
      EXPECT_EQ(r.stats.cex_replay_failures, 1u);
    }
  }
}

TEST(FaultRecovery, CorruptedEngineCounterexampleIsNeverReturned) {
  // engine.cex_replay flips input 0 of an engine disproof before the
  // combined flow replays it on the input miter. The engine refutes the
  // one-minterm miter in its P phase; the flipped input does not fail,
  // so the combined flow must come back undecided, without a sweep.
  const aig::Aig m = one_minterm_miter(8);
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kEngineCexReplay, 1);
    fault::ScopedFaultPlan scoped(plan);
    const portfolio::CombinedResult r = portfolio::combined_check_miter(m);
    EXPECT_EQ(scoped.fires(fault::sites::kEngineCexReplay), 1u);
    EXPECT_EQ(r.verdict, Verdict::kUndecided);
    EXPECT_FALSE(r.cex.has_value());
    EXPECT_FALSE(r.used_sat);
    EXPECT_EQ(r.report.count(obs::metric::kEngineCexReplayFailures), 1u);
  }
  // Unfaulted, the engine's own counterexample is returned.
  const portfolio::CombinedResult clean = portfolio::combined_check_miter(m);
  ASSERT_EQ(clean.verdict, Verdict::kNotEquivalent);
  EXPECT_FALSE(clean.used_sat);
  ASSERT_TRUE(clean.cex.has_value());
  EXPECT_EQ(*clean.cex, std::vector<bool>(8, true));
  EXPECT_EQ(clean.report.count(obs::metric::kEngineCexReplayFailures), 0u);

  // A constant-1 PO gets the all-zero vector. Any input refutes it, so
  // even the corrupted vector replays and is returned.
  aig::Aig one(3);
  one.add_po(aig::kLitTrue);
  const portfolio::CombinedResult c1 = portfolio::combined_check_miter(one);
  ASSERT_EQ(c1.verdict, Verdict::kNotEquivalent);
  ASSERT_TRUE(c1.cex.has_value());
  EXPECT_EQ(*c1.cex, std::vector<bool>(3, false));
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kEngineCexReplay, 1);
    fault::ScopedFaultPlan scoped(plan);
    const portfolio::CombinedResult r = portfolio::combined_check_miter(one);
    EXPECT_EQ(scoped.fires(fault::sites::kEngineCexReplay), 1u);
    ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
    ASSERT_TRUE(r.cex.has_value());
    EXPECT_EQ(*r.cex, (std::vector<bool>{true, false, false}));
  }

  // Mutated miters, every engine counterexample corrupted, both flows:
  // whatever the combined flow returns replays on its input miter.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const aig::Aig a = testutil::random_aig(8, 120, 5, seed);
    const aig::Aig mm = aig::make_miter(a, testutil::mutate(a, seed));
    for (const bool full : {false, true}) {
      fault::FaultPlan plan;
      plan.on_hit(fault::sites::kEngineCexReplay, 1, /*fires=*/0);
      fault::ScopedFaultPlan scoped(plan);
      portfolio::CombinedParams p;
      if (full) p.engine = engine::full_flow(p.engine);
      const portfolio::CombinedResult r = portfolio::combined_check_miter(mm, p);
      if (r.verdict == Verdict::kNotEquivalent) {
        ASSERT_TRUE(r.cex.has_value());
        EXPECT_GE(aig::find_failing_po(mm, *r.cex), 0) << "seed " << seed;
      } else if (scoped.fires(fault::sites::kEngineCexReplay) > 0) {
        EXPECT_EQ(r.verdict, Verdict::kUndecided);
        EXPECT_EQ(r.report.count(obs::metric::kEngineCexReplayFailures), 1u);
      }
    }
  }
}

TEST(FaultRecovery, PoolSpawnFailuresDegradeToFewerWorkers) {
  // All spawns fail: the pool runs every launch inline on the caller.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kPoolSpawn, 1, /*fires=*/0);
    fault::ScopedFaultPlan scoped(plan);
    parallel::ThreadPool pool(4);
    EXPECT_EQ(scoped.fires(fault::sites::kPoolSpawn), 4u);
    EXPECT_EQ(pool.stats().spawn_failures, 4u);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for_chunks(0, 1000, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2);
  }
  // Partial failure: the pool degrades to the workers that did start and
  // still distributes work correctly.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kPoolSpawn, 1, /*fires=*/2);
    fault::ScopedFaultPlan scoped(plan);
    parallel::ThreadPool pool(4);
    EXPECT_EQ(pool.stats().spawn_failures, 2u);
    EXPECT_EQ(pool.concurrency(), 3u);  // 2 surviving workers + caller
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for_chunks(0, 10000, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 10000u * 9999u / 2);
  }
}

TEST(FaultRecovery, CombinedFlowCountsSweepFaultsInjected) {
  // The combined flow accounts sweep-phase fires as its own
  // faults.injected delta (the engine publishes only its delta), and the
  // report records the faulted solve under sat_sweeper.solve_faults.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kSatSolve, 1, /*fires=*/1);
  fault::ScopedFaultPlan scoped(plan);
  portfolio::CombinedParams p;
  p.engine = small_engine();
  // Expire every engine phase so the whole miter reaches the sweep.
  p.engine.phase_time_limit = 1e-9;
  const portfolio::CombinedResult r = portfolio::combined_check(a, b, p);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_EQ(scoped.fires(fault::sites::kSatSolve), 1u);
  EXPECT_GE(r.report.count(obs::metric::kFaultsInjected), 1u);
  EXPECT_DOUBLE_EQ(r.report.value(obs::metric::kSweeperSolveFaults), 1.0);
}

// ---------------------------------------------------------------------------
// The acceptance soak: every catalogued site, fixed seed, sound verdicts.
// ---------------------------------------------------------------------------

TEST(FaultSites, EveryCataloguedSiteSurvivesInjection) {
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  const aig::Aig sat_a = testutil::random_aig(8, 120, 5, 501);
  const aig::Aig sat_miter = aig::make_miter(sat_a, opt::resyn_light(sat_a));

  for (const char* site : fault::kCataloguedSites) {
    SCOPED_TRACE(site);
    fault::FaultPlan plan;
    plan.seed(0xD15EA5EULL).on_hit(site, 1, /*fires=*/2);
    fault::ScopedFaultPlan scoped(plan);
    const std::string_view name(site);
    if (name == fault::sites::kPoolSpawn) {
      // The process-wide pool exists before any test runs; spawn faults
      // are exercised against a fresh pool instance.
      parallel::ThreadPool pool(4);
      EXPECT_EQ(pool.stats().spawn_failures, 2u);
      std::atomic<int> count{0};
      pool.parallel_for_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
        count.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
      });
      EXPECT_EQ(count.load(), 100);
    } else if (name == fault::sites::kSatSolve) {
      const sweep::SweepResult r =
          sweep::SatSweeper().check_miter(sat_miter);
      EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
    } else if (name == fault::sites::kSweepCexReplay) {
      // A corrupted counterexample is caught by its replay: the sweep
      // comes back undecided instead of returning it.
      const sweep::SweepResult r =
          sweep::SatSweeper().check_miter(one_minterm_miter(6));
      EXPECT_EQ(r.verdict, Verdict::kUndecided);
      EXPECT_EQ(r.stats.cex_replay_failures, 1u);
    } else if (name == fault::sites::kEngineCexReplay) {
      // The same drill for an engine disproof leaving the combined flow.
      const portfolio::CombinedResult r =
          portfolio::combined_check_miter(one_minterm_miter(6));
      EXPECT_EQ(r.verdict, Verdict::kUndecided);
      EXPECT_EQ(r.report.count(obs::metric::kEngineCexReplayFailures), 1u);
    } else if (name == fault::sites::kCkptWrite) {
      // A failed durable write leaves the run unaffected; the snapshot
      // stays pending and lands once the plan is spent (DESIGN.md §2.8).
      const std::string path = ::testing::TempDir() + "soak_ckpt_write.ckpt";
      std::remove(path.c_str());
      std::remove((path + ".prev").c_str());
      ckpt::CheckpointManager mgr({path, 0.0, nullptr, {}});
      ckpt::Snapshot s;
      s.fingerprint = 1;
      s.miter = sat_miter;
      mgr.offer(s);  // fire 1: write fails, pending kept
      mgr.offer(s);  // fire 2
      EXPECT_EQ(mgr.writes(), 0u);
      mgr.flush();   // plan spent: the pending snapshot lands
      EXPECT_EQ(mgr.writes(), 1u);
      EXPECT_TRUE(mgr.load(1).has_value());
    } else if (name == fault::sites::kCkptLoad) {
      // A failed snapshot read fails CLOSED: the ladder ends in a fresh
      // run, never resuming questionable state.
      const std::string path = ::testing::TempDir() + "soak_ckpt_load.ckpt";
      std::remove(path.c_str());
      std::remove((path + ".prev").c_str());
      ckpt::CheckpointManager mgr({path, 0.0, nullptr, {}});
      ckpt::Snapshot s;
      s.fingerprint = 2;
      s.miter = sat_miter;
      mgr.offer(s);
      EXPECT_FALSE(mgr.load(2).has_value());
    } else if (name == fault::sites::kServiceAdmit ||
               name == fault::sites::kServiceCache) {
      // Batch-service drills (DESIGN.md §2.9): a forced admission denial
      // degrades to queuing (or to the un-staked progress exception when
      // nothing runs), a forced cache miss to a sound recompute. Either
      // way every job still reaches the true verdict.
      service::CecService svc(service::ServiceParams{});
      std::vector<service::JobSpec> jobs(2);
      jobs[0].id = "soak1";
      jobs[0].a = a;
      jobs[0].b = b;
      jobs[0].params.engine = small_engine();
      jobs[1] = jobs[0];
      jobs[1].id = "soak2";
      for (const service::JobResult& res : svc.run_batch(std::move(jobs)))
        EXPECT_EQ(res.verdict, Verdict::kEquivalent);
    } else if (name == fault::sites::kCkptChildCrash) {
      // The real site aborts the process right after a durable write, so
      // the in-process soak only records the hit; the process-death path
      // is covered by the supervised CLI gate (cli_supervise_resume) and
      // the CI kill-and-resume smoke.
      EXPECT_TRUE(SIMSWEEP_FAULT_POINT(fault::sites::kCkptChildCrash));
    } else {
      const engine::EngineResult r =
          engine::SimCecEngine(small_engine()).check(a, b);
      EXPECT_EQ(r.verdict, Verdict::kEquivalent);
      EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
      EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
    }
    EXPECT_GT(scoped.hits(site), 0u);   // the site was really exercised
    EXPECT_GT(scoped.fires(site), 0u);  // and really failed
  }
}

TEST(FaultSites, ProbabilisticMultiSiteSoakStaysSound) {
  // Every catalogued site armed at once with a low per-hit probability
  // and a fixed seed (replayable). The combined checker must come
  // through with a sound verdict for an equivalent pair: anything except
  // kNotEquivalent, and no crash.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.seed(0xC0FFEEULL);
  for (const char* site : fault::kCataloguedSites)
    plan.with_probability(site, 0.02);
  fault::ScopedFaultPlan scoped(plan);
  portfolio::CombinedParams p;
  p.engine = small_engine();
  const portfolio::CombinedResult r = portfolio::combined_check(a, b, p);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(scoped.hits(fault::sites::kExhaustiveSimtAlloc), 0u);
}

}  // namespace
}  // namespace simsweep
