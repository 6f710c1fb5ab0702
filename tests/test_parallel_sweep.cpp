/// \file test_parallel_sweep.cpp
/// \brief Sharded residue sweeping tests (DESIGN.md §2.5): determinism
/// of the chunk scheduler across thread counts and repeated runs, oracle
/// soundness, dispatcher routing, deadline accounting, and concurrent
/// sweeps under tsan. The SweepProbe suite covers refuting early: the PO
/// probe on pool workers and in-round counterexample resimulation.
///
/// Suite names carry the "ParallelSweep" and "SweepProbe" prefixes on
/// purpose: the checked-executor leg of tools/run_static_analysis.sh and
/// the CI tsan job select them by those regexes (together with
/// ThreadPool/Lanes/Checked).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/cex.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "gen/suite.hpp"
#include "opt/refactor.hpp"
#include "opt/resyn.hpp"
#include "parallel/thread_pool.hpp"
#include "portfolio/portfolio.hpp"
#include "sweep/pair_solver.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "test_util.hpp"
#include "obs/metric_names.hpp"

namespace simsweep {
namespace {

using aig::Aig;
using aig::Lit;

/// The deterministic core of SweeperStats (sat_sweeper.hpp contract):
/// everything except scheduling telemetry (steals, shard breakdown, wall
/// times) and the shards config echo.
using CoreStats =
    std::tuple<Verdict, std::size_t, std::size_t, std::size_t, std::size_t,
               std::uint64_t, std::size_t, std::size_t, std::size_t,
               std::size_t, std::uint64_t, std::size_t, std::uint64_t,
               std::uint64_t, std::size_t>;

CoreStats core_stats(const sweep::SweepResult& r) {
  const sweep::SweeperStats& s = r.stats;
  return {r.verdict,          s.sat_calls,       s.pairs_proved,
          s.pairs_disproved,  s.pairs_undecided, s.conflicts,
          s.solve_faults,     s.chunks,          s.pairs_sim_resolved,
          s.probe_calls,      s.probe_conflicts, s.pairs_cex_resolved,
          s.pair_ticks,       s.probe_ticks,     s.probe_slices};
}

/// A miter the structural front end cannot solve: array vs Wallace
/// multiplier (genuinely different structures, many internal candidate
/// pairs). The inequivalent variant mutates the Wallace side until the
/// mutation provably changes the function.
Aig hard_miter(std::uint64_t seed, bool equivalent) {
  const Aig a = gen::array_multiplier(4);
  Aig b = gen::wallace_multiplier(4);
  if (!equivalent) {
    for (std::uint64_t s = seed;; ++s) {
      Aig c = testutil::mutate(b, s);
      if (!aig::brute_force_equivalent(b, c)) {
        b = std::move(c);
        break;
      }
    }
  }
  return aig::make_miter(a, b);
}

TEST(ParallelSweep, DeterministicAcrossThreadCountsAndRuns) {
  // sim_support_limit 0 forces every pair through the chunk solvers;
  // the default resolves them by cone simulation. Both must honor the
  // determinism contract. One thread selects the sequential scheduler,
  // which has no chunks, so the contract is checked from two shards up.
  for (const unsigned sim_limit : {0u, 12u}) {
    for (const bool equivalent : {true, false}) {
      const Aig m = hard_miter(2024, equivalent);
      sweep::SweeperParams p;
      p.sim_support_limit = sim_limit;
      p.pairs_per_chunk = 4;  // many chunks => real sharding on small miters
      std::vector<CoreStats> runs;
      for (const unsigned threads : {2u, 3u, 4u}) {
        for (int rep = 0; rep < 2; ++rep) {
          p.num_threads = threads;
          runs.push_back(core_stats(sweep::SatSweeper(p).check_miter(m)));
        }
      }
      for (std::size_t i = 1; i < runs.size(); ++i)
        EXPECT_EQ(runs[i], runs[0])
            << "sim_limit=" << sim_limit << " equivalent=" << equivalent
            << " run " << i << " diverged";
    }
  }
}

TEST(ParallelSweep, SimResolutionSettlesSmallSupportPairsWithoutSat) {
  // The multiplier miter has 8 PIs, so with the default support limit
  // every candidate pair fits the simulation window: the whole sweep —
  // including the PO phase, whose cones collapse to constant false
  // through the merges — must finish with zero SAT activity.
  const Aig m = hard_miter(808, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 2;
  const sweep::SweepResult sim = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(sim.verdict, Verdict::kEquivalent);
  EXPECT_GT(sim.stats.pairs_sim_resolved, 0u);
  EXPECT_EQ(sim.stats.sat_calls, 0u);
  EXPECT_EQ(sim.stats.conflicts, 0u);
  // Disabling the window sends the same pairs to the solvers instead,
  // with the same verdict and merge set.
  p.sim_support_limit = 0;
  const sweep::SweepResult sat = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(sat.verdict, Verdict::kEquivalent);
  EXPECT_EQ(sat.stats.pairs_sim_resolved, 0u);
  EXPECT_GT(sat.stats.sat_calls, 0u);
  EXPECT_EQ(sat.stats.pairs_proved, sim.stats.pairs_proved);

  // Distinct pairs: simulation finds the distinguishing minterms and the
  // reconstructed CEX patterns drive class refinement to a sound verdict.
  // A sparse EC init on a 12-PI miter leaves many distinct candidates,
  // all inside the window. (An inequivalent miter would not do: the PO
  // probe refutes it before the first pair is decided.)
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig n = aig::make_miter(a, opt::resyn_light(a));
  sweep::SweeperParams q;
  q.num_threads = 2;
  q.sim_words = 1;
  const sweep::SweepResult r = sweep::SatSweeper(q).check_miter(n);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(r.stats.pairs_disproved, 0u);
  EXPECT_EQ(r.stats.pairs_sim_resolved,
            r.stats.pairs_proved + r.stats.pairs_disproved +
                r.stats.pairs_undecided - r.stats.pairs_cex_resolved);
}

TEST(ParallelSweep, ShardTelemetryIsPopulated) {
  const Aig m = hard_miter(31337, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 3;
  p.pairs_per_chunk = 2;
  const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GE(r.stats.shards, 1u);
  EXPECT_LE(r.stats.shards, 3u);
  EXPECT_GT(r.stats.chunks, 0u);
  // The per-shard vector covers exactly the shards that RAN (the
  // stats.shards high-water mark), not the configured thread count.
  EXPECT_EQ(r.stats.shard.size(), r.stats.shards);
  std::size_t claimed = 0;
  for (const sweep::ShardStats& s : r.stats.shard) claimed += s.chunks;
  EXPECT_GT(claimed, 0u);
}

TEST(ParallelSweep, ShardStatsSizedByActualShardsNotThreads) {
  // Regression (shard-stats over-reporting): the per-shard vector was
  // resized to num_threads up front, although only
  // min(num_threads, num_chunks) shards ever run. A run whose pair list
  // fits one chunk then reported three phantom all-zero shards — and the
  // portfolio's publisher emitted sat_sweeper.shard.s1..s3 rows for
  // shards that never existed.
  const Aig m = hard_miter(4242, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 4;
  p.pairs_per_chunk = 100000;  // everything fits one chunk -> one shard
  const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r.stats.shards, 1u);
  EXPECT_EQ(r.stats.shard.size(), 1u);  // pre-fix: 4, three of them zero
  EXPECT_GT(r.stats.shard[0].chunks, 0u);
}

TEST(ParallelSweep, EmptyPairListReportsZeroShards) {
  // num_chunks == 0 edge of the same fix: a miter with no candidate
  // pairs never starts a shard, so the telemetry must show zero shards
  // and an empty per-shard vector while the PO proving still decides.
  Aig a(1);  // x
  a.add_po(a.pi_lit(0));
  Aig b(1);  // !x — the XOR strashes to constant true: zero AND nodes,
             // zero internal candidate pairs, still a real disproof
  b.add_po(aig::lit_not(b.pi_lit(0)));
  const Aig m = aig::make_miter(a, b);
  sweep::SweeperParams p;
  p.num_threads = 3;
  const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kNotEquivalent);
  // A constant-true miter PO is disproved structurally; when a concrete
  // pattern is materialized it must be a real witness.
  if (r.cex) {
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
  EXPECT_EQ(r.stats.shards, 0u);
  EXPECT_TRUE(r.stats.shard.empty());
}

TEST(ParallelSweep, InjectedSharedPoolMatchesPrivatePool) {
  // SweeperParams::pool lets the batch service run every job's sweep on
  // ONE shared pool. Injection must be behaviorally invisible: the core
  // stats are bit-identical to the private-pool run.
  const Aig m = hard_miter(909, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 3;
  p.pairs_per_chunk = 2;
  const sweep::SweepResult r1 = sweep::SatSweeper(p).check_miter(m);
  parallel::ThreadPool shared(2);
  p.pool = &shared;
  const sweep::SweepResult r2 = sweep::SatSweeper(p).check_miter(m);
  EXPECT_EQ(r1.verdict, Verdict::kEquivalent);
  EXPECT_EQ(core_stats(r1), core_stats(r2));
}

class ParallelSweepOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelSweepOracle, AgreesWithBruteForce) {
  const Aig a = testutil::random_aig(7, 80, 5, GetParam());
  const Aig b = testutil::mutate(a, GetParam() * 31 + 7);
  sweep::SweeperParams p;
  p.num_threads = 3;
  p.pairs_per_chunk = 8;
  const sweep::SweepResult r = sweep::sweep_miter(aig::make_miter(a, b), p);
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.verdict == Verdict::kEquivalent,
            aig::brute_force_equivalent(a, b));
  if (r.verdict == Verdict::kNotEquivalent) {
    ASSERT_TRUE(r.cex.has_value());
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweepOracle,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

TEST(ParallelSweep, DispatcherRoutesByThreadCount) {
  const Aig m = hard_miter(555, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 1;
  const sweep::SweepResult seq = sweep::sweep_miter(m, p);
  EXPECT_EQ(seq.verdict, Verdict::kEquivalent);
  EXPECT_EQ(seq.stats.shards, 0u);  // sequential path: no shard loops
  EXPECT_EQ(seq.stats.chunks, 0u);
  EXPECT_EQ(seq.stats.parallel_fallbacks, 0u);
  p.num_threads = 2;
  const sweep::SweepResult par = sweep::sweep_miter(m, p);
  EXPECT_EQ(par.verdict, Verdict::kEquivalent);
  EXPECT_GE(par.stats.shards, 1u);
  EXPECT_EQ(par.stats.parallel_fallbacks, 0u);
}

TEST(ParallelSweep, ParallelMatchesSequentialVerdict) {
  for (const std::uint64_t seed : {611u, 612u, 613u}) {
    for (const bool equivalent : {true, false}) {
      const Aig m = hard_miter(seed, equivalent);
      sweep::SweeperParams p;
      const sweep::SweepResult seq = sweep::SatSweeper(p).check_miter(m);
      p.num_threads = 2;
      p.pairs_per_chunk = 4;
      const sweep::SweepResult par = sweep::sweep_miter(m, p);
      EXPECT_EQ(par.verdict, seq.verdict)
          << "seed " << seed << " equivalent=" << equivalent;
    }
  }
}

TEST(ParallelSweep, TimeLimitYieldsUndecided) {
  const Aig a = testutil::random_aig(10, 300, 6, 121);
  const Aig m = aig::make_miter(a, opt::refactor(a));
  if (aig::miter_proved(m)) GTEST_SKIP() << "refactor was the identity";
  sweep::SweeperParams p;
  p.num_threads = 4;
  p.time_limit = 1e-9;  // expires immediately
  const sweep::SweepResult r = sweep::sweep_miter(m, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(ParallelSweep, CancellationYieldsUndecided) {
  const Aig a = testutil::random_aig(10, 300, 6, 121);
  const Aig m = aig::make_miter(a, opt::refactor(a));
  if (aig::miter_proved(m)) GTEST_SKIP() << "refactor was the identity";
  std::atomic<bool> cancel{true};
  sweep::SweeperParams p;
  p.num_threads = 4;
  p.cancel = &cancel;
  const sweep::SweepResult r = sweep::sweep_miter(m, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(ParallelSweep, DeadlineCountsOnlyAttemptedPairs) {
  // Regression: when the deadline stopped a sharded sweep mid-round,
  // every pair its chunks never reached was counted undecided (and
  // journaled as removed) although no solver ever saw it. An undecided
  // pair costs at least one SAT call or one failed solve entry; pairs
  // settled by cone simulation are never undecided.
  const gen::BenchCase c = gen::make_case("hyp", {.doublings = 0});
  const Aig m = aig::make_miter(c.original, c.optimized);
  sweep::SweeperParams p;
  p.num_threads = 2;
  p.time_limit = 0.5;  // the hyp residue needs minutes at 2 shards
  const sweep::SweepResult r = sweep::sweep_miter(m, p);
  if (r.stats.chunks == 0) GTEST_SKIP() << "deadline expired before round 1";
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
  EXPECT_LE(r.stats.pairs_undecided, r.stats.sat_calls + r.stats.solve_faults);
}

TEST(ParallelSweep, StructurallySolvedMitersShortCircuit) {
  sweep::SweeperParams p;
  p.num_threads = 4;
  Aig zero(2);
  zero.add_po(aig::kLitFalse);
  EXPECT_EQ(sweep::sweep_miter(zero, p).verdict, Verdict::kEquivalent);
  Aig one(2);
  one.add_po(aig::kLitTrue);
  EXPECT_EQ(sweep::sweep_miter(one, p).verdict, Verdict::kNotEquivalent);
}

TEST(ParallelSweep, CombinedFlowPublishesShardCounters) {
  // When the combined flow's sweep phase runs sharded, the run report
  // gains the sat_sweeper.{shards,chunks,...} gauges and the per-shard
  // breakdown; sequential runs keep their historical report shape.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  portfolio::CombinedParams p;
  p.engine.enable_po_phase = false;
  p.engine.k_P = 10;
  p.engine.k_p = 4;
  p.engine.k_g = 5;
  p.engine.k_l = 6;
  p.engine.memory_words = 1 << 16;
  // Expire the engine phases so the whole miter reaches the sweep.
  p.engine.phase_time_limit = 1e-9;
  p.sweeper.num_threads = 2;
  p.sweeper.pairs_per_chunk = 4;
  const portfolio::CombinedResult r = portfolio::combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GE(r.report.value(obs::metric::kSweeperShards), 1.0);
  EXPECT_GE(r.report.value(obs::metric::kSweeperChunks), 1.0);
  EXPECT_DOUBLE_EQ(r.report.value(obs::metric::kSweeperParallelFallbacks), 0.0);
  // Every shard gauge (including the per-shard breakdown) is present.
  EXPECT_NE(r.report.find(obs::metric::kSweeperPairsSimResolved), nullptr);
  EXPECT_NE(r.report.find(obs::metric::kSweeperSteals), nullptr);
  EXPECT_NE(r.report.find("sat_sweeper.shard.s0.busy_seconds"), nullptr);
  EXPECT_NE(r.report.find("sat_sweeper.shard.s1.chunks"), nullptr);
}

TEST(ParallelSweep, ConcurrentSweepsShareNothing) {
  // Two full sharded sweeps in flight at once (the portfolio races a
  // pure-SAT arm against the combined arm): private pools and per-sweep
  // state must not interfere.
  const Aig m1 = hard_miter(777, /*equivalent=*/true);
  const Aig m2 = hard_miter(778, /*equivalent=*/false);
  sweep::SweeperParams p;
  p.num_threads = 2;
  p.pairs_per_chunk = 4;
  sweep::SweepResult r1, r2;
  std::thread a([&] { r1 = sweep::sweep_miter(m1, p); });
  std::thread b([&] { r2 = sweep::sweep_miter(m2, p); });
  a.join();
  b.join();
  EXPECT_EQ(r1.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r2.verdict, Verdict::kNotEquivalent);
}

// ---------------------------------------------------------------------------
// Refuting early: the PO probe and in-round CEX resimulation.
// ---------------------------------------------------------------------------

/// Table II case `family` at doublings=0 against a one-fanin-flip mutant
/// of its optimized side: the raw miter, no engine in front.
Aig mutant_miter(const char* family, std::uint64_t mutant_seed) {
  const gen::BenchCase c = gen::make_case(family, {.doublings = 0});
  return aig::make_miter(c.original,
                         testutil::mutate(c.optimized, mutant_seed));
}

/// Table II case `family` at doublings=0, original against optimized: an
/// equivalent raw miter with many POs, no engine in front.
Aig equivalent_miter(const char* family) {
  const gen::BenchCase c = gen::make_case(family, {.doublings = 0});
  return aig::make_miter(c.original, c.optimized);
}

/// A pool of `size` threads, the calling thread included.
std::unique_ptr<parallel::ThreadPool> pool_of(unsigned size) {
  if (size > 1) return std::make_unique<parallel::ThreadPool>(size - 1);
  // ThreadPool(0) means "size to the host"; a pool whose only worker
  // fails to spawn runs every launch inline on the caller.
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kPoolSpawn, 1);
  fault::ScopedFaultPlan scoped(plan);
  return std::make_unique<parallel::ThreadPool>(1);
}

TEST(SweepProbe, RefutesMutatedHypWithoutPairQueries) {
  // Without the probe this mutant's counterexample waited behind
  // thousands of internal proofs for the final PO query, and the sweep
  // ran out of a minute. The probe before round 0 finds it.
  const Aig m = mutant_miter("hyp", 42);
  const sweep::SweepResult r = sweep::SatSweeper().check_miter(m);
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  EXPECT_EQ(r.stats.sat_calls, 0u);
  EXPECT_EQ(r.stats.pairs_proved + r.stats.pairs_disproved +
                r.stats.pairs_undecided,
            0u);
  EXPECT_GT(r.stats.probe_calls, 0u);
  EXPECT_EQ(r.stats.cex_replay_failures, 0u);
  ASSERT_TRUE(r.cex.has_value());
  EXPECT_GE(aig::find_failing_po(m, *r.cex), 0);
}

TEST(SweepProbe, IdenticalAcrossPoolSizesAndRuns) {
  // The probe's slice set depends only on the round's final pair ticks,
  // each PO keeps its own solver for every slice, and a refuting slice
  // counts its POs up to the refuting one. So the verdict, the
  // counterexample and every counter (the tick rows included) do not
  // depend on the pool, on whether the probe runs beside the pairs or
  // between them on the calling thread, or on the interleaving.
  struct Case {
    const char* family;
    std::int64_t mutant_seed;  ///< -1: the equivalent pair
  };
  for (const Case& c : {Case{"hyp", 42}, Case{"multiplier", 2},
                        Case{"multiplier", -1}}) {
    SCOPED_TRACE(std::string(c.family) + "#" + std::to_string(c.mutant_seed));
    const bool equivalent = c.mutant_seed < 0;
    const Aig m = equivalent ? equivalent_miter(c.family)
                             : mutant_miter(c.family, c.mutant_seed);
    std::optional<sweep::SweepResult> first;
    for (const unsigned size : {1u, 2u, 4u}) {
      const std::unique_ptr<parallel::ThreadPool> pool = pool_of(size);
      sweep::SweeperParams p;
      p.pool = pool.get();
      for (int rep = 0; rep < 2; ++rep) {
        const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
        ASSERT_EQ(r.verdict, equivalent ? Verdict::kEquivalent
                                        : Verdict::kNotEquivalent);
        if (!first) {
          first = r;
          // Many open POs, and on a mutant the refuting PO is not the
          // first one: the counters cover a real prefix of the probe.
          EXPECT_GT(r.stats.probe_calls, 1u);
          EXPECT_GT(r.stats.probe_ticks, 0u);
          if (equivalent) {
            EXPECT_GT(r.stats.pair_ticks, 0u);
          }
          continue;
        }
        EXPECT_EQ(r.cex, first->cex) << "pool " << size << " rep " << rep;
        EXPECT_EQ(core_stats(r), core_stats(*first))
            << "pool " << size << " rep " << rep;
      }
    }
  }
}

TEST(SweepProbe, ProbeWorkIsPacedByPairWork) {
  // A slice after the first starts only while the probe's ticks stay
  // within kProbeTickRatio (4, DESIGN.md §2.5) times the round's pair
  // ticks. Equivalent multiplier: many open POs, a cheap pair round, so
  // slice 0 (conflict_limit/1000 conflicts per PO) is all the pair work
  // pays for. Slice 0 is reproduced here on fresh solvers: its ticks are
  // deterministic.
  const Aig m = equivalent_miter("multiplier");
  const sweep::SweeperParams p;
  const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
  ASSERT_EQ(r.verdict, Verdict::kEquivalent);

  const aig::SubstitutionMap none(m.num_nodes());
  std::uint64_t slice0_ticks = 0;
  std::uint64_t slice0_conflicts = 0;
  std::size_t open = 0;
  for (const Lit po : m.pos()) {
    if (po == aig::kLitFalse) continue;
    aig::SubstitutionMap local = none;
    sweep::PairSolver ps(m, &local);
    ps.prove_false(po, p.conflict_limit / 1000);
    slice0_ticks += ps.ticks();
    slice0_conflicts += ps.conflicts();
    ++open;
  }
  ASSERT_GT(open, 1u);
  EXPECT_LE(r.stats.probe_ticks, slice0_ticks + 4 * r.stats.pair_ticks);
  // The gate held: slice 0 is the only slice, and its work is exactly the
  // fresh solvers' above (a tenth of the per-PO cap an unpaced probe would
  // have spent).
  EXPECT_EQ(r.stats.probe_slices, 1u);
  EXPECT_EQ(r.stats.probe_ticks, slice0_ticks);
  EXPECT_EQ(r.stats.probe_conflicts, slice0_conflicts);
  EXPECT_EQ(r.stats.probe_calls, open);
  EXPECT_GT(slice0_ticks, 4 * r.stats.pair_ticks);
}

TEST(SweepProbe, DeadlineOrCancelMidRoundReturnsUndecidedPromptly) {
  // The equivalent hyp miter sweeps for seconds, its probe slices beside
  // (or, on one thread, between) the pairs. A deadline or a cancel that
  // lands mid-round must stop both: no probe loop may wait on a gate the
  // pairs will never open.
  const Aig m = equivalent_miter("hyp");
  constexpr double kStopAfter = 0.25;
  constexpr double kPrompt = 2.0;  // generous: sanitizer builds are slow
  for (const unsigned size : {1u, 4u}) {
    SCOPED_TRACE("pool " + std::to_string(size));
    const std::unique_ptr<parallel::ThreadPool> pool = pool_of(size);
    {
      sweep::SweeperParams p;
      p.pool = pool.get();
      p.time_limit = kStopAfter;
      const Timer sw;
      const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
      EXPECT_EQ(r.verdict, Verdict::kUndecided);
      EXPECT_LT(sw.seconds(), kStopAfter + kPrompt);
    }
    {
      std::atomic<bool> cancel{false};
      sweep::SweeperParams p;
      p.pool = pool.get();
      p.cancel = &cancel;
      std::atomic<double> cancelled_at{0};
      const Timer sw;
      std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::duration<double>(kStopAfter));
        cancelled_at.store(sw.seconds());
        cancel.store(true);
      });
      const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
      const double done = sw.seconds();
      canceller.join();
      EXPECT_EQ(r.verdict, Verdict::kUndecided);
      EXPECT_LT(done - cancelled_at.load(), kPrompt);
    }
  }
}

TEST(SweepProbe, FreshSolverRefutationIsMonotoneInBudget) {
  // A fresh solver's search does not depend on its conflict budget,
  // which only cuts the search off: a budget that refutes a PO still
  // refutes it when doubled. (A probe on one solver shared by many POs
  // lacks this property, which is why every probed PO gets its own.)
  for (const auto& [family, seed] :
       {std::pair{"sqrt", 2}, std::pair{"sqrt", 3}, std::pair{"log2", 2},
        std::pair{"log2", 3}, std::pair{"voter", 2}, std::pair{"voter", 3}}) {
    const Aig m = mutant_miter(family, seed);
    const aig::SubstitutionMap none(m.num_nodes());
    bool any_refuted = false;
    for (std::size_t po = 0; po < m.num_pos(); ++po) {
      bool refuted = false;
      for (std::int64_t budget = 4; budget <= 512; budget *= 2) {
        aig::SubstitutionMap local = none;
        sweep::PairSolver ps(m, &local);
        const bool sat = ps.prove_false(m.pos()[po], budget) ==
                         sat::Solver::Result::kSat;
        EXPECT_TRUE(sat || !refuted)
            << family << "#m" << seed << " PO " << po << " refuted below "
            << budget << " conflicts but not at " << budget;
        refuted = refuted || sat;
      }
      any_refuted = any_refuted || refuted;
    }
    EXPECT_TRUE(any_refuted) << family << "#m" << seed;
  }
}

TEST(SweepProbe, SeparatedPairsIssueNoSatQuery) {
  // Every solve entry passes the sat.solve site, so a plan armed never
  // to fire counts the SAT queries. At each round barrier the queries so
  // far are the probed POs plus one per decided pair, except the pairs
  // that a CEX found earlier in the same round (or chunk) separated.
  // The miter is equivalent, so no probe refutes and every probed PO
  // counts; a sparse EC init leaves many distinct candidate pairs.
  const Aig a = testutil::random_aig(12, 260, 6, 302);
  const Aig m = aig::make_miter(a, opt::resyn_light(a));
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kSatSolve,
                std::numeric_limits<std::uint64_t>::max());
    fault::ScopedFaultPlan scoped(plan);
    sweep::SweeperParams p;
    p.sim_words = 1;
    p.num_threads = threads;
    p.sim_support_limit = 0;  // every pair goes to SAT or to the CEX word
    std::size_t separated = 0;
    p.checkpoint_hook = [&](const sweep::SweepCheckpointView& v) {
      const sweep::SweeperStats& s = *v.stats;
      EXPECT_EQ(scoped.hits(fault::sites::kSatSolve),
                s.probe_calls + s.pairs_proved + s.pairs_disproved +
                    s.pairs_undecided - s.pairs_cex_resolved)
          << "before round " << v.next_round;
      separated = s.pairs_cex_resolved;
    };
    const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
    EXPECT_EQ(r.verdict, Verdict::kEquivalent);
    EXPECT_GT(separated, 0u);
  }
}

TEST(SweepProbe, EquivalentMiterKeepsItsProofs) {
  // The probe only refutes, and on an equivalent miter it never does: the
  // merges are those of a sweep without probes or resimulation, which
  // proved 41 pairs here on every scheduler.
  const Aig m = hard_miter(2024, /*equivalent=*/true);
  for (const unsigned sim_limit : {0u, 12u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      sweep::SweeperParams p;
      p.sim_support_limit = sim_limit;
      p.num_threads = threads;
      const sweep::SweepResult r = sweep::SatSweeper(p).check_miter(m);
      EXPECT_EQ(r.verdict, Verdict::kEquivalent);
      EXPECT_EQ(r.stats.pairs_proved, 41u)
          << "sim_limit=" << sim_limit << " threads=" << threads;
      EXPECT_GT(r.stats.probe_calls, 0u);
    }
  }
}

}  // namespace
}  // namespace simsweep
