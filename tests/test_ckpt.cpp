/// \file test_ckpt.cpp
/// \brief Checkpoint/resume subsystem tests (DESIGN.md §2.8): snapshot
/// round-trips, fail-closed loading (CRC, truncation, version, stage,
/// fingerprint), the atomic-write + last-good ladder, write/load fault
/// drills, resume verdict identity and supervised crash-restart.

#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "ckpt/resume.hpp"
#include "ckpt/supervisor.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"
#include "opt/resyn.hpp"
#include "sim/partial_sim.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "test_util.hpp"

namespace simsweep::ckpt {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes_file(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the CRC trailer after a deliberate field patch, so the test
/// exercises the *shape* gate rather than the CRC gate.
void refresh_crc(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t c = crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((c >> (8 * i)) & 0xFF);
}

/// A representative sweep-stage snapshot with every section populated.
Snapshot sweep_snapshot(std::uint64_t fingerprint, double elapsed = 1.5) {
  Snapshot s;
  s.stage = Stage::kSweep;
  s.fingerprint = fingerprint;
  s.elapsed_seconds = elapsed;
  s.boundary = "round";
  s.engine_stats.initial_ands = 40;
  s.engine_stats.final_ands = 30;
  s.engine_stats.pos_total = 1;
  s.engine_stats.pairs_proved_global = 4;
  s.degrade.memory_words = std::size_t{1} << 12;
  s.degrade.ladder_steps = 2;
  s.miter = aig::make_miter(gen::array_multiplier(3),
                            gen::wallace_multiplier(3));
  s.bank = sim::PatternBank::random(s.miter.num_pis(), 2, 7);
  const aig::Var last = static_cast<aig::Var>(s.miter.num_nodes() - 1);
  s.merges.emplace_back(last, aig::make_lit(1));
  s.removed.push_back(last - 1);
  s.next_round = 3;
  s.sweep_pairs_proved = 5;
  s.sweep_pairs_disproved = 2;
  s.sweep_pairs_undecided = 1;
  return s;
}

// --- Format: serialize/parse round-trips and fail-closed rejects. ---

TEST(CkptFormat, SerializeParseRoundTrips) {
  const Snapshot s = sweep_snapshot(0xC0FFEEull);
  const std::vector<std::uint8_t> bytes = serialize(s);
  const std::optional<Snapshot> p = parse(bytes.data(), bytes.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stage, Stage::kSweep);
  EXPECT_EQ(p->fingerprint, 0xC0FFEEull);
  EXPECT_DOUBLE_EQ(p->elapsed_seconds, 1.5);
  EXPECT_EQ(p->boundary, "round");
  EXPECT_EQ(p->engine_stats.initial_ands, 40u);
  EXPECT_EQ(p->engine_stats.pairs_proved_global, 4u);
  EXPECT_EQ(p->degrade.memory_words, std::size_t{1} << 12);
  EXPECT_EQ(p->degrade.ladder_steps, 2u);
  EXPECT_EQ(p->miter.num_nodes(), s.miter.num_nodes());
  EXPECT_EQ(p->miter.num_pos(), s.miter.num_pos());
  ASSERT_TRUE(p->bank.has_value());
  EXPECT_EQ(p->merges, s.merges);
  EXPECT_EQ(p->removed, s.removed);
  EXPECT_EQ(p->next_round, 3u);
  EXPECT_EQ(p->sweep_pairs_proved, 5u);
  EXPECT_EQ(p->sweep_pairs_disproved, 2u);
  EXPECT_EQ(p->sweep_pairs_undecided, 1u);
  // Re-serializing the parse must be byte-identical (the encoding is a
  // pure function of the snapshot, so checkpoints of a resumed run match
  // checkpoints of the uninterrupted run).
  EXPECT_EQ(serialize(*p), bytes);
}

TEST(CkptFormat, EngineStageWithoutBankRoundTrips) {
  Snapshot s;
  s.stage = Stage::kEngine;
  s.fingerprint = 17;
  s.boundary = "G+";
  s.miter = aig::make_miter(gen::ripple_adder(3), gen::ripple_adder(3));
  const std::vector<std::uint8_t> bytes = serialize(s);
  const std::optional<Snapshot> p = parse(bytes.data(), bytes.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stage, Stage::kEngine);
  EXPECT_EQ(p->boundary, "G+");
  EXPECT_FALSE(p->bank.has_value());
  EXPECT_TRUE(p->merges.empty());
}

TEST(CkptFormat, CrcCatchesEveryByteCorruption) {
  const std::vector<std::uint8_t> good = serialize(sweep_snapshot(1));
  // Flip one bit of each byte in turn: every mutant must be rejected
  // (any accepted mutant either differs in the CRC-protected region —
  // impossible for a single flip — or corrupts the trailer itself).
  for (std::size_t at = 0; at < good.size(); ++at) {
    std::vector<std::uint8_t> bad = good;
    bad[at] ^= 0x10;
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value())
        << "accepted a flip at byte " << at;
  }
}

TEST(CkptFormat, TruncationAndTrailingGarbageRejected) {
  const std::vector<std::uint8_t> good = serialize(sweep_snapshot(2));
  for (std::size_t keep = 0; keep < good.size(); keep += 7)
    EXPECT_FALSE(parse(good.data(), keep).has_value());
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(parse(padded.data(), padded.size()).has_value());
}

TEST(CkptFormat, VersionAndStageAndElapsedShapeGatesHold) {
  const std::vector<std::uint8_t> good = serialize(sweep_snapshot(3));
  // Layout: magic[16] | version u32 | stage u32 | fingerprint u64 |
  // elapsed f64 | ...
  {
    std::vector<std::uint8_t> bad = good;  // future format version
    bad[16] = 2;
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
  {
    std::vector<std::uint8_t> bad = good;  // stage out of range
    bad[20] = 9;
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
  {
    std::vector<std::uint8_t> bad = good;  // negative elapsed wall-clock
    const double neg = -1.0;
    std::memcpy(bad.data() + 32, &neg, sizeof neg);
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
}

TEST(CkptFormat, MergeJournalOrderingGateHolds) {
  // A merge entry whose replacement is not strictly smaller than the
  // merged node would let a resumed run apply an unsound substitution:
  // shape-rejected even with a valid CRC.
  Snapshot s = sweep_snapshot(4);
  s.merges.clear();
  const aig::Var last = static_cast<aig::Var>(s.miter.num_nodes() - 1);
  s.merges.emplace_back(last, aig::make_lit(last));  // lit_var(lit) == node
  std::vector<std::uint8_t> bad = serialize(s);
  EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
}

TEST(CkptFormat, GoldenEncodingIsPinned) {
  // Pins simsweep.ckpt.v1 byte for byte: every EngineStats/DegradeState
  // field holds a distinct value, so a reordered, retyped or dropped stats
  // row changes the bytes. A mismatch means existing snapshots no longer
  // load — bump kFormatVersion instead of updating the constants.
  Snapshot s;
  s.stage = Stage::kSweep;
  s.fingerprint = 0x0123456789ABCDEFull;
  s.elapsed_seconds = 2.5;
  s.boundary = "round";
  engine::EngineStats& e = s.engine_stats;
  e.po_seconds = 0.125;
  e.global_seconds = 0.25;
  e.local_seconds = 0.5;
  e.other_seconds = 0.75;
  e.total_seconds = 1.625;
  e.initial_ands = 101;
  e.final_ands = 102;
  e.pos_total = 103;
  e.pos_proved = 104;
  e.pairs_proved_global = 105;
  e.pairs_proved_local = 106;
  e.pairs_disproved = 107;
  e.cex_count = 108;
  e.local_phases = 109;
  engine::DegradeState& d = s.degrade;
  d.memory_words = 201;
  d.window_merging = false;
  d.ladder_steps = 202;
  d.memory_halvings = 203;
  d.merge_fallbacks = 204;
  d.batch_splits = 205;
  d.deadline_expiries = 206;
  d.units_abandoned = 207;
  d.pass_retries = 208;
  d.faults_recovered = 209;
  aig::Aig g(3);
  const aig::Lit x = g.add_and(g.pi_lit(0), g.pi_lit(1));
  g.add_po(g.add_and(aig::lit_not(x), g.pi_lit(2)));
  s.miter = g;
  sim::PatternBank bank(3, 2);
  for (std::size_t wd = 0; wd < 2; ++wd)
    for (unsigned pi = 0; pi < 3; ++pi)
      bank.word(pi, wd) = 0x1111111111111111ull * (pi + 1) + wd;
  s.bank = bank;
  s.merges.emplace_back(5, aig::make_lit(4, true));
  s.removed.push_back(4);
  s.next_round = 3;
  s.sweep_pairs_proved = 7;
  s.sweep_pairs_disproved = 8;
  s.sweep_pairs_undecided = 9;

  const std::vector<std::uint8_t> bytes = serialize(s);
  EXPECT_EQ(bytes.size(), 395u);
  EXPECT_EQ(crc32(bytes.data(), bytes.size() - 4), 0xC63232ADu);
  const std::optional<Snapshot> p = parse(bytes.data(), bytes.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(serialize(*p), bytes);
}

// --- Manager: atomic writes, the last-good ladder, throttling. ---

TEST(CkptManager, EmptyPathDisablesEverything) {
  CheckpointManager mgr({"", 0.0, nullptr, {}});
  mgr.offer(sweep_snapshot(5));
  mgr.flush();
  EXPECT_EQ(mgr.writes(), 0u);
  EXPECT_FALSE(mgr.load(5).has_value());
}

TEST(CkptManager, AtomicWriteRetainsLastGoodAsPrev) {
  const std::string path = temp_path("simsweep_ckpt_prev.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(6, 1.0));
  mgr.offer(sweep_snapshot(6, 2.0));
  EXPECT_EQ(mgr.writes(), 2u);
  const std::vector<std::uint8_t> cur = read_bytes(path);
  const std::vector<std::uint8_t> prev = read_bytes(path + ".prev");
  const std::optional<Snapshot> pc = parse(cur.data(), cur.size());
  const std::optional<Snapshot> pp = parse(prev.data(), prev.size());
  ASSERT_TRUE(pc.has_value());
  ASSERT_TRUE(pp.has_value());
  EXPECT_DOUBLE_EQ(pc->elapsed_seconds, 2.0);
  EXPECT_DOUBLE_EQ(pp->elapsed_seconds, 1.0);
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptWrites), 2u);
  EXPECT_GT(reg.snapshot().count(obs::metric::kCkptBytes), 0u);
}

TEST(CkptManager, LoadLadderFallsBackToPrevThenFresh) {
  const std::string path = temp_path("simsweep_ckpt_ladder.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(7, 1.0));
  mgr.offer(sweep_snapshot(7, 2.0));

  // Corrupt the primary: load must fall through to .prev.
  std::vector<std::uint8_t> cur = read_bytes(path);
  cur.resize(cur.size() / 2);
  write_bytes_file(path, cur);
  std::optional<Snapshot> got = mgr.load(7);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->elapsed_seconds, 1.0);
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptLoadRejects), 1u);

  // Corrupt .prev too: the ladder ends in "start fresh", never unsound.
  std::vector<std::uint8_t> prev = read_bytes(path + ".prev");
  prev[prev.size() / 2] ^= 0xFF;
  write_bytes_file(path + ".prev", prev);
  EXPECT_FALSE(mgr.load(7).has_value());
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptLoadRejects), 3u);
}

TEST(CkptManager, FingerprintMismatchRejected) {
  const std::string path = temp_path("simsweep_ckpt_fp.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(8));
  EXPECT_FALSE(mgr.load(9).has_value());
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptLoadRejects), 1u);
  EXPECT_TRUE(mgr.load(8).has_value());
}

TEST(CkptManager, ThrottleKeepsPendingForFlush) {
  const std::string path = temp_path("simsweep_ckpt_throttle.ckpt");
  CheckpointManager mgr({path, 3600.0, nullptr, {}});
  mgr.offer(sweep_snapshot(10, 1.0));  // first offer is always durable
  mgr.offer(sweep_snapshot(10, 2.0));  // inside the interval: pending only
  EXPECT_EQ(mgr.writes(), 1u);
  {
    const std::vector<std::uint8_t> cur = read_bytes(path);
    const std::optional<Snapshot> p = parse(cur.data(), cur.size());
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->elapsed_seconds, 1.0);
  }
  mgr.flush();  // the SIGINT/SIGTERM path makes the pending offer durable
  EXPECT_EQ(mgr.writes(), 2u);
  const std::vector<std::uint8_t> cur = read_bytes(path);
  const std::optional<Snapshot> p = parse(cur.data(), cur.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->elapsed_seconds, 2.0);
  mgr.flush();  // nothing pending: no third write
  EXPECT_EQ(mgr.writes(), 2u);
}

// --- Fault drills: the ckpt.* injection sites (DESIGN.md §2.4 + §2.8). ---

TEST(CkptFault, WriteFaultLeavesLastGoodIntact) {
  const std::string path = temp_path("simsweep_ckpt_wfault.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(11, 1.0));
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kCkptWrite, 1);
    fault::ScopedFaultPlan armed(plan);
    mgr.offer(sweep_snapshot(11, 2.0));  // write fails, snapshot pending
    EXPECT_EQ(mgr.writes(), 1u);
    const std::vector<std::uint8_t> cur = read_bytes(path);
    const std::optional<Snapshot> p = parse(cur.data(), cur.size());
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->elapsed_seconds, 1.0);  // last-good untouched
    EXPECT_EQ(armed.fires(fault::sites::kCkptWrite), 1u);
    mgr.flush();  // the plan is spent: the pending snapshot lands now
  }
  EXPECT_EQ(mgr.writes(), 2u);
  const std::vector<std::uint8_t> cur = read_bytes(path);
  const std::optional<Snapshot> p = parse(cur.data(), cur.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->elapsed_seconds, 2.0);
}

TEST(CkptFault, LoadFaultFailsClosed) {
  const std::string path = temp_path("simsweep_ckpt_lfault.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(12));
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kCkptLoad, 1, 2);  // both ladder candidates
    fault::ScopedFaultPlan armed(plan);
    EXPECT_FALSE(mgr.load(12).has_value());
  }
  EXPECT_GE(reg.snapshot().count(obs::metric::kCkptLoadRejects), 1u);
  EXPECT_TRUE(mgr.load(12).has_value());  // disarmed: the file was fine
}

// --- Resume: verdict identity and journal replay. ---

TEST(CkptResume, KilledRunResumesToIdenticalVerdict) {
  // The acceptance drill of DESIGN.md §2.8 in-process: leg 1 runs the
  // combined flow to completion with every boundary durable; its last
  // snapshot is exactly the state a kill -9 at that boundary would leave
  // behind. Leg 2 resumes from it and must reach the same verdict with
  // restored (not re-solved) equivalences. Both engine flows: the default
  // one (P, G, then the sweep) and the full-flow preset, whose engine also
  // passes "L" and "G+" boundaries.
  for (const bool full : {false, true}) {
    SCOPED_TRACE(full ? "full flow" : "default flow");
    CheckpointedParams p;
    p.combined.engine.enable_po_phase = false;
    p.combined.engine.k_P = 6;
    p.combined.engine.k_p = 4;
    p.combined.engine.k_g = 4;
    p.combined.engine.k_l = 4;
    p.combined.engine.memory_words = std::size_t{1} << 16;
    if (full) p.combined.engine = engine::full_flow(p.combined.engine);
    p.checkpoint_path = temp_path(full ? "simsweep_ckpt_resume_full.ckpt"
                                       : "simsweep_ckpt_resume.ckpt");
    p.checkpoint_interval = 0;
    p.resume = true;

    const aig::Aig a = gen::array_multiplier(4);
    const aig::Aig b = gen::wallace_multiplier(4);

    const CheckpointedResult leg1 = checked_combined_check(a, b, p);
    EXPECT_FALSE(leg1.resumed);
    EXPECT_EQ(leg1.combined.verdict, Verdict::kEquivalent);
    ASSERT_GT(leg1.checkpoint_writes, 0u);
    EXPECT_EQ(leg1.combined.report.count(obs::metric::kCkptResumes), 0u);

    const CheckpointedResult leg2 = checked_combined_check(a, b, p);
    EXPECT_TRUE(leg2.resumed);
    EXPECT_EQ(leg2.combined.verdict, leg1.combined.verdict);
    EXPECT_GT(leg2.pairs_restored, 0u);
    EXPECT_EQ(leg2.combined.report.count(obs::metric::kCkptResumes), 1u);
    EXPECT_EQ(leg2.combined.report.count(obs::metric::kCkptPairsRestored),
              leg2.pairs_restored);
  }
}

TEST(CkptResume, WrongConfigurationSnapshotIsIgnored) {
  // Same miter, different k thresholds: the fingerprint differs, so the
  // resume ladder must reject the snapshot and run fresh (resuming a
  // different configuration would void the determinism argument).
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 6;
  p.combined.engine.k_p = 4;
  p.combined.engine.k_g = 4;
  p.combined.engine.k_l = 4;
  p.combined.engine.memory_words = std::size_t{1} << 16;
  p.checkpoint_path = temp_path("simsweep_ckpt_cfg.ckpt");

  const aig::Aig a = gen::array_multiplier(3);
  const aig::Aig b = gen::wallace_multiplier(3);
  const CheckpointedResult leg1 = checked_combined_check(a, b, p);
  EXPECT_EQ(leg1.combined.verdict, Verdict::kEquivalent);

  CheckpointedParams q = p;
  q.combined.engine.k_g = 5;  // verdict-relevant parameter changed
  const CheckpointedResult leg2 = checked_combined_check(a, b, q);
  EXPECT_FALSE(leg2.resumed);
  EXPECT_EQ(leg2.combined.verdict, Verdict::kEquivalent);
  EXPECT_GE(leg2.combined.report.count(obs::metric::kCkptLoadRejects), 1u);

  // Same thresholds, a different flow: a snapshot of a run without L
  // phases must not be resumed by a run with them (or the reverse).
  CheckpointedParams r = q;
  r.combined.engine.max_local_phases = q.combined.engine.max_local_phases + 1;
  const CheckpointedResult leg3 = checked_combined_check(a, b, r);
  EXPECT_FALSE(leg3.resumed);
  EXPECT_EQ(leg3.combined.verdict, Verdict::kEquivalent);
  EXPECT_GE(leg3.combined.report.count(obs::metric::kCkptLoadRejects), 1u);
}

TEST(CkptResume, CorruptedSnapshotsFallBackToSoundFreshRun) {
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 6;
  p.combined.engine.k_p = 4;
  p.combined.engine.k_g = 4;
  p.combined.engine.k_l = 4;
  p.combined.engine.memory_words = std::size_t{1} << 16;
  p.checkpoint_path = temp_path("simsweep_ckpt_corrupt.ckpt");

  // A NON-equivalent pair: if a corrupted snapshot were trusted, a wrong
  // "equivalent" would be the worst possible outcome — assert the fresh
  // fallback still refutes.
  const aig::Aig a = gen::array_multiplier(3);
  const aig::Aig b = testutil::mutate(a, 123);
  const aig::Aig miter = aig::make_miter(a, b);
  if (aig::miter_proved(miter)) GTEST_SKIP() << "mutation was benign";

  const CheckpointedResult leg1 = checked_combined_check(a, b, p);
  if (leg1.combined.verdict != Verdict::kNotEquivalent)
    GTEST_SKIP() << "mutation was benign";

  if (leg1.checkpoint_writes > 0) {
    // Bit-flip whatever snapshots the run left behind.
    for (const std::string& f :
         {p.checkpoint_path, p.checkpoint_path + ".prev"}) {
      std::vector<std::uint8_t> bytes = read_bytes(f);
      if (bytes.empty()) continue;
      bytes[bytes.size() / 3] ^= 0x40;
      write_bytes_file(f, bytes);
    }
  }
  const CheckpointedResult leg2 = checked_combined_check(a, b, p);
  EXPECT_FALSE(leg2.resumed);
  EXPECT_EQ(leg2.combined.verdict, Verdict::kNotEquivalent);
}

TEST(CkptResume, SweeperRoundJournalReplaysToIdenticalVerdict) {
  // Sweeper-level resume, below the combined flow: capture the journal at
  // a round barrier via the checkpoint hook, replay it through
  // SweeperParams::resume, and require the identical verdict and merged
  // pair totals (the §2.8 determinism argument at its smallest scope).
  // Both schedulers share the one replay path: sequential (1 thread) and
  // chunked (2 threads).
  const aig::Aig a = testutil::random_aig(12, 260, 6, 300);
  const aig::Aig b = opt::resyn_light(a);
  const aig::Aig miter = aig::make_miter(a, b);
  if (aig::miter_proved(miter)) GTEST_SKIP() << "strash solved it";

  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    sweep::SweeperParams sp;
    sp.sim_words = 1;  // sparse EC init => several refinement rounds
    sp.num_threads = threads;

    std::optional<sweep::SweepResumeState> captured;
    sweep::SweeperParams record = sp;
    record.checkpoint_hook = [&](const sweep::SweepCheckpointView& v) {
      sweep::SweepResumeState s;
      s.merges = *v.merges;
      s.removed = *v.removed;
      if (v.bank != nullptr) s.bank = *v.bank;
      s.next_round = v.next_round;
      s.pairs_proved = v.stats->pairs_proved;
      s.pairs_disproved = v.stats->pairs_disproved;
      s.pairs_undecided = v.stats->pairs_undecided;
      captured = std::move(s);  // keep the LAST boundary, like a real crash
    };
    const sweep::SweepResult fresh = sweep::sweep_miter(miter, record);
    // Both schedulers refine this miter over several rounds, so a round
    // barrier is always offered.
    ASSERT_TRUE(captured.has_value());
    EXPECT_GT(captured->next_round, 0u);

    sweep::SweeperParams resumed_params = sp;
    resumed_params.resume = &*captured;
    const sweep::SweepResult resumed =
        sweep::sweep_miter(miter, resumed_params);
    EXPECT_EQ(resumed.verdict, fresh.verdict);
    EXPECT_EQ(resumed.stats.pairs_proved, fresh.stats.pairs_proved);
    EXPECT_EQ(resumed.stats.pairs_disproved, fresh.stats.pairs_disproved);
    EXPECT_EQ(resumed.stats.pairs_undecided, fresh.stats.pairs_undecided);
  }
}

TEST(CkptResume, SweepStageResumeRepublishesDegradeState) {
  // A sweep-stage snapshot skips the finished engine chain on resume; the
  // report must still carry the snapshot's ladder state exactly as the
  // uninterrupted run's engine published it, faults.recovered included.
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 6;
  p.combined.engine.k_p = 4;
  p.combined.engine.k_g = 4;
  p.combined.engine.k_l = 4;
  p.combined.engine.memory_words = std::size_t{1} << 16;
  p.checkpoint_path = temp_path("simsweep_ckpt_sweep_stage.ckpt");

  const aig::Aig miter = aig::make_miter(gen::array_multiplier(3),
                                         gen::wallace_multiplier(3));
  Snapshot s;
  s.stage = Stage::kSweep;
  s.fingerprint = run_fingerprint(miter, p.combined);
  s.boundary = "round";
  s.miter = miter;
  s.degrade.ladder_steps = 2;
  s.degrade.pass_retries = 4;
  s.degrade.faults_recovered = 3;
  write_bytes_file(p.checkpoint_path, serialize(s));

  const CheckpointedResult r = checked_combined_check_miter(miter, p);
  ASSERT_TRUE(r.resumed);
  EXPECT_EQ(r.combined.verdict, Verdict::kEquivalent);
  const obs::Snapshot& m = r.combined.report;
  EXPECT_EQ(m.count(obs::metric::kFaultsRecovered), 3u);
  EXPECT_EQ(m.count(obs::metric::kDegradeLadderSteps), 2u);
  EXPECT_EQ(m.count(obs::metric::kDegradePassRetries), 4u);
}

// --- Supervisor: crash-restart with exponential backoff. ---

TEST(Supervisor, NormalExitPassesThrough) {
  SupervisorParams sp;
  sp.backoff_initial_ms = 1;
  const SupervisorOutcome o =
      supervise(sp, [](const SupervisorProgress&) { return 42; });
  EXPECT_EQ(o.exit_code, 42);
  EXPECT_EQ(o.restarts, 0u);
  EXPECT_EQ(o.backoff_ms, 0u);
  EXPECT_FALSE(o.gave_up);
}

TEST(Supervisor, AbnormalExitTriggersRestart) {
  SupervisorParams sp;
  sp.backoff_initial_ms = 1;
  const SupervisorOutcome o = supervise(sp, [](const SupervisorProgress& p) {
    if (p.restarts == 0) std::abort();  // the first attempt "crashes"
    return 7;  // the restarted attempt sees restarts == 1 and succeeds
  });
  EXPECT_EQ(o.exit_code, 7);
  EXPECT_EQ(o.restarts, 1u);
  EXPECT_GE(o.backoff_ms, 1u);
  EXPECT_FALSE(o.gave_up);
}

TEST(Supervisor, GivesUpAfterRestartBudget) {
  SupervisorParams sp;
  sp.max_restarts = 2;
  sp.backoff_initial_ms = 1;
  sp.backoff_max_ms = 4;
  const SupervisorOutcome o = supervise(
      sp, [](const SupervisorProgress&) -> int { std::abort(); });
  EXPECT_TRUE(o.gave_up);
  EXPECT_EQ(o.exit_code, -1);
  EXPECT_EQ(o.restarts, 2u);
  EXPECT_GE(o.backoff_ms, 2u);  // 1ms + min(2ms, cap)
}

TEST(Supervisor, ErrorExitCodeIsNotARestart) {
  // Tool errors (rc 3) are normal exits: supervision must hand them
  // through instead of burning the restart budget on a deterministic
  // failure.
  SupervisorParams sp;
  sp.backoff_initial_ms = 1;
  const SupervisorOutcome o =
      supervise(sp, [](const SupervisorProgress&) { return 3; });
  EXPECT_EQ(o.exit_code, 3);
  EXPECT_EQ(o.restarts, 0u);
  EXPECT_FALSE(o.gave_up);
}

}  // namespace
}  // namespace simsweep::ckpt
