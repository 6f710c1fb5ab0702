/// \file test_fuzz.cpp
/// \brief Robustness fuzzing: the AIGER reader, checkpoint loader, job
/// line reader and run-report validator must reject corrupted inputs —
/// never crash, hang or accept garbage silently — and randomized pipeline
/// compositions must stay sound.

#include <gtest/gtest.h>

#include <sstream>

#include "aig/aig_analysis.hpp"
#include "aig/aig_io.hpp"
#include "aig/miter.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/random.hpp"
#include "gen/arith.hpp"
#include "obs/metric_names.hpp"
#include "obs/report.hpp"
#include "opt/balance.hpp"
#include "opt/refactor.hpp"
#include "service/json_jobs.hpp"
#include "sim/partial_sim.hpp"
#include "test_util.hpp"

namespace simsweep {
namespace {

class AigerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AigerFuzz, MutatedBinaryFilesNeverCrashTheReader) {
  const aig::Aig a = testutil::random_aig(6, 60, 4, GetParam());
  std::stringstream ss;
  aig::write_aiger(a, ss);
  const std::string good = ss.str();

  Rng rng(GetParam() * 77 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    // Corrupt 1-4 random bytes (header or delta stream).
    const int corruptions = 1 + static_cast<int>(rng.below(4));
    for (int c = 0; c < corruptions; ++c)
      bad[rng.below(bad.size())] = static_cast<char>(rng.next64());
    std::istringstream in(bad);
    try {
      const aig::Aig parsed = aig::read_aiger(in);
      // If it parsed, it must at least be structurally sane.
      ASSERT_LE(parsed.num_pos(), 1u << 20);
      for (aig::Var v = parsed.num_pis() + 1; v < parsed.num_nodes(); ++v) {
        ASSERT_LT(aig::lit_var(parsed.fanin0(v)), v);
        ASSERT_LT(aig::lit_var(parsed.fanin1(v)), v);
      }
    } catch (const std::exception&) {
      // Rejection is the expected outcome.
    }
  }
}

TEST_P(AigerFuzz, TruncatedFilesAreRejectedOrSane) {
  const aig::Aig a = testutil::random_aig(5, 40, 3, GetParam() + 9);
  std::stringstream ss;
  aig::write_aiger(a, ss);
  const std::string good = ss.str();
  for (std::size_t keep = 0; keep < good.size(); keep += 3) {
    std::istringstream in(good.substr(0, keep));
    try {
      (void)aig::read_aiger(in);
    } catch (const std::exception&) {
    }
  }
}

TEST_P(AigerFuzz, BitFlipAndTruncationMutationsNeverInvokeUb) {
  // Seeded mutation loop over BOTH AIGER formats: single-bit flips
  // composed with truncation, which reaches mutants byte corruption
  // cannot (an off-by-one count with the tail missing, a flipped sign in
  // a header digit, a varint whose continuation bit was cleared). The
  // contract is parse-succeeds-or-throws: any crash, hang or sanitizer
  // report (this suite runs under asan AND ubsan labels) is a bug. A
  // mutant that does parse must still be structurally sound.
  const aig::Aig a = testutil::random_aig(6, 50, 4, GetParam() + 17);
  std::string corpus[2];
  {
    std::stringstream bin, ascii;
    aig::write_aiger(a, bin);
    aig::write_aiger_ascii(a, ascii);
    corpus[0] = bin.str();
    corpus[1] = ascii.str();
  }

  Rng rng(GetParam() * 131 + 7);
  for (int trial = 0; trial < 400; ++trial) {
    std::string bad = corpus[rng.below(2)];
    // 1-8 single-bit flips.
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(bad.size());
      bad[at] = static_cast<char>(bad[at] ^ (1 << rng.below(8)));
    }
    // Half the trials also truncate to a random prefix.
    if (rng.below(2) == 0) bad.resize(rng.below(bad.size() + 1));
    std::istringstream in(bad);
    try {
      const aig::Aig parsed = aig::read_aiger(in);
      ASSERT_LE(parsed.num_pos(), 1u << 20);
      for (aig::Var v = parsed.num_pis() + 1; v < parsed.num_nodes(); ++v) {
        ASSERT_LT(aig::lit_var(parsed.fanin0(v)), v);
        ASSERT_LT(aig::lit_var(parsed.fanin1(v)), v);
      }
    } catch (const std::exception&) {
      // Rejection is the expected outcome.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AigerFuzz, ::testing::Values(900, 901, 902));

class CkptFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CkptFuzz, BitFlipAndTruncationMutationsNeverInvokeUb) {
  // Checkpoint-loader contract (DESIGN.md §2.8): ckpt::parse() fails
  // CLOSED — nullopt, never a crash, hang, exception or sanitizer report
  // (this suite runs under asan AND ubsan) — on arbitrarily mutated
  // snapshot bytes. The CRC trailer catches almost every mutant; the
  // shape checks catch the rest. A mutant that does parse must still be
  // structurally sound.
  ckpt::Snapshot snap;
  snap.stage = ckpt::Stage::kSweep;
  snap.fingerprint = 0xFEEDFACEull + GetParam();
  snap.elapsed_seconds = 1.25;
  snap.boundary = "round";
  snap.miter = aig::make_miter(gen::array_multiplier(3),
                               gen::wallace_multiplier(3));
  snap.bank = sim::PatternBank::random(snap.miter.num_pis(), 4, GetParam());
  // A plausible journal: merge the last AND onto a smaller literal.
  const aig::Var last = static_cast<aig::Var>(snap.miter.num_nodes() - 1);
  snap.merges.emplace_back(last, aig::make_lit(1));
  snap.removed.push_back(last - 1);
  snap.next_round = 2;
  snap.sweep_pairs_proved = 1;
  const std::vector<std::uint8_t> good = ckpt::serialize(snap);
  ASSERT_TRUE(ckpt::parse(good.data(), good.size()).has_value());

  Rng rng(GetParam() * 193 + 3);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> bad = good;
    // 1-8 single-bit flips.
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(bad.size());
      bad[at] = static_cast<std::uint8_t>(bad[at] ^ (1 << rng.below(8)));
    }
    // Half the trials also truncate to a random prefix.
    if (rng.below(2) == 0) bad.resize(rng.below(bad.size() + 1));
    const std::optional<ckpt::Snapshot> parsed =
        ckpt::parse(bad.data(), bad.size());
    if (parsed) {
      const aig::Aig& g = parsed->miter;
      for (aig::Var v = g.num_pis() + 1; v < g.num_nodes(); ++v) {
        ASSERT_LT(aig::lit_var(g.fanin0(v)), v);
        ASSERT_LT(aig::lit_var(g.fanin1(v)), v);
      }
      for (const auto& [node, lit] : parsed->merges)
        ASSERT_LT(aig::lit_var(lit), node);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CkptFuzz, ::testing::Values(920, 921, 922));

class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// 1-8 single-bit flips, then (half the trials) truncation to a random
/// prefix — the mutation scheme of the AIGER and checkpoint loops above.
std::string mutate_text(std::string text, Rng& rng) {
  const int flips = 1 + static_cast<int>(rng.below(8));
  for (int f = 0; f < flips; ++f) {
    const std::size_t at = rng.below(text.size());
    text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
  }
  if (rng.below(2) == 0) text.resize(rng.below(text.size() + 1));
  return text;
}

TEST_P(JsonFuzz, MutatedJobLinesNeverCrashTheParser) {
  // `cec_tool --batch` reads job lines from files and stdin: any mutant
  // must either parse into a spec with both paths or be rejected with a
  // reason — never crash or trip a sanitizer (asan + ubsan labels).
  const std::string good =
      R"({"id": "j\"1", "a": "x.aig", "b": "y.aig", "deadline": 2.5, )"
      R"("priority": 3, "seed": 7, "k_P": 20, "conflict_limit": 5000, )"
      R"("interleave_rewriting": true, "max_rewrite_rounds": 2})";
  service::JobSpec spec;
  std::string error;
  ASSERT_TRUE(service::parse_job_line(good, &spec, &error)) << error;

  Rng rng(GetParam() * 151 + 5);
  for (int trial = 0; trial < 400; ++trial) {
    service::JobSpec out;
    error.clear();
    if (service::parse_job_line(mutate_text(good, rng), &out, &error)) {
      ASSERT_FALSE(out.a_path.empty());
      ASSERT_FALSE(out.b_path.empty());
    } else {
      ASSERT_FALSE(error.empty());
    }
  }
}

TEST_P(JsonFuzz, MutatedReportsNeverCrashTheValidator) {
  // Run reports are read back from files (tools/check_report): a mutant
  // either still validates or is rejected with a reason.
  obs::Registry r;
  r.add(obs::metric::kExhaustiveBatches, 3);
  r.add(obs::metric::kEcBuilds, 2);
  r.add(obs::metric::kPartialSimSimulateCalls, 5);
  r.add(obs::metric::kMiterRebuilds, 1);
  r.add(std::string(obs::metric::kCutPassPrefix) + "1.checks", 12);
  r.set(obs::metric::kPoolWorkers, 4.0);
  r.set(obs::metric::kEngineTotalSeconds, 0.25);
  r.add(obs::metric::kFaultsInjected, 0);
  r.add(obs::metric::kDegradeLadderSteps, 0);
  r.add(obs::metric::kCkptWrites, 0);
  r.add(obs::metric::kSupervisorRestarts, 0);
  const std::string good = obs::to_json(r.snapshot());
  std::string error;
  ASSERT_TRUE(obs::validate_report_json(good, &error)) << error;

  Rng rng(GetParam() * 157 + 11);
  for (int trial = 0; trial < 400; ++trial) {
    error.clear();
    if (!obs::validate_report_json(mutate_text(good, rng), &error)) {
      ASSERT_FALSE(error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Values(930, 931, 932));

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, RandomOptimizationChainsPreserveFunction) {
  // Compose random sequences of optimization passes; the result must stay
  // functionally identical to the input.
  Rng rng(GetParam());
  aig::Aig a = testutil::random_aig(7, 80, 4, GetParam() + 40);
  const aig::Aig original = a;
  for (int step = 0; step < 4; ++step) {
    a = rng.below(2) == 0 ? opt::balance(a) : opt::rewrite(a);
  }
  EXPECT_TRUE(aig::brute_force_equivalent(original, a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Values(910, 911, 912, 913));

}  // namespace
}  // namespace simsweep
