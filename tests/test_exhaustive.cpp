/// \file test_exhaustive.cpp
/// \brief Tests for the parallel exhaustive simulator (paper Alg. 1).

#include "exhaustive/exhaustive_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "aig/aig_analysis.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"
#include "window/window_merge.hpp"

namespace simsweep::exhaustive {
namespace {

using aig::Aig;
using aig::Lit;
using aig::Var;

std::vector<Var> all_pis(const Aig& a) {
  std::vector<Var> pis(a.num_pis());
  for (unsigned i = 0; i < a.num_pis(); ++i) pis[i] = i + 1;
  return pis;
}

TEST(Exhaustive, ProvesIdenticalFunctions) {
  Aig a(3);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f = a.add_and(x, y);
  const Lit g = a.add_and(a.add_or(x, y), f);  // == f
  a.add_po(f);
  a.add_po(g);
  auto r = check_pair(a, f, g, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
}

TEST(Exhaustive, DisprovesWithValidCex) {
  Aig a(3);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f = a.add_and(x, y);
  const Lit g = a.add_or(x, y);
  auto r = check_pair(a, f, g, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kDisproved);
  // The CEX must actually distinguish f and g.
  std::vector<bool> pis(3, false);
  for (const auto& [var, value] : r->cex) pis[var - 1] = value;
  EXPECT_NE(a.evaluate_lit(f, pis), a.evaluate_lit(g, pis));
}

TEST(Exhaustive, ComplementedPair) {
  Aig a(2);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  auto r = check_pair(a, aig::lit_not(f), f, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kDisproved);
  auto r2 = check_pair(a, aig::lit_not(f), aig::lit_not(f), all_pis(a));
  EXPECT_EQ(r2->status, ItemStatus::kProved);
}

TEST(Exhaustive, ConstantItem) {
  Aig a(2);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  // (x & y) & (x & !y) == 0, unfoldable structurally.
  const Lit g = a.add_and(a.add_and(x, y), a.add_and(x, aig::lit_not(y)));
  auto r = check_pair(a, aig::kLitFalse, g, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
  auto r2 = check_pair(a, aig::kLitTrue, g, all_pis(a));
  EXPECT_EQ(r2->status, ItemStatus::kDisproved);
}

TEST(Exhaustive, LocalFunctionCheckOverInternalCut) {
  // Paper Fig. 2 idea: equivalence provable over a common internal cut.
  Aig a(5);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit g = a.add_or(a.pi_lit(2), a.pi_lit(3));
  const Lit h = a.add_xor(a.pi_lit(3), a.pi_lit(4));
  // Two different-looking implementations of (f & g) | (f & h):
  const Lit n = a.add_or(a.add_and(f, g), a.add_and(f, h));
  const Lit m = a.add_and(f, a.add_or(g, h));
  std::vector<Var> cut{aig::lit_var(f), aig::lit_var(g), aig::lit_var(h)};
  std::sort(cut.begin(), cut.end());
  auto r = check_pair(a, n, m, cut);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
}

TEST(Exhaustive, InvalidWindowReturnsNullopt) {
  Aig a(2);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  EXPECT_FALSE(check_pair(a, f, aig::kLitFalse, {1}).has_value());
}

class MultiRound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiRound, TinyMemoryAgreesWithLargeMemory) {
  // The same checks must give identical outcomes regardless of E (the
  // memory budget only changes the round decomposition).
  const Aig a = testutil::random_aig(9, 150, 4, 61);
  std::vector<window::Window> windows;
  for (int i = 0; i + 1 < static_cast<int>(a.num_pos()); ++i) {
    auto w = window::build_window(
        a, all_pis(a),
        {window::CheckItem{a.po(i), a.po(i + 1),
                           static_cast<std::uint32_t>(i)}});
    ASSERT_TRUE(w);
    windows.push_back(std::move(*w));
  }
  Params big;  // default: everything in one round
  Params tiny;
  tiny.memory_words = GetParam();  // forces many rounds
  const BatchResult rb = check_batch(a, windows, big);
  const BatchResult rt = check_batch(a, windows, tiny);
  ASSERT_EQ(rb.outcomes.size(), rt.outcomes.size());
  for (std::size_t i = 0; i < rb.outcomes.size(); ++i) {
    EXPECT_EQ(rb.outcomes[i].first, rt.outcomes[i].first);
    EXPECT_EQ(rb.outcomes[i].second, rt.outcomes[i].second);
  }
  EXPECT_GE(rt.rounds, rb.rounds);
}

INSTANTIATE_TEST_SUITE_P(MemoryBudgets, MultiRound,
                         ::testing::Values(256, 1024, 4096));

class ExhaustiveVsBruteForce
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExhaustiveVsBruteForce, AgreesOnRandomPairs) {
  const Aig a = testutil::random_aig(7, 90, 6, GetParam());
  const auto pis = all_pis(a);
  // Exact truth tables as the oracle.
  for (std::size_t i = 0; i + 1 < a.num_pos(); i += 2) {
    const tt::TruthTable ti = aig::global_truth_table(a, a.po(i));
    const tt::TruthTable tj = aig::global_truth_table(a, a.po(i + 1));
    auto r = check_pair(a, a.po(i), a.po(i + 1), pis);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status == ItemStatus::kProved, ti == tj);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveVsBruteForce,
                         ::testing::Values(70, 71, 72, 73, 74, 75, 76, 77));

TEST(Exhaustive, BatchWithMergedWindows) {
  // Window merging must not change outcomes.
  const Aig a = testutil::random_aig(6, 80, 8, 62);
  std::vector<window::Window> windows;
  const auto supports = aig::compute_supports(a, 6);
  for (std::size_t i = 0; i + 1 < a.num_pos(); i += 2) {
    const Var u = aig::lit_var(a.po(i)), v = aig::lit_var(a.po(i + 1));
    if (!supports.small(u) || !supports.small(v)) continue;
    auto inputs = aig::sorted_union(supports.sets[u], supports.sets[v]);
    if (inputs.empty()) continue;
    auto w = window::build_window(
        a, inputs,
        {window::CheckItem{a.po(i), a.po(i + 1),
                           static_cast<std::uint32_t>(i)}});
    if (w) windows.push_back(std::move(*w));
  }
  ASSERT_FALSE(windows.empty());
  const BatchResult before = check_batch(a, windows, {});
  auto merged = window::merge_windows(a, std::move(windows), 6);
  const BatchResult after = check_batch(a, merged, {});
  // Outcomes may be reported in a different order: compare by tag.
  std::map<std::uint32_t, ItemStatus> mb, ma;
  for (auto& [tag, st] : before.outcomes) mb[tag] = st;
  for (auto& [tag, st] : after.outcomes) ma[tag] = st;
  EXPECT_EQ(mb, ma);
}

TEST(Exhaustive, WideWindowMultiWordTables) {
  // 8 inputs -> 4-word tables; verify a known arithmetic identity:
  // x + y == y + x bitwise on a ripple-carry structure is too big here,
  // so check a wide AND-tree against its balanced version.
  Aig a(8);
  Lit chain = a.pi_lit(0);
  for (unsigned i = 1; i < 8; ++i) chain = a.add_and(chain, a.pi_lit(i));
  // Balanced version.
  std::vector<Lit> layer;
  for (unsigned i = 0; i < 8; ++i) layer.push_back(a.pi_lit(i));
  while (layer.size() > 1) {
    std::vector<Lit> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(a.add_and(layer[i], layer[i + 1]));
    if (layer.size() & 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  auto r = check_pair(a, chain, layer[0], all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
}

TEST(Exhaustive, CexBitIndexDecoding) {
  // Force the mismatch into a high round with tiny memory, and verify the
  // decoded assignment still distinguishes the nodes.
  Aig a(8);
  // f and g agree except when all inputs are 1 (pattern index 255).
  Lit all = a.pi_lit(0);
  for (unsigned i = 1; i < 8; ++i) all = a.add_and(all, a.pi_lit(i));
  const Lit g = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit f = a.add_xor(g, all);  // flips g only on the all-ones pattern
  Params tiny;
  tiny.memory_words = 64;  // several rounds for 4-word tables
  auto w = window::build_window(a, all_pis(a),
                                {window::CheckItem{f, g, 0}});
  ASSERT_TRUE(w);
  const BatchResult r = check_batch(a, {std::move(*w)}, tiny);
  ASSERT_EQ(r.outcomes[0].second, ItemStatus::kDisproved);
  ASSERT_EQ(r.cexes.size(), 1u);
  std::vector<bool> pis(8, false);
  for (const auto& [var, value] : r.cexes[0].assignment)
    pis[var - 1] = value;
  EXPECT_NE(a.evaluate_lit(f, pis), a.evaluate_lit(g, pis));
  // The only distinguishing pattern is all-ones.
  for (bool b : pis) EXPECT_TRUE(b);
}

TEST(Exhaustive, CacheClampOnlyChangesRoundDecomposition) {
  // The cache-residency clamp on E must never change outcomes, only the
  // number of rounds.
  const Aig a = testutil::random_aig(10, 200, 6, 65);
  std::vector<window::Window> windows;
  for (std::size_t i = 0; i + 1 < a.num_pos(); i += 2) {
    // Mix an undecidable-in-one-round pair (a PO against itself, proved
    // only after ALL rounds ran) with a likely-disproved random pair.
    auto w = window::build_window(
        a, all_pis(a),
        {window::CheckItem{a.po(i), a.po(i),
                           static_cast<std::uint32_t>(i)},
         window::CheckItem{a.po(i), a.po(i + 1),
                           static_cast<std::uint32_t>(i) + 1000}});
    ASSERT_TRUE(w);
    windows.push_back(std::move(*w));
  }
  Params unclamped;
  unclamped.cache_words = 0;
  Params clamped;
  clamped.cache_words = 64;  // far below the table size: forces tiny E
  const BatchResult ru = check_batch(a, windows, unclamped);
  const BatchResult rc = check_batch(a, windows, clamped);
  EXPECT_LT(rc.entry_words, ru.entry_words);
  EXPECT_GT(rc.rounds, ru.rounds);
  ASSERT_EQ(ru.outcomes.size(), rc.outcomes.size());
  for (std::size_t i = 0; i < ru.outcomes.size(); ++i) {
    EXPECT_EQ(ru.outcomes[i].first, rc.outcomes[i].first);
    EXPECT_EQ(ru.outcomes[i].second, rc.outcomes[i].second);
  }
}

/// A random AIG whose ANDs draw their fanins from the most recent literals
/// only, so every PO's cone holds most of the graph (testutil::random_aig
/// draws from all literals and gives small cones).
Aig deep_aig(unsigned num_pis, unsigned num_ands, unsigned num_pos,
             std::uint64_t seed) {
  Rng rng(seed);
  Aig a(num_pis);
  std::vector<Lit> lits;
  for (unsigned i = 0; i < num_pis; ++i) lits.push_back(a.pi_lit(i));
  const std::size_t reach = 2 * num_pis;
  for (unsigned i = 0; i < num_ands; ++i) {
    const auto pick = [&] {
      const std::size_t lo = lits.size() > reach ? lits.size() - reach : 0;
      return aig::lit_notcond(lits[lo + rng.below(lits.size() - lo)],
                              rng.flip());
    };
    const Lit g = a.add_and(pick(), pick());
    if (aig::lit_var(g) != 0) lits.push_back(g);
  }
  for (unsigned i = 0; i < num_pos; ++i)
    a.add_po(lits[lits.size() - 1 - rng.below(reach)]);
  return a;
}

/// Windows of 4 items over all PIs of `a`, whose items first mismatch in
/// different rounds: a PO against the next PO (usually an early pattern),
/// a PO against itself (never), and two POs against `po ^ cube`, which
/// first differ at the pattern that sets exactly the cube's inputs.
std::vector<window::Window> staggered_windows(Aig& a, unsigned num_windows) {
  const unsigned n = a.num_pis();
  const unsigned pos = static_cast<unsigned>(a.num_pos());
  std::vector<std::vector<window::CheckItem>> items(num_windows);
  for (unsigned w = 0; w < num_windows; ++w) {
    for (unsigned i = 0; i < 4; ++i) {
      const unsigned k = 4 * w + i;
      const Lit f = a.po(k % pos);
      Lit g = a.po((k + 1) % pos);
      if (i == 1) g = f;
      if (i >= 2) {
        const Lit cube = a.add_and(a.pi_lit(n - 1 - k % 3),
                                   a.pi_lit((7 * k) % n));
        g = a.add_xor(f, cube);
      }
      items[w].push_back(window::CheckItem{f, g, k});
    }
  }
  std::vector<window::Window> windows;
  for (auto& its : items) {
    auto w = window::build_window(a, all_pis(a), std::move(its));
    EXPECT_TRUE(w);
    if (w) windows.push_back(std::move(*w));
  }
  return windows;
}

TEST(Exhaustive, CounterexampleIsLowestMismatchingPattern) {
  // Every outcome and every CEX must equal a brute-force scan of the
  // patterns in index order, whatever E, the lane count and the tile
  // schedule: from one lane over single-word tiles up to the defaults.
  struct Budget {
    std::size_t memory_words;
    std::size_t cache_words;
  };
  const Budget budgets[] = {{64, 0},
                            {std::size_t{1} << 22, 64},
                            {std::size_t{1} << 22, std::size_t{1} << 13},
                            {std::size_t{1} << 22, std::size_t{1} << 17}};
  bool many_lanes = false;
  std::size_t min_tiles = ~std::size_t{0}, max_tiles = 0;
  for (const unsigned pis : {5u, 9u, 12u}) {
    Aig a = deep_aig(pis, 3000, 8, 900 + pis);
    const auto windows = staggered_windows(a, 6);
    // Brute force: the first pattern index where the two roots differ.
    std::map<std::uint32_t, std::optional<std::uint64_t>> expected;
    for (const window::Window& w : windows)
      for (const window::CheckItem& item : w.items) {
        const tt::TruthTable ta = aig::global_truth_table(a, item.a);
        const tt::TruthTable tb = aig::global_truth_table(a, item.b);
        std::optional<std::uint64_t> first;
        for (std::uint64_t p = 0; p < ta.bits() && !first; ++p)
          if (ta.get_bit(p) != tb.get_bit(p)) first = p;
        expected[item.tag] = first;
      }
    for (const Budget& b : budgets) {
      Params params;
      params.memory_words = b.memory_words;
      params.cache_words = b.cache_words;
      const BatchResult r = check_batch(a, windows, params);
      ASSERT_EQ(r.failure, BatchFailure::kNone);
      many_lanes |= r.lanes > 1;
      min_tiles = std::min(min_tiles, r.tiles);
      max_tiles = std::max(max_tiles, r.tiles);
      std::size_t next_cex = 0;
      for (const auto& [tag, status] : r.outcomes) {
        const auto& first = expected.at(tag);
        ASSERT_EQ(status == ItemStatus::kDisproved, first.has_value())
            << "pis " << pis << " tag " << tag << " E " << r.entry_words;
        if (!first) continue;
        ASSERT_LT(next_cex, r.cexes.size());
        const Cex& cex = r.cexes[next_cex++];
        EXPECT_EQ(cex.tag, tag);
        std::vector<std::pair<Var, bool>> want;
        for (unsigned j = 0; j < pis; ++j)
          want.emplace_back(j + 1, ((*first >> j) & 1) != 0);
        EXPECT_EQ(cex.assignment, want)
            << "pis " << pis << " tag " << tag << " E " << r.entry_words
            << " lanes " << r.lanes;
      }
      EXPECT_EQ(next_cex, r.cexes.size());
    }
  }
  EXPECT_LT(min_tiles, max_tiles);
  if (parallel::ThreadPool::global().concurrency() > 1) {
    EXPECT_TRUE(many_lanes);
  }
}

TEST(Exhaustive, CountersDoNotDependOnLanesOrTiming) {
  // Every item of these windows is f against f ^ (a cube of two high
  // PIs), so each window first mismatches mid-way, at the cube's first
  // pattern, and a serial sweep skips the window's later rounds. Racing
  // lanes run some of those rounds before the mismatch is recorded; the
  // counters count the serial sweep's tiles, so one lane and four read
  // the same, run after run.
  Aig a = deep_aig(12, 3000, 8, 912);
  const unsigned n = a.num_pis();
  std::vector<window::Window> windows;
  for (unsigned w = 0; w < 6; ++w) {
    std::vector<window::CheckItem> items;
    for (unsigned i = 0; i < 4; ++i) {
      const unsigned k = 4 * w + i;
      const Lit f = a.po(k % a.num_pos());
      const Lit cube =
          a.add_and(a.pi_lit(n - 1 - k % 3), a.pi_lit(n - 4 - k % 2));
      items.push_back(window::CheckItem{f, a.add_xor(f, cube), k});
    }
    auto win = window::build_window(a, all_pis(a), std::move(items));
    ASSERT_TRUE(win);
    windows.push_back(std::move(*win));
  }
  std::size_t slots = 1;
  for (const window::Window& w : windows)
    slots = std::max(slots, w.num_slots());
  Params params;
  params.cache_words = 0;
  std::optional<std::tuple<std::size_t, std::size_t, std::size_t>> first;
  bool many_lanes = false;
  for (const std::size_t lanes : {1u, 4u}) {
    // One-word tiles (E = 1) on `lanes` lanes: the memory budget holds
    // exactly that many tables.
    params.memory_words = lanes * slots;
    for (int rep = 0; rep < 5; ++rep) {
      const BatchResult r = check_batch(a, windows, params);
      ASSERT_EQ(r.failure, BatchFailure::kNone);
      ASSERT_EQ(r.entry_words, 1u);
      for (const auto& outcome : r.outcomes)
        ASSERT_EQ(outcome.second, ItemStatus::kDisproved);
      many_lanes |= r.lanes > 1;
      const std::tuple counters{r.rounds, r.tiles, r.words_simulated};
      if (!first) {
        first = counters;
        continue;
      }
      EXPECT_EQ(counters, *first) << "lanes " << r.lanes << " rep " << rep;
    }
  }
  // A serial sweep stops every window before its last round.
  EXPECT_LT(std::get<1>(*first), windows.size() * (std::size_t{1} << n) / 64);
  if (parallel::ThreadPool::global().concurrency() > 1) {
    EXPECT_TRUE(many_lanes);
  }
}

/// One big window over 20 inputs whose single item compares a deep node
/// with itself: it is proved only after every tile ran, so a stop always
/// lands mid-batch.
window::Window big_proved_window(Aig& a) {
  const Lit f = a.po(0);
  auto w = window::build_window(a, all_pis(a), {window::CheckItem{f, f, 0}});
  EXPECT_TRUE(w);
  return std::move(*w);
}

TEST(Exhaustive, DeadlineDuringSingleWindowReturnsDeadline) {
  Aig a = deep_aig(20, 20000, 1, 66);
  const std::vector<window::Window> windows{big_proved_window(a)};
  const fault::Deadline deadline = fault::Deadline::after(0.002);
  Params p;
  p.deadline = &deadline;
  const BatchResult r = check_batch(a, windows, p);
  EXPECT_EQ(r.failure, BatchFailure::kDeadline);
  EXPECT_FALSE(r.cancelled);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_TRUE(r.cexes.empty());
  // The stop landed between tiles, well before the whole table was swept.
  EXPECT_LT(r.words_simulated, windows[0].nodes.size() * windows[0].tt_words());
}

TEST(Exhaustive, CancelFromAnotherThreadMidBatchReturnsCancelled) {
  Aig a = deep_aig(20, 20000, 1, 67);
  const std::vector<window::Window> windows{big_proved_window(a)};
  std::atomic<bool> cancel{false};
  Params p;
  p.cancel = &cancel;
  std::thread raiser([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.store(true, std::memory_order_relaxed);
  });
  const BatchResult r = check_batch(a, windows, p);
  raiser.join();
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_LT(r.words_simulated, windows[0].nodes.size() * windows[0].tt_words());
}

TEST(Exhaustive, CancellationReturnsCancelled) {
  const Aig a = testutil::random_aig(10, 120, 2, 63);
  auto w = window::build_window(a, all_pis(a),
                                {window::CheckItem{a.po(0), a.po(1), 0}});
  ASSERT_TRUE(w);
  std::atomic<bool> cancel{true};
  Params p;
  p.cancel = &cancel;
  const BatchResult r = check_batch(a, {std::move(*w)}, p);
  EXPECT_TRUE(r.cancelled);
}

}  // namespace
}  // namespace simsweep::exhaustive
