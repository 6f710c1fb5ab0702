/// \file test_sat.cpp
/// \brief Tests for the CDCL SAT solver.

#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include "aig/miter.hpp"
#include "cnf/tseitin.hpp"
#include "common/random.hpp"
#include "gen/suite.hpp"

namespace simsweep::sat {
namespace {

TEST(Lit, Encoding) {
  const Lit p = mk_lit(3);
  EXPECT_EQ(var(p), 3);
  EXPECT_FALSE(sign(p));
  EXPECT_TRUE(sign(~p));
  EXPECT_EQ(var(~p), 3);
  EXPECT_EQ(~~p, p);
}

TEST(Solver, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_EQ(s.model_value(a), LBool::kTrue);
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause(mk_lit(a)));
  EXPECT_FALSE(s.add_clause(mk_lit(a, true)));
  EXPECT_TRUE(s.inconsistent());
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Solver, EmptyClauseIsUnsat) {
  Solver s;
  s.new_var();
  EXPECT_FALSE(s.add_clause(std::vector<Lit>{}));
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Solver, TautologyIgnored) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(a), mk_lit(a, true)}));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Solver, PigeonHole3x2IsUnsat) {
  // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
  Solver s;
  Var p[3][2];
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (auto& row : p)
    s.add_clause(mk_lit(row[0]), mk_lit(row[1]));  // every pigeon placed
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 3; ++i)
      for (int k = i + 1; k < 3; ++k)
        s.add_clause(mk_lit(p[i][j], true), mk_lit(p[k][j], true));
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Solver, XorChainSatisfiable) {
  // x0 ^ x1 = 1, x1 ^ x2 = 1, ... as CNF; satisfiable (alternating).
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 12; ++i) x.push_back(s.new_var());
  for (int i = 0; i + 1 < 12; ++i) {
    s.add_clause(mk_lit(x[i]), mk_lit(x[i + 1]));
    s.add_clause(mk_lit(x[i], true), mk_lit(x[i + 1], true));
  }
  ASSERT_EQ(s.solve(), Solver::Result::kSat);
  for (int i = 0; i + 1 < 12; ++i)
    EXPECT_NE(s.model_value(x[i]), s.model_value(x[i + 1]));
}

TEST(Solver, Assumptions) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(mk_lit(a, true), mk_lit(b));  // a -> b
  EXPECT_EQ(s.solve({mk_lit(a)}), Solver::Result::kSat);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b, true)}), Solver::Result::kUnsat);
  // The solver is reusable after an assumption failure.
  EXPECT_EQ(s.solve({mk_lit(a)}), Solver::Result::kSat);
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Solver, IncrementalClauseAddition) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(mk_lit(a), mk_lit(b));
  ASSERT_EQ(s.solve(), Solver::Result::kSat);
  s.add_clause(mk_lit(a, true));
  ASSERT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  s.add_clause(mk_lit(b, true));
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  // A hard instance (pigeonhole 7/6) with a 1-conflict budget.
  Solver s;
  constexpr int P = 7, H = 6;
  std::vector<std::vector<Var>> p(P, std::vector<Var>(H));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (auto& row : p) {
    std::vector<Lit> clause;
    for (Var v : row) clause.push_back(mk_lit(v));
    s.add_clause(clause);
  }
  for (int j = 0; j < H; ++j)
    for (int i = 0; i < P; ++i)
      for (int k = i + 1; k < P; ++k)
        s.add_clause(mk_lit(p[i][j], true), mk_lit(p[k][j], true));
  EXPECT_EQ(s.solve({}, 1), Solver::Result::kUnknown);
  // And without budget it is UNSAT.
  EXPECT_EQ(s.solve({}, -1), Solver::Result::kUnsat);
}

TEST(Solver, RaisedInterruptStopsTheCallAtItsFirstConflict) {
  // A probe slice can be a few hundred conflicts; the hook must be polled
  // at every conflict, or a short call whose answer is no longer needed
  // runs its whole budget. Pigeonhole 8/7 needs thousands of conflicts.
  constexpr int kHoles = 7;
  Solver s;
  std::vector<std::vector<Var>> x(kHoles + 1, std::vector<Var>(kHoles));
  for (auto& row : x)
    for (Var& v : row) v = s.new_var();
  for (const auto& row : x) {
    std::vector<Lit> some_hole;
    for (const Var v : row) some_hole.push_back(mk_lit(v));
    s.add_clause(some_hole);
  }
  for (int h = 0; h < kHoles; ++h)
    for (int p = 0; p <= kHoles; ++p)
      for (int q = p + 1; q <= kHoles; ++q)
        s.add_clause(mk_lit(x[p][h], true), mk_lit(x[q][h], true));
  int polls = 0;
  s.interrupt = [&polls] {
    ++polls;
    return true;
  };
  EXPECT_EQ(s.solve({}, 200), Solver::Result::kUnknown);
  EXPECT_EQ(s.conflicts, 1u);
  EXPECT_EQ(polls, 1);
  // Lowered again, the same solver still reaches the answer.
  s.interrupt = nullptr;
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

/// A CNF as variable count + clause list.
struct Cnf {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Loads a CNF into a solver; false if it became inconsistent.
bool load_cnf(Solver& solver, const Cnf& cnf) {
  while (solver.num_vars() < cnf.num_vars) solver.new_var();
  for (const auto& clause : cnf.clauses)
    if (!solver.add_clause(clause)) return false;
  return true;
}

/// Brute-force CNF evaluation oracle.
bool cnf_satisfiable(const Cnf& cnf) {
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << cnf.num_vars); ++m) {
    bool all = true;
    for (const auto& clause : cnf.clauses) {
      bool any = false;
      for (Lit p : clause) any |= (((m >> var(p)) & 1) != sign(p));
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class RandomCnf : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCnf, AgreesWithBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    Cnf cnf;
    cnf.num_vars = 8;
    const int num_clauses = 20 + static_cast<int>(rng.below(20));
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<Lit> clause;
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int l = 0; l < len; ++l)
        clause.push_back(mk_lit(static_cast<Var>(rng.below(8)), rng.flip()));
      cnf.clauses.push_back(clause);
    }
    Solver s;
    const bool loaded = load_cnf(s, cnf);
    const bool expect = cnf_satisfiable(cnf);
    if (!loaded) {
      EXPECT_FALSE(expect);
      continue;
    }
    const auto r = s.solve();
    ASSERT_NE(r, Solver::Result::kUnknown);
    EXPECT_EQ(r == Solver::Result::kSat, expect);
    if (r == Solver::Result::kSat) {
      // Verify the model satisfies every clause.
      for (const auto& clause : cnf.clauses) {
        bool any = false;
        for (Lit p : clause)
          any |= (s.model_value(var(p)) == LBool::kTrue) != sign(p);
        ASSERT_TRUE(any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnf,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Solver, StatsAdvance) {
  Solver s;
  for (int i = 0; i < 6; ++i) s.new_var();
  Rng rng(3);
  for (int c = 0; c < 30; ++c)
    s.add_clause(mk_lit(static_cast<Var>(rng.below(6)), rng.flip()),
                 mk_lit(static_cast<Var>(rng.below(6)), rng.flip()),
                 mk_lit(static_cast<Var>(rng.below(6)), rng.flip()));
  s.solve();
  EXPECT_GT(s.propagations + s.decisions, 0u);
}

struct SearchCounters {
  Solver::Result result;
  std::uint64_t conflicts;
  std::uint64_t decisions;
  std::uint64_t propagations;

  bool operator==(const SearchCounters&) const = default;
};

SearchCounters counters(const Solver& s, Solver::Result r) {
  return {r, s.conflicts, s.decisions, s.propagations};
}

TEST(Solver, SearchCountersArePinnedOnFixedInstances) {
  // analyze() clears its scratch marks from the literals it touched
  // instead of sweeping every variable. The end state is the same, so
  // the search must not move: the counters below are the ones the
  // full-sweep implementation produced on the same instances.
  {
    // Pigeonhole, 8 pigeons into 7 holes.
    constexpr int kHoles = 7;
    Solver s;
    std::vector<std::vector<Var>> x(kHoles + 1, std::vector<Var>(kHoles));
    for (auto& row : x)
      for (Var& v : row) v = s.new_var();
    for (const auto& row : x) {
      std::vector<Lit> some_hole;
      for (const Var v : row) some_hole.push_back(mk_lit(v));
      s.add_clause(some_hole);
    }
    for (int h = 0; h < kHoles; ++h)
      for (int p = 0; p <= kHoles; ++p)
        for (int q = p + 1; q <= kHoles; ++q)
          s.add_clause(mk_lit(x[p][h], true), mk_lit(x[q][h], true));
    const Solver::Result r = s.solve();
    EXPECT_EQ(counters(s, r),
              (SearchCounters{Solver::Result::kUnsat, 4577, 5591, 57949}));
  }
  {
    // A PO cone of a Table II miter: PO 7 of multiplier (original vs
    // resyn2) is constant false, proved by search.
    const gen::BenchCase c = gen::make_case("multiplier", {.doublings = 0});
    const aig::Aig m = aig::make_miter(c.original, c.optimized);
    ASSERT_GT(m.num_pos(), 7u);
    Solver s;
    cnf::TseitinEncoder enc(m, s);
    const Solver::Result r = s.solve({enc.encode(m.pos()[7])});
    EXPECT_EQ(counters(s, r),
              (SearchCounters{Solver::Result::kUnsat, 6230, 7758, 752743}));
  }
}

}  // namespace
}  // namespace simsweep::sat
