#pragma once
/// \file solver.hpp
/// \brief A from-scratch CDCL SAT solver (MiniSat-style architecture).
///
/// This is the substrate for the SAT-sweeping baseline ("ABC &cec" stand-in
/// in the reproduction, see DESIGN.md §2). Features: two-watched-literal
/// propagation, first-UIP conflict analysis with clause learning, VSIDS
/// branching with an indexed binary heap, phase saving, Luby restarts,
/// activity-driven learned-clause reduction, incremental solving under
/// assumptions, and conflict budgets (the `-C` knob of ABC's checker).

#include <cstdint>
#include <functional>
#include <vector>

namespace simsweep::sat {

using Var = std::int32_t;

/// A literal: 2*var + sign (sign = 1 means negated).
struct Lit {
  std::int32_t x = -2;

  bool operator==(const Lit&) const = default;
};

constexpr Lit mk_lit(Var v, bool sign = false) {
  return Lit{(v << 1) | static_cast<std::int32_t>(sign)};
}
constexpr Lit operator~(Lit p) { return Lit{p.x ^ 1}; }
constexpr bool sign(Lit p) { return p.x & 1; }
constexpr Var var(Lit p) { return p.x >> 1; }
constexpr Lit lit_undef{-2};

enum class LBool : std::uint8_t { kTrue, kFalse, kUndef };
constexpr LBool operator^(LBool b, bool flip) {
  return b == LBool::kUndef
             ? b
             : (static_cast<int>(b) ^ static_cast<int>(flip)
                    ? LBool::kFalse
                    : LBool::kTrue);
}

class Solver {
 public:
  enum class Result { kSat, kUnsat, kUnknown };

  Solver();

  /// Creates a fresh variable and returns its index.
  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause (copied). Returns false if the solver became
  /// inconsistent at level 0 (the instance is UNSAT regardless of future
  /// clauses). Tautologies and duplicate literals are removed.
  bool add_clause(std::vector<Lit> lits);
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) {
    return add_clause(std::vector<Lit>{a, b, c});
  }

  /// Solves under assumptions. conflict_budget < 0 means unbounded;
  /// otherwise the search gives up with kUnknown after that many
  /// conflicts (counted within this call).
  Result solve(const std::vector<Lit>& assumptions = {},
               std::int64_t conflict_budget = -1);

  /// Model access after kSat.
  LBool model_value(Var v) const { return model_[v]; }
  bool model_bool(Var v) const { return model_[v] == LBool::kTrue; }

  /// Whether the clause database is already unsatisfiable at level 0.
  bool inconsistent() const { return !ok_; }

  /// Optional interrupt hook, polled after every conflict during search;
  /// returning true aborts the current solve() with kUnknown. Lets
  /// callers enforce wall-clock budgets that a single long SAT call would
  /// otherwise overshoot, and stop short calls whose answer is no longer
  /// needed. The hook should be cheap (a flag load, a clock read): a
  /// conflict costs microseconds.
  std::function<bool()> interrupt;

  // Statistics.
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;

 private:
  using CRef = std::uint32_t;
  static constexpr CRef kCRefUndef = 0xFFFFFFFFu;

  struct Clause {
    std::vector<Lit> lits;
    float activity = 0;
    bool learnt = false;
    bool removed = false;
  };

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  LBool value(Lit p) const { return assigns_[var(p)] ^ sign(p); }
  LBool value(Var v) const { return assigns_[v]; }

  void attach(CRef cr);
  void detach(CRef cr);
  void uncheck_enqueue(Lit p, CRef from);
  CRef propagate();
  void analyze(CRef confl, std::vector<Lit>& out_learnt, int& out_btlevel);
  void cancel_until(int level);
  Lit pick_branch_lit();
  void new_decision_level() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  void var_bump(Var v);
  void var_decay() { var_inc_ /= 0.95; }
  void cla_bump(Clause& c);
  void cla_decay() { cla_inc_ /= 0.999; }
  void reduce_db();
  Result search(std::int64_t conflict_budget,
                const std::vector<Lit>& assumptions);
  static std::uint32_t luby(std::uint32_t i);

  // Heap of variables ordered by activity (indexed binary max-heap).
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_contains(Var v) const { return heap_pos_[v] >= 0; }
  void heap_sift_up(int i);
  void heap_sift_down(int i);

  bool ok_ = true;
  std::vector<Clause> clauses_;       // arena; CRef = index
  std::vector<CRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit.x
  std::vector<LBool> assigns_;
  std::vector<std::uint8_t> polarity_;  // saved phases (1 = last was false)
  std::vector<double> activity_;
  std::vector<int> level_;
  std::vector<CRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<Var> heap_;
  std::vector<int> heap_pos_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;

  std::vector<std::uint8_t> seen_;  // analyze() scratch
  std::vector<LBool> model_;

  std::size_t max_learnts_ = 4096;
};

}  // namespace simsweep::sat
