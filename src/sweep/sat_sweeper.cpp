#include "sweep/sat_sweeper.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "aig/cex.hpp"
#include "aig/rebuild.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/ec_manager.hpp"
#include "sweep/pair_solver.hpp"

namespace simsweep::sweep {

namespace {

/// Builds the EC-initialization pattern bank of a fresh sweep:
/// params.sim_words random words extended with the transferred
/// initial_bank (§V EC transfer) and truncated to max_pattern_words.
sim::PatternBank make_init_bank(unsigned num_pis,
                                const SweeperParams& params) {
  sim::PatternBank bank =
      sim::PatternBank::random(num_pis, params.sim_words, params.seed);
  if (params.initial_bank != nullptr &&
      params.initial_bank->num_pis() == num_pis) {
    for (std::size_t w = 0; w < params.initial_bank->num_words(); ++w) {
      std::vector<sim::Word> column(num_pis);
      for (unsigned pi = 0; pi < num_pis; ++pi)
        column[pi] = params.initial_bank->word(pi, w);
      bank.append_words(column);
    }
    bank.truncate_front(params.max_pattern_words);
  }
  return bank;
}

/// Outcome of one candidate pair. A pair the round never attempted
/// (deadline, cancellation, an inconsistent solver, a refuting probe)
/// stays kSkipped: the barrier neither counts nor journals it.
struct PairOutcome {
  enum class Kind : std::uint8_t { kSkipped, kEqual, kDistinct, kUnknown };
  Kind kind = Kind::kSkipped;
  /// kDistinct by an earlier CEX of the same round; `cex` stays empty
  /// because that CEX already reaches the barrier with its own pair.
  bool via_cex = false;
  std::vector<bool> cex;  ///< disproving PI assignment, for kDistinct
};

/// In-round counterexample resimulation: up to 64 counterexamples, one
/// bit each of a word per PI, simulated over the whole miter. The word
/// is resimulated lazily, at the first query after a CEX arrived, and
/// the node values are only allocated once a CEX arrives; the 65th CEX
/// starts a fresh word. Single-threaded (one per round).
class CexWord {
 public:
  explicit CexWord(const aig::Aig& miter)
      : miter_(miter), pi_bits_(miter.num_pis(), 0) {}

  void add(const std::vector<bool>& cex) {
    if (values_.empty()) values_.assign(miter_.num_nodes(), 0);
    if (count_ == 64) {
      std::fill(pi_bits_.begin(), pi_bits_.end(), 0);
      count_ = 0;
    }
    for (unsigned i = 0; i < miter_.num_pis(); ++i)
      if (cex[i]) pi_bits_[i] |= std::uint64_t{1} << count_;
    ++count_;
    stale_ = true;
  }

  /// Whether some CEX held now tells `pair.node` from its representative.
  bool separates(const sim::CandidatePair& pair) {
    if (count_ == 0) return false;
    if (stale_) resimulate();
    const std::uint64_t held =
        count_ == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count_) - 1;
    const std::uint64_t phase = pair.phase ? ~std::uint64_t{0} : 0;
    return ((values_[pair.repr] ^ phase ^ values_[pair.node]) & held) != 0;
  }

 private:
  void resimulate() {
    for (unsigned i = 0; i < miter_.num_pis(); ++i)
      values_[i + 1] = pi_bits_[i];
    const auto value = [&](aig::Lit l) {
      return aig::lit_compl(l) ? ~values_[aig::lit_var(l)]
                               : values_[aig::lit_var(l)];
    };
    for (aig::Var v = miter_.num_pis() + 1; v < miter_.num_nodes(); ++v)
      values_[v] = value(miter_.fanin0(v)) & value(miter_.fanin1(v));
    stale_ = false;
  }

  const aig::Aig& miter_;
  std::vector<std::uint64_t> pi_bits_;
  std::vector<std::uint64_t> values_;  ///< per node; node 0 stays 0
  unsigned count_ = 0;
  bool stale_ = false;
};

/// What a round's pair decisions share with the PO probe running beside
/// them (DESIGN.md §2.5). `pair_ticks` is the round's pair work so far in
/// propagation ticks; `pairs_done` is raised once it is final. `abandon`
/// is raised when a probe slice refutes: the round's outcomes no longer
/// matter. When no worker can run the probe, the pair loop calls
/// `between_pairs` after every pair, so the slices the ticks open run on
/// the deciding thread, interleaved with the pairs.
struct RoundLink {
  std::atomic<std::uint64_t> pair_ticks{0};
  std::atomic<bool> pairs_done{false};
  std::atomic<bool> abandon{false};
  std::function<void()> between_pairs;
};

/// Probe pacing (DESIGN.md §2.5). Slice 0 gives every open PO
/// conflict_limit / kProbeSlice0Divisor conflicts; every later slice
/// doubles that up to the round's cap and may start only once
/// kProbeTickRatio × the round's pair ticks reach the probe ticks spent
/// through the slice before it.
constexpr std::int64_t kProbeSlice0Divisor = 1000;
constexpr std::uint64_t kProbeTickRatio = 4;

/// Solver work of a probe: solve entries, conflicts, propagation ticks.
struct ProbeWork {
  std::size_t calls = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t ticks = 0;

  ProbeWork& operator+=(const ProbeWork& o) {
    calls += o.calls;
    conflicts += o.conflicts;
    ticks += o.ticks;
    return *this;
  }
};

/// One round's PO probe (DESIGN.md §2.5): every open PO gets one
/// PairSolver for the whole round, and slice k resumes it up to a
/// cumulative budget of min(base·2^k, cap) conflicts. Slice 0 always
/// runs; slice k ≥ 1 runs iff kProbeTickRatio·T ≥ P(k−1), where T is the
/// round's full pair ticks and P(k−1) the probe ticks through slice k−1.
/// Within a slice the lowest-index SAT PO wins. The slice set, the winner
/// and the counted work are therefore pure functions of the miter,
/// however the slices interleave with the pair decisions.
///
/// The probe loops claim POs off a per-slice ticket. Whoever finishes a
/// slice's last PO completes it: it counts the slice and either ends the
/// probe (refuted, or nothing left to run) or opens the next slice's PO
/// list behind the tick gate. A loop waits only on POs other loops have
/// claimed, or on the pair decisions while they run.
class ProbeRound {
 public:
  ProbeRound(const aig::Aig& miter, const aig::SubstitutionMap& subst,
             unsigned round, std::int64_t conflict_limit,
             const std::function<bool()>& out_of_time)
      : miter_(miter), subst_(subst), out_of_time_(out_of_time) {
    // One compressed copy serves every PO solver: resolve() on it never
    // writes, so the loops share it.
    subst_.compress();
    pos_.reserve(miter.num_pos());  // engaged solvers must never move
    for (aig::Lit po : miter.pos()) {
      const aig::Lit r = subst_.resolve(po);
      if (r == aig::kLitFalse) continue;
      if (r == aig::kLitTrue) {
        // Constant 1 under proved merges: every input refutes the miter.
        refuted_ = true;
        cex_.assign(miter.num_pis(), false);
        finished_.store(true, std::memory_order_relaxed);
        return;
      }
      pos_.emplace_back().lit = r;
    }
    if (pos_.empty()) {
      finished_.store(true, std::memory_order_relaxed);
      return;
    }
    const std::int64_t scale =
        conflict_limit >= 0 ? conflict_limit : SweeperParams{}.conflict_limit;
    std::int64_t cap = std::max<std::int64_t>(1, scale / 100)
                       << std::min(round, 32u);
    if (conflict_limit >= 0) cap = std::min(cap, conflict_limit);
    std::vector<std::int64_t> budgets{std::min(
        std::max<std::int64_t>(1, scale / kProbeSlice0Divisor), cap)};
    while (budgets.back() < cap)
      budgets.push_back(std::min(2 * budgets.back(), cap));
    num_slices_ = budgets.size();
    slices_ = std::make_unique<Slice[]>(num_slices_);
    for (std::size_t k = 0; k < num_slices_; ++k) {
      slices_[k].budget = budgets[k];
      // complete() fills the lists on pool workers, where nothing may
      // throw: no allocation there.
      slices_[k].todo.reserve(pos_.size());
    }
    Slice& first = slices_[0];
    for (std::size_t p = 0; p < pos_.size(); ++p) first.todo.push_back(p);
    first.winner.store(pos_.size(), std::memory_order_relaxed);
  }

  // The probe loops and the link's callback hold `this`.
  ProbeRound(const ProbeRound&) = delete;
  ProbeRound& operator=(const ProbeRound&) = delete;

  RoundLink& link() { return link_; }

  /// Runs `decide` (the round's pair decisions) and the probe slices the
  /// tick gate allows. The slices run on the pool's workers while the
  /// caller decides; when that cannot be (no worker, one open PO, the
  /// pool busy), the caller runs slice 0, then the pairs with every slice
  /// their ticks open run between two pairs, then the slices the final
  /// ticks allow. `decide` is skipped once a slice has refuted.
  void run(parallel::ThreadPool& pool, const std::function<void()>& decide) {
    const auto host = [&] {
      // However decide() ends, the gate then sees the final ticks, so no
      // probe loop waits past it.
      struct Done {
        RoundLink& link;
        ~Done() { link.pairs_done.store(true, std::memory_order_release); }
      } done{link_};
      if (!link_.abandon.load(std::memory_order_relaxed)) decide();
    };
    if (finished_.load(std::memory_order_relaxed)) {
      if (!refuted_) host();
      return;
    }
    // One loop per pool thread, which is one loop more than workers: the
    // caller takes it when it joins after its pairs, and helps with the
    // slices left.
    const std::size_t loops =
        std::min<std::size_t>(pos_.size(), pool.concurrency());
    if (loops > 1 &&
        pool.run_beside(
            loops, [this](std::size_t) { loop(/*wait=*/true); }, host))
      return;
    link_.between_pairs = [this] {
      if (!finished_.load(std::memory_order_relaxed) &&
          gate(completed_.load(std::memory_order_relaxed)) == Gate::kOpen)
        loop(/*wait=*/false);
    };
    loop(/*wait=*/false);
    host();
    loop(/*wait=*/false);
  }

  bool refuted() const { return refuted_; }
  std::vector<bool> take_cex() { return std::move(cex_); }
  /// Work of the slices run, over the POs up to the refuting one.
  const ProbeWork& counted() const { return counted_; }
  std::size_t slices_run() const { return slices_run_; }
  std::size_t solve_faults() const {
    std::size_t n = 0;
    for (const Po& po : pos_)
      if (po.solver) n += po.solver->solve_faults();
    return n;
  }

 private:
  struct Po {
    aig::Lit lit = aig::kLitFalse;
    std::optional<PairSolver> solver;
    sat::Solver::Result result = sat::Solver::Result::kUnknown;
    ProbeWork last;  ///< work of its latest slice
    std::vector<bool> cex;
  };
  struct Slice {
    std::int64_t budget = 0;        ///< cumulative conflicts per PO
    std::vector<std::size_t> todo;  ///< indices into pos_
    std::uint64_t ticks_before = 0; ///< P(k−1), fixed before it opens
    std::atomic<std::size_t> ticket{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> winner{0};  ///< lowest SAT todo index
  };
  enum class Gate { kOpen, kWait, kShut };

  /// Whether slice k may run: slice 0 always; slice k ≥ 1 once the pair
  /// ticks pay for it, never once they are final and do not.
  Gate gate(std::size_t k) const {
    if (k == 0) return Gate::kOpen;
    const bool final_ticks = link_.pairs_done.load(std::memory_order_acquire);
    const std::uint64_t t = link_.pair_ticks.load(std::memory_order_relaxed);
    if (kProbeTickRatio * t >= slices_[k].ticks_before) return Gate::kOpen;
    return final_ticks ? Gate::kShut : Gate::kWait;
  }

  /// Runs slices until the probe ends. With `wait`, a closed gate is
  /// waited out while the pairs run; without, the loop returns.
  void loop(bool wait) {
    unsigned idle = 0;
    while (!finished_.load(std::memory_order_acquire) && !out_of_time_()) {
      const std::size_t k = completed_.load(std::memory_order_acquire);
      switch (gate(k)) {
        case Gate::kShut:
          finished_.store(true, std::memory_order_release);
          return;
        case Gate::kWait:
          if (!wait) return;
          pause(idle);
          continue;
        case Gate::kOpen:
          break;
      }
      Slice& s = slices_[k];
      const std::size_t i = s.ticket.fetch_add(1, std::memory_order_relaxed);
      if (i >= s.todo.size()) {
        pause(idle);  // the slice's last POs run on other loops
        continue;
      }
      idle = 0;
      probe(s, i);
      if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == s.todo.size())
        complete(k);
    }
  }

  static void pause(unsigned& idle) {
    if (++idle < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  void probe(Slice& s, std::size_t i) {
    // A PO above a refuting one is not run: its work would not count.
    if (i > s.winner.load(std::memory_order_relaxed)) return;
    Po& po = pos_[s.todo[i]];
    po.last = {};
    try {
      if (!po.solver) po.solver.emplace(miter_, &subst_);
      PairSolver& ps = *po.solver;
      ps.set_interrupt([this, &s, i] {
        return out_of_time_() || s.winner.load(std::memory_order_relaxed) < i;
      });
      const ProbeWork before{ps.sat_calls(), ps.conflicts(), ps.ticks()};
      const std::int64_t spent = static_cast<std::int64_t>(ps.conflicts());
      po.result = ps.prove_false(po.lit, std::max<std::int64_t>(
                                             0, s.budget - spent));
      po.last = {ps.sat_calls() - before.calls,
                 ps.conflicts() - before.conflicts, ps.ticks() - before.ticks};
      if (po.result != sat::Solver::Result::kSat) return;
      po.cex = ps.model_cex();
      std::size_t w = s.winner.load(std::memory_order_relaxed);
      while (i < w && !s.winner.compare_exchange_weak(
                          w, i, std::memory_order_relaxed)) {
      }
    } catch (...) {
      // A worker failure must not unwind across the pool: this PO simply
      // stays unknown.
      po.result = sat::Solver::Result::kUnknown;
    }
  }

  /// Called by the loop that finished slice k's last PO (the acq_rel
  /// count on `done` makes every PO's result visible here).
  void complete(std::size_t k) {
    Slice& s = slices_[k];
    const std::size_t w = s.winner.load(std::memory_order_relaxed);
    ++slices_run_;
    for (std::size_t i = 0; i < s.todo.size() && i <= w; ++i)
      counted_ += pos_[s.todo[i]].last;
    if (w < s.todo.size()) {
      refuted_ = true;
      cex_ = std::move(pos_[s.todo[w]].cex);
      link_.abandon.store(true, std::memory_order_relaxed);
      finished_.store(true, std::memory_order_release);
      return;
    }
    if (k + 1 < num_slices_) {
      Slice& next = slices_[k + 1];
      for (std::size_t p : s.todo)
        if (pos_[p].result == sat::Solver::Result::kUnknown)
          next.todo.push_back(p);
      next.ticks_before = counted_.ticks;
      next.winner.store(next.todo.size(), std::memory_order_relaxed);
      if (!next.todo.empty()) {
        completed_.store(k + 1, std::memory_order_release);
        return;
      }
    }
    finished_.store(true, std::memory_order_release);
  }

  const aig::Aig& miter_;
  aig::SubstitutionMap subst_;
  const std::function<bool()>& out_of_time_;
  std::vector<Po> pos_;
  std::unique_ptr<Slice[]> slices_;
  std::size_t num_slices_ = 0;
  RoundLink link_;
  /// Slices completed; slice `completed_` is the one open or gated.
  std::atomic<std::size_t> completed_{0};
  std::atomic<bool> finished_{false};
  // Written by completing loops only (each after the previous completion
  // through completed_), read by the caller after the loops joined.
  bool refuted_ = false;
  std::vector<bool> cex_;
  ProbeWork counted_;
  std::size_t slices_run_ = 0;
};

/// The final PO pass, after the last round: the open POs are proved in
/// order on the sweep's pair solver, whose work the sweep counts.
/// kNotEquivalent carries the refuting model; kEquivalent means every PO
/// is UNSAT; anything else is kUndecided.
Verdict prove_pos(const aig::Aig& miter, const aig::SubstitutionMap& subst,
                  std::int64_t budget, PairSolver& core,
                  const std::function<bool()>& out_of_time,
                  std::optional<std::vector<bool>>& cex) {
  std::vector<aig::Lit> open;
  for (aig::Lit po : miter.pos()) {
    const aig::Lit r = subst.resolve(po);
    if (r == aig::kLitFalse) continue;
    if (r == aig::kLitTrue) {
      // Constant 1 under proved merges: every input refutes the miter.
      cex.emplace(miter.num_pis(), false);
      return Verdict::kNotEquivalent;
    }
    open.push_back(r);
  }
  bool all_proved = true;
  for (aig::Lit r : open) {
    if (out_of_time()) return Verdict::kUndecided;
    switch (core.prove_false(r, budget)) {
      case sat::Solver::Result::kUnsat:
        break;  // this PO is constant 0
      case sat::Solver::Result::kSat:
        cex = core.model_cex();
        return Verdict::kNotEquivalent;
      case sat::Solver::Result::kUnknown:
        all_proved = false;
        break;
    }
  }
  return all_proved ? Verdict::kEquivalent : Verdict::kUndecided;
}

/// Decides a round's `pairs` (sorted by node id) on the sweep's one
/// long-lived solver, publishing the round's pair ticks into `link` as it
/// goes. Cones are encoded verbatim and each proof is reinforced with
/// equality clauses at once, so later pairs of the same round profit from
/// it; a pair that a CEX of this round already separates is disproved
/// without a SAT call. Returns one outcome per pair, in pair order.
std::vector<PairOutcome> decide_pairs(
    const aig::Aig& miter, PairSolver& core,
    const std::vector<sim::CandidatePair>& pairs, RoundLink& link,
    std::int64_t conflict_limit, const std::function<bool()>& out_of_time) {
  std::vector<PairOutcome> outcomes(pairs.size());
  CexWord cexes(miter);
  const std::uint64_t start = core.ticks();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    link.pair_ticks.store(core.ticks() - start, std::memory_order_relaxed);
    if (link.between_pairs) link.between_pairs();
    if (out_of_time() || link.abandon.load(std::memory_order_relaxed)) break;
    if (cexes.separates(pairs[p])) {
      outcomes[p].kind = PairOutcome::Kind::kDistinct;
      outcomes[p].via_cex = true;
      continue;
    }
    const aig::Lit lr = aig::make_lit(pairs[p].repr, pairs[p].phase);
    const aig::Lit ln = aig::make_lit(pairs[p].node);
    switch (core.check_pair(lr, ln, conflict_limit)) {
      case PairSolver::Outcome::kEqual:
        outcomes[p].kind = PairOutcome::Kind::kEqual;
        core.assert_equal(lr, ln);
        break;
      case PairSolver::Outcome::kDistinct:
        outcomes[p].kind = PairOutcome::Kind::kDistinct;
        outcomes[p].cex = core.model_cex();
        cexes.add(outcomes[p].cex);
        break;
      case PairSolver::Outcome::kUnknown:
        outcomes[p].kind = PairOutcome::Kind::kUnknown;
        break;
    }
    if (core.inconsistent()) break;
  }
  link.pair_ticks.store(core.ticks() - start, std::memory_order_relaxed);
  return outcomes;
}

}  // namespace

SweepResult SatSweeper::check_miter(const aig::Aig& miter) const {
  Timer t;
  SweepResult result;
  SweeperStats& stats = result.stats;
  const std::function<bool()> out_of_time = [&] {
    if (params_.cancel != nullptr &&
        params_.cancel->load(std::memory_order_relaxed))
      return true;
    return params_.time_limit > 0 && t.seconds() > params_.time_limit;
  };
  // The sweep's one SAT core, alive for the whole run: it decides every
  // round's pairs and then the final PO pass. Its interrupt also polls the
  // running round's abandon flag, raised when a probe slice refutes.
  const std::atomic<bool>* abandon = nullptr;
  PairSolver core(miter);
  core.set_interrupt([&] {
    return out_of_time() ||
           (abandon != nullptr && abandon->load(std::memory_order_relaxed));
  });
  // sat_calls, conflicts, pair_ticks and solve_faults of the core so far.
  const auto core_work = [&] {
    SweeperStats w;
    w.sat_calls = core.sat_calls();
    w.conflicts = core.conflicts();
    w.pair_ticks = core.ticks();
    w.solve_faults = core.solve_faults();
    return w;
  };
  std::size_t probe_faults = 0;
  // The pair work before a round that a probe refuted: how far that
  // round's pairs got depends on timing, so none of it is counted.
  std::optional<SweeperStats> refuted_round;
  // The core's work so far; the probes' faulted solve entries count with
  // its own.
  auto count_work = [&](SweeperStats& s) {
    const SweeperStats pair_work = refuted_round ? *refuted_round : core_work();
    s.sat_calls = pair_work.sat_calls;
    s.conflicts = pair_work.conflicts;
    s.pair_ticks = pair_work.pair_ticks;
    s.solve_faults = pair_work.solve_faults + probe_faults;
  };
  auto finish = [&](Verdict v) {
    if (v == Verdict::kNotEquivalent && result.cex) {
      // Every counterexample is replayed on the miter before it leaves
      // the sweep. Injection site `sweep.cex_replay` (DESIGN.md §2.4)
      // corrupts it first, so the replay's failure path is exercised.
      if (miter.num_pis() > 0 &&
          SIMSWEEP_FAULT_POINT(fault::sites::kSweepCexReplay))
        result.cex->front().flip();
      if (aig::find_failing_po(miter, *result.cex) < 0) {
        SIMSWEEP_LOG_WARN("sweep counterexample failed its replay; "
                          "returning undecided");
        ++stats.cex_replay_failures;
        result.cex.reset();
        v = Verdict::kUndecided;
      }
    }
    result.verdict = v;
    count_work(stats);
    stats.seconds = t.seconds();
    return result;
  };

  if (aig::miter_disproved(miter)) {
    result.cex.emplace(miter.num_pis(), false);  // any input refutes it
    return finish(Verdict::kNotEquivalent);
  }
  if (aig::miter_proved(miter)) return finish(Verdict::kEquivalent);

  aig::SubstitutionMap subst(miter.num_nodes());

  // EC initialization by partial random simulation, extended with any
  // transferred patterns (§V EC-transfer extension). A resume restores
  // the crashed run's accumulated bank instead: building classes over the
  // full bank reproduces its refined partition exactly.
  const SweepResumeState* resume = params_.resume;
  const bool resuming =
      resume != nullptr && resume->bank &&
      resume->bank->num_pis() == miter.num_pis();
  sim::PatternBank bank = resuming
                              ? *resume->bank
                              : make_init_bank(miter.num_pis(), params_);
  sim::EcManager ec;
  ec.build(miter, sim::simulate(miter, bank));

  // Round-barrier journal (DESIGN.md §2.8): what a resumed run replays.
  std::vector<std::pair<aig::Var, aig::Lit>> merge_journal;
  std::vector<aig::Var> removed_nodes;
  unsigned start_round = 0;
  if (resuming) {
    for (const auto& [node, lit] : resume->merges) {
      core.assert_equal(lit, aig::make_lit(node));
      subst.merge(node, lit);
      ec.mark_proved(node);
    }
    for (aig::Var v : resume->removed) ec.remove_node(v);
    merge_journal = resume->merges;
    removed_nodes = resume->removed;
    stats.pairs_proved = resume->pairs_proved;
    stats.pairs_disproved = resume->pairs_disproved;
    stats.pairs_undecided = resume->pairs_undecided;
    start_round = resume->next_round;
  }

  const std::int64_t limit = params_.conflict_limit;
  parallel::ThreadPool& probe_pool = params_.pool != nullptr
                                         ? *params_.pool
                                         : parallel::ThreadPool::global();

  for (unsigned round = start_round; round < params_.max_rounds; ++round) {
    if (out_of_time()) return finish(Verdict::kUndecided);
    std::vector<sim::CandidatePair> pairs = ec.candidate_pairs();
    if (pairs.empty()) break;
    // Topological (ascending node id) order: proofs of small cones come
    // first and help the bigger ones.
    std::sort(pairs.begin(), pairs.end(),
              [](const sim::CandidatePair& x, const sim::CandidatePair& y) {
                return x.node < y.node;
              });

    // The round's PO probe runs beside its pair decisions (DESIGN.md
    // §2.5).
    const SweeperStats round_start = core_work();
    ProbeRound probe(miter, subst, round, limit, out_of_time);
    std::vector<PairOutcome> outcomes;
    probe.run(probe_pool, [&] {
      abandon = &probe.link().abandon;
      outcomes =
          decide_pairs(miter, core, pairs, probe.link(), limit, out_of_time);
      abandon = nullptr;
    });
    stats.probe_calls += probe.counted().calls;
    stats.probe_conflicts += probe.counted().conflicts;
    stats.probe_ticks += probe.counted().ticks;
    stats.probe_slices += probe.slices_run();
    probe_faults += probe.solve_faults();
    if (probe.refuted()) {
      refuted_round = round_start;
      result.cex = probe.take_cex();
      return finish(Verdict::kNotEquivalent);
    }

    // Round barrier: apply every attempted outcome in pair order, so EC
    // state, substitution map and counters evolve the same way however
    // the probe interleaved with the pairs.
    std::size_t proved = 0;
    sim::CexCollector collector(miter.num_pis());
    std::vector<std::pair<unsigned, bool>> assignment;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const sim::CandidatePair& pair = pairs[p];
      const PairOutcome& outcome = outcomes[p];
      switch (outcome.kind) {
        case PairOutcome::Kind::kSkipped:
          break;
        case PairOutcome::Kind::kEqual: {
          const aig::Lit lr = aig::make_lit(pair.repr, pair.phase);
          subst.merge(pair.node, lr);
          ec.mark_proved(pair.node);
          merge_journal.emplace_back(pair.node, lr);
          ++proved;
          ++stats.pairs_proved;
          break;
        }
        case PairOutcome::Kind::kDistinct:
          ++stats.pairs_disproved;
          if (outcome.via_cex) {
            ++stats.pairs_cex_resolved;
            break;
          }
          assignment.clear();
          assignment.reserve(outcome.cex.size());
          for (unsigned i = 0; i < outcome.cex.size(); ++i)
            assignment.emplace_back(i, outcome.cex[i]);
          collector.add(assignment);
          break;
        case PairOutcome::Kind::kUnknown:
          ++stats.pairs_undecided;
          ec.remove_node(pair.node);  // do not retry within this run
          removed_nodes.push_back(pair.node);
          break;
      }
    }
    SIMSWEEP_LOG_INFO("sweep round %u: %zu pairs, %zu proved, %zu CEX", round,
                      pairs.size(), proved, collector.num_cexes());

    if (out_of_time()) return finish(Verdict::kUndecided);
    if (collector.empty()) break;
    sim::PatternBank cex_bank(miter.num_pis(), 0);
    collector.flush_into(cex_bank);
    ec.refine(sim::simulate(miter, cex_bank));
    if (params_.checkpoint_hook) {
      // Fold the round's CEX columns into the accumulated bank first so a
      // snapshot's bank re-derives exactly these refined classes. Hook
      // exceptions are swallowed: checkpointing must never change the
      // verdict.
      bank.append(cex_bank);
      SweepCheckpointView view;
      view.miter = &miter;
      view.next_round = round + 1;
      view.merges = &merge_journal;
      view.removed = &removed_nodes;
      view.bank = &bank;
      SweeperStats snap_stats = stats;
      count_work(snap_stats);
      snap_stats.seconds = t.seconds();
      view.stats = &snap_stats;
      try {
        params_.checkpoint_hook(view);
      } catch (...) {
      }
    }
  }

  // Final PO pass on the substituted miter.
  if (out_of_time()) return finish(Verdict::kUndecided);
  return finish(
      prove_pos(miter, subst, limit, core, out_of_time, result.cex));
}

}  // namespace simsweep::sweep
