#include "sweep/sat_sweeper.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "aig/cex.hpp"
#include "aig/rebuild.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/ec_manager.hpp"
#include "sweep/round_scheduler.hpp"

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
  /// tick gate allows. With `beside`, the slices run on the pool's workers
  /// while the caller decides; when that cannot be (no worker, one open
  /// PO, the pool busy), the caller runs slice 0, then the pairs with
  /// every slice their ticks open run between two pairs, then the slices
  /// the final ticks allow. Without `beside` the slices run on the pool
  /// before and after `decide` (the chunk scheduler, whose shards may
  /// share the pool). `decide` is skipped once a slice has refuted.
  void run(parallel::ThreadPool& pool, bool beside,
           const std::function<void()>& decide) {
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
    // One loop per pool thread. Beside the pairs that is one loop more
    // than workers: the caller takes it when it joins after its pairs, and
    // helps with the slices left.
    const std::size_t loops =
        std::min<std::size_t>(pos_.size(), pool.concurrency());
    if (beside && loops > 1 &&
        pool.run_beside(
            loops, [this](std::size_t) { loop(/*wait=*/true); }, host))
      return;
    if (beside) {
      link_.between_pairs = [this] {
        if (!finished_.load(std::memory_order_relaxed) &&
            gate(completed_.load(std::memory_order_relaxed)) == Gate::kOpen)
          loop(/*wait=*/false);
      };
    }
    run_loops(pool, beside ? 1 : loops);
    host();
    run_loops(pool, beside ? 1 : loops);
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

  void run_loops(parallel::ThreadPool& pool, std::size_t loops) {
    if (finished_.load(std::memory_order_relaxed)) return;
    if (loops <= 1) {
      loop(/*wait=*/false);
      return;
    }
    pool.run_lanes(loops, [this](std::size_t) { loop(/*wait=*/false); });
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
/// order on the scheduler's core, whose work the scheduler counts.
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

/// The sequential scheduler (round_scheduler.hpp): one long-lived SAT
/// core for the whole run. Cones are encoded verbatim (no substitution
/// map attached) and each proof is reinforced with equality clauses as
/// soon as it is found, so the solver keeps all learned facts.
class SequentialScheduler final : public RoundScheduler {
 public:
  SequentialScheduler(const aig::Aig& miter, std::int64_t conflict_limit,
                      std::function<bool()> out_of_time)
      : miter_(miter),
        conflict_limit_(conflict_limit),
        out_of_time_(std::move(out_of_time)),
        core_(miter) {
    core_.set_interrupt([this] {
      return out_of_time_() ||
             (abandon_ != nullptr && abandon_->load(std::memory_order_relaxed));
    });
  }

  void replay_merge(aig::Lit repr, aig::Lit node) override {
    core_.assert_equal(repr, node);
  }

  std::vector<PairOutcome> decide(const std::vector<sim::CandidatePair>& pairs,
                                  RoundLink& link) override {
    std::vector<PairOutcome> outcomes(pairs.size());
    CexWord cexes(miter_);
    const std::uint64_t start = core_.ticks();
    abandon_ = &link.abandon;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      link.pair_ticks.store(core_.ticks() - start, std::memory_order_relaxed);
      if (link.between_pairs) link.between_pairs();
      if (out_of_time_() || link.abandon.load(std::memory_order_relaxed))
        break;
      if (cexes.separates(pairs[p])) {
        outcomes[p].kind = PairOutcome::Kind::kDistinct;
        outcomes[p].via_cex = true;
        continue;
      }
      const aig::Lit lr = aig::make_lit(pairs[p].repr, pairs[p].phase);
      const aig::Lit ln = aig::make_lit(pairs[p].node);
      switch (core_.check_pair(lr, ln, conflict_limit_)) {
        case PairSolver::Outcome::kEqual:
          outcomes[p].kind = PairOutcome::Kind::kEqual;
          core_.assert_equal(lr, ln);
          break;
        case PairSolver::Outcome::kDistinct:
          outcomes[p].kind = PairOutcome::Kind::kDistinct;
          outcomes[p].cex = core_.model_cex();
          cexes.add(outcomes[p].cex);
          break;
        case PairSolver::Outcome::kUnknown:
          outcomes[p].kind = PairOutcome::Kind::kUnknown;
          break;
      }
      if (core_.inconsistent()) break;
    }
    link.pair_ticks.store(core_.ticks() - start, std::memory_order_relaxed);
    abandon_ = nullptr;
    return outcomes;
  }

  PairSolver& po_core() override { return core_; }

  void count_solver_work(SweeperStats& stats) const override {
    stats.sat_calls = core_.sat_calls();
    stats.conflicts = core_.conflicts();
    stats.pair_ticks = core_.ticks();
    stats.solve_faults = core_.solve_faults();
  }

 private:
  const aig::Aig& miter_;
  const std::int64_t conflict_limit_;
  const std::function<bool()> out_of_time_;
  /// The running round's abandon flag, polled by the core's interrupt.
  const std::atomic<bool>* abandon_ = nullptr;
  PairSolver core_;
};

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
  std::unique_ptr<RoundScheduler> scheduler;
  std::size_t probe_faults = 0;
  // The pair work before a round that a probe refuted: how far that
  // round's pairs got depends on timing, so none of it is counted.
  std::optional<SweeperStats> refuted_round;
  // sat_calls, conflicts, pair_ticks and solve_faults so far; the probes'
  // faulted solve entries count with the schedulers'.
  auto count_work = [&](SweeperStats& s) {
    SweeperStats pair_work;
    if (refuted_round)
      pair_work = *refuted_round;
    else if (scheduler)
      scheduler->count_solver_work(pair_work);
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
  const bool chunked = params_.num_threads > 1;
  if (chunked)
    scheduler = make_chunk_scheduler(miter, params_, subst, stats, out_of_time);
  else
    scheduler = std::make_unique<SequentialScheduler>(
        miter, params_.conflict_limit, out_of_time);

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
      scheduler->replay_merge(lit, aig::make_lit(node));
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
    // first and help the bigger ones. Chunk boundaries depend only on
    // this order and pairs_per_chunk, never on the thread count.
    std::sort(pairs.begin(), pairs.end(),
              [](const sim::CandidatePair& x, const sim::CandidatePair& y) {
                return x.node < y.node;
              });

    // The round's PO probe runs beside its pair decisions (DESIGN.md
    // §2.5); the chunk scheduler runs it between them.
    SweeperStats round_start;
    scheduler->count_solver_work(round_start);
    ProbeRound probe(miter, subst, round, limit, out_of_time);
    std::vector<PairOutcome> outcomes;
    probe.run(probe_pool, /*beside=*/!chunked,
              [&] { outcomes = scheduler->decide(pairs, probe.link()); });
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
    // state, substitution map and counters evolve the same way for any
    // thread count and interleaving.
    std::size_t proved = 0;
    sim::CexCollector collector(miter.num_pis());
    std::vector<std::pair<unsigned, bool>> assignment;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const sim::CandidatePair& pair = pairs[p];
      const PairOutcome& outcome = outcomes[p];
      if (outcome.via_sim) ++stats.pairs_sim_resolved;
      switch (outcome.kind) {
        case PairOutcome::Kind::kSkipped:
          break;
        case PairOutcome::Kind::kEqual: {
          // Injection site `sweep.board_merge` (DESIGN.md §2.4): applying
          // a shard-proved merge is the barrier's structural step; a
          // failure abandons the sharded attempt (sweep_miter() falls
          // back to the sequential scheduler, which never reaches it).
          if (chunked && SIMSWEEP_FAULT_POINT(fault::sites::kSweepBoardMerge))
            throw fault::FaultError(fault::sites::kSweepBoardMerge);
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
  return finish(prove_pos(miter, subst, limit, scheduler->po_core(),
                          out_of_time, result.cex));
}

}  // namespace simsweep::sweep
