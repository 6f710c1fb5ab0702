#include "sweep/sat_sweeper.hpp"

#include <algorithm>
#include <atomic>

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

/// Outcome of one pass over the miter POs.
struct PoPass {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;  ///< for kNotEquivalent
  /// Probe work over the POs up to the refuting one (every open PO when
  /// none refutes), so the totals do not depend on the pool size.
  std::size_t calls = 0;
  std::uint64_t conflicts = 0;
  /// Faulted solve entries of every probed PO.
  std::size_t solve_faults = 0;
};

/// The PO pass, used two ways (DESIGN.md §2.5). With `core` it is the
/// final pass: the open POs are proved in order on that solver, whose
/// work its scheduler counts. Without it it is a probe: every open PO is
/// checked on its own fresh PairSolver over a private copy of `subst`,
/// the POs spread over `pool`, and the lowest-index SAT PO wins.
/// kNotEquivalent carries the refuting model; kEquivalent means every PO
/// is UNSAT; anything else is kUndecided.
PoPass check_pos(const aig::Aig& miter, const aig::SubstitutionMap& subst,
                 std::int64_t budget, PairSolver* core,
                 parallel::ThreadPool& pool,
                 const std::function<bool()>& out_of_time) {
  PoPass pass;
  std::vector<aig::Lit> open;
  for (aig::Lit po : miter.pos()) {
    const aig::Lit r = subst.resolve(po);
    if (r == aig::kLitFalse) continue;
    if (r == aig::kLitTrue) {
      // Constant 1 under proved merges: every input refutes the miter.
      pass.verdict = Verdict::kNotEquivalent;
      pass.cex.emplace(miter.num_pis(), false);
      return pass;
    }
    open.push_back(r);
  }
  if (open.empty()) {
    pass.verdict = Verdict::kEquivalent;
    return pass;
  }

  if (core != nullptr) {
    bool all_proved = true;
    for (aig::Lit r : open) {
      if (out_of_time()) return pass;
      switch (core->prove_false(r, budget)) {
        case sat::Solver::Result::kUnsat:
          break;  // this PO is constant 0
        case sat::Solver::Result::kSat:
          pass.verdict = Verdict::kNotEquivalent;
          pass.cex = core->model_cex();
          return pass;
        case sat::Solver::Result::kUnknown:
          all_proved = false;
          break;
      }
    }
    if (all_proved) pass.verdict = Verdict::kEquivalent;
    return pass;
  }

  struct Probe {
    sat::Solver::Result result = sat::Solver::Result::kUnknown;
    std::vector<bool> cex;
    std::size_t calls = 0;
    std::uint64_t conflicts = 0;
    std::size_t solve_faults = 0;
  };
  std::vector<Probe> probes(open.size());
  // Lowest open-PO index found SAT so far. A probe above it is abandoned
  // (its work is not counted); a probe below it always runs to the end,
  // so the winner and the counted work are those of a sequential pass.
  std::atomic<std::size_t> winner{open.size()};
  // One probe loop per pool thread: it claims POs in index order off a
  // shared ticket and keeps one private copy of the map for all of them
  // (resolve() path-compresses, so the map cannot be shared).
  std::atomic<std::size_t> ticket{0};
  const std::size_t loops =
      std::min<std::size_t>(open.size(), pool.stats().workers + 1);
  const auto probe_loop = [&](std::size_t) {
    std::optional<aig::SubstitutionMap> local;
    for (;;) {
      const std::size_t k = ticket.fetch_add(1, std::memory_order_relaxed);
      if (k >= open.size() || k > winner.load(std::memory_order_relaxed) ||
          out_of_time())
        return;
      Probe& probe = probes[k];
      try {
        if (!local) local.emplace(subst);
        PairSolver ps(miter, &*local);
        ps.set_interrupt([&] {
          return out_of_time() || winner.load(std::memory_order_relaxed) < k;
        });
        probe.result = ps.prove_false(open[k], budget);
        probe.calls = ps.sat_calls();
        probe.conflicts = ps.conflicts();
        probe.solve_faults = ps.solve_faults();
        if (probe.result != sat::Solver::Result::kSat) continue;
        probe.cex = ps.model_cex();
        std::size_t w = winner.load(std::memory_order_relaxed);
        while (k < w && !winner.compare_exchange_weak(
                            w, k, std::memory_order_relaxed)) {
        }
      } catch (...) {
        // A worker failure must not unwind across the pool: this PO
        // simply stays unknown.
        probe.result = sat::Solver::Result::kUnknown;
      }
    }
  };
  if (loops == 1) {
    // One loop (a lone open PO, or a pool without workers) runs on the
    // calling thread: handing it to a worker gains nothing and grows
    // that worker's malloc arena (measured as peak RSS in the batch
    // service, whose sweep pool otherwise never allocates).
    probe_loop(0);
  } else {
    parallel::StagePlan plan;
    plan.set_granular(true);
    plan.stage(0, loops, probe_loop);
    pool.run_stages(plan);
  }

  const std::size_t w = winner.load(std::memory_order_relaxed);
  bool all_proved = true;
  for (std::size_t k = 0; k < probes.size(); ++k) {
    pass.solve_faults += probes[k].solve_faults;
    if (k > w) continue;
    pass.calls += probes[k].calls;
    pass.conflicts += probes[k].conflicts;
    all_proved = all_proved && probes[k].result == sat::Solver::Result::kUnsat;
  }
  if (w < probes.size()) {
    pass.verdict = Verdict::kNotEquivalent;
    pass.cex = std::move(probes[w].cex);
  } else if (all_proved) {
    pass.verdict = Verdict::kEquivalent;
  }
  return pass;
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
    core_.set_interrupt(out_of_time_);
  }

  void replay_merge(aig::Lit repr, aig::Lit node) override {
    core_.assert_equal(repr, node);
  }

  std::vector<PairOutcome> decide(
      const std::vector<sim::CandidatePair>& pairs) override {
    std::vector<PairOutcome> outcomes(pairs.size());
    CexWord cexes(miter_);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (out_of_time_()) break;
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
    return outcomes;
  }

  PairSolver& po_core() override { return core_; }

  void count_solver_work(SweeperStats& stats) const override {
    stats.sat_calls = core_.sat_calls();
    stats.conflicts = core_.conflicts();
    stats.solve_faults = core_.solve_faults();
  }

 private:
  const aig::Aig& miter_;
  const std::int64_t conflict_limit_;
  const std::function<bool()> out_of_time_;
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
  // sat_calls, conflicts and solve_faults so far; the probes' faulted
  // solve entries count with the schedulers'.
  auto count_work = [&](SweeperStats& s) {
    if (scheduler) scheduler->count_solver_work(s);
    s.solve_faults += probe_faults;
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

  // PO probe budget (DESIGN.md §2.5): conflict_limit/100 per open PO
  // before the first round, doubling every round up to conflict_limit.
  // A probe is skipped once the probes have spent more than the pair
  // sweep plus one base pass, so an equivalent residue pays at most about
  // twice its pair-sweep conflicts for them.
  const std::int64_t limit = params_.conflict_limit;
  const std::int64_t probe_base = std::max<std::int64_t>(
      1, (limit >= 0 ? limit : SweeperParams{}.conflict_limit) / 100);
  const auto probe_budget = [&](unsigned round) {
    const std::int64_t b = probe_base << std::min(round, 32u);
    return limit >= 0 ? std::min(b, limit) : b;
  };
  const std::uint64_t base_pass =
      static_cast<std::uint64_t>(probe_base) * miter.num_pos();
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

    SweeperStats work;
    count_work(work);
    if (stats.probe_conflicts <= work.conflicts + base_pass) {
      PoPass probe = check_pos(miter, subst, probe_budget(round), nullptr,
                               probe_pool, out_of_time);
      stats.probe_calls += probe.calls;
      stats.probe_conflicts += probe.conflicts;
      probe_faults += probe.solve_faults;
      if (probe.verdict == Verdict::kNotEquivalent) {
        result.cex = std::move(probe.cex);
        return finish(Verdict::kNotEquivalent);
      }
    }

    const std::vector<PairOutcome> outcomes = scheduler->decide(pairs);

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
      for (std::size_t w = 0; w < cex_bank.num_words(); ++w) {
        std::vector<sim::Word> column(miter.num_pis());
        for (unsigned pi = 0; pi < miter.num_pis(); ++pi)
          column[pi] = cex_bank.word(pi, w);
        bank.append_words(column);
      }
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
  PoPass final_pass = check_pos(miter, subst, limit, &scheduler->po_core(),
                                probe_pool, out_of_time);
  result.cex = std::move(final_pass.cex);
  return finish(final_pass.verdict);
}

}  // namespace simsweep::sweep
