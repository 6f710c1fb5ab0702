#include "sweep/sat_sweeper.hpp"

#include <algorithm>

#include "aig/rebuild.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
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

/// The sequential scheduler (round_scheduler.hpp): one long-lived SAT
/// core for the whole run. Cones are encoded verbatim (no substitution
/// map attached) and each proof is reinforced with equality clauses as
/// soon as it is found, so the solver keeps all learned facts.
class SequentialScheduler final : public RoundScheduler {
 public:
  SequentialScheduler(const aig::Aig& miter, std::int64_t conflict_limit,
                      std::function<bool()> out_of_time)
      : conflict_limit_(conflict_limit),
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
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (out_of_time_()) break;
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
  auto finish = [&](Verdict v) {
    result.verdict = v;
    if (scheduler) scheduler->count_solver_work(stats);
    stats.seconds = t.seconds();
    return result;
  };

  if (aig::miter_disproved(miter)) return finish(Verdict::kNotEquivalent);
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
      scheduler->count_solver_work(snap_stats);
      snap_stats.seconds = t.seconds();
      view.stats = &snap_stats;
      try {
        params_.checkpoint_hook(view);
      } catch (...) {
      }
    }
  }

  // Final PO proving on the substituted miter.
  PairSolver& core = scheduler->po_core();
  bool all_proved = true;
  for (aig::Lit po : miter.pos()) {
    if (out_of_time()) return finish(Verdict::kUndecided);
    const aig::Lit r = subst.resolve(po);
    if (r == aig::kLitFalse) continue;
    if (r == aig::kLitTrue) return finish(Verdict::kNotEquivalent);
    switch (core.prove_false(r, params_.conflict_limit)) {
      case sat::Solver::Result::kUnsat:
        break;  // this PO is constant 0
      case sat::Solver::Result::kSat:
        result.cex = core.model_cex();
        return finish(Verdict::kNotEquivalent);
      case sat::Solver::Result::kUnknown:
        all_proved = false;
        break;
    }
  }
  return finish(all_proved ? Verdict::kEquivalent : Verdict::kUndecided);
}

}  // namespace simsweep::sweep
