#include "sweep/parallel_sweeper.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <new>
#include <optional>

#include "aig/aig_analysis.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "sweep/round_scheduler.hpp"

namespace simsweep::sweep {

namespace {

/// Per-chunk solver accounting (single writer: the claiming shard).
struct ChunkStats {
  std::uint64_t conflicts = 0;
  std::uint64_t ticks = 0;
  std::size_t sat_calls = 0;
  std::size_t solve_faults = 0;
};

/// The chunk scheduler (round_scheduler.hpp): hermetic chunks of
/// pairs_per_chunk pairs, claimed by min(num_threads, chunks) shard loops.
class ChunkScheduler final : public RoundScheduler {
 public:
  ChunkScheduler(const aig::Aig& miter, const SweeperParams& params,
                 const aig::SubstitutionMap& subst, SweeperStats& stats,
                 std::function<bool()> out_of_time)
      : miter_(miter),
        params_(params),
        subst_(subst),
        stats_(stats),
        out_of_time_(std::move(out_of_time)),
        chunk_size_(std::max<std::size_t>(1, params.pairs_per_chunk)) {
    // A private pool by default: the global pool serializes whole jobs,
    // so parking a long sweep launch there would starve concurrent
    // clients (the racing portfolio engines). num_threads counts the
    // calling thread. A caller-injected pool (the batch service's shared
    // executor, DESIGN.md §2.9) takes precedence so concurrent jobs share
    // one worker set instead of oversubscribing the host.
    if (params.pool == nullptr) private_pool_.emplace(params.num_threads - 1);
    pool_ = params.pool != nullptr ? params.pool : &*private_pool_;
    // Structural supports for simulation-first pair resolution, computed
    // once on the host: the sets are read-only to every shard.
    if (params.sim_support_limit > 0)
      supports_ = aig::compute_supports(miter, params.sim_support_limit);
  }

  void replay_merge(aig::Lit, aig::Lit) override {
    // Chunk solvers copy the loop's substitution map at round start, so
    // a restored merge reaches them through the map alone.
  }

  std::vector<PairOutcome> decide(const std::vector<sim::CandidatePair>& pairs,
                                  RoundLink& link) override;

  PairSolver& po_core() override {
    // A fresh core attached to the loop's map: every PO cone is encoded
    // fully collapsed through all merges.
    po_core_.emplace(miter_, &subst_);
    po_core_->set_interrupt(out_of_time_);
    return *po_core_;
  }

  void count_solver_work(SweeperStats& stats) const override {
    stats.sat_calls = work_.sat_calls;
    stats.conflicts = work_.conflicts;
    stats.pair_ticks = work_.ticks;
    stats.solve_faults = work_.solve_faults;
    if (po_core_) {
      stats.sat_calls += po_core_->sat_calls();
      stats.conflicts += po_core_->conflicts();
      stats.pair_ticks += po_core_->ticks();
      stats.solve_faults += po_core_->solve_faults();
    }
  }

 private:
  void process_chunk(const std::vector<sim::CandidatePair>& pairs,
                     std::size_t first, std::size_t last,
                     std::vector<PairOutcome>& outcomes, ChunkStats& cs) const;

  const aig::Aig& miter_;
  const SweeperParams& params_;
  const aig::SubstitutionMap& subst_;
  SweeperStats& stats_;
  const std::function<bool()> out_of_time_;
  const std::size_t chunk_size_;
  std::optional<parallel::ThreadPool> private_pool_;
  parallel::ThreadPool* pool_ = nullptr;
  std::optional<aig::SupportInfo> supports_;
  ChunkStats work_;  ///< solver work of every chunk decided so far
  std::optional<PairSolver> po_core_;
};

// Hermetic chunk processing: a fresh solver over a private copy of the
// round-start substitution map, and a CEX word holding the chunk's own
// counterexamples. The chunk's outcomes are a pure function of (miter,
// round-start state, chunk pairs) — identical no matter which shard runs
// it.
void ChunkScheduler::process_chunk(const std::vector<sim::CandidatePair>& pairs,
                                   std::size_t first, std::size_t last,
                                   std::vector<PairOutcome>& outcomes,
                                   ChunkStats& cs) const {
  try {
    aig::SubstitutionMap local = subst_;
    PairSolver ps(miter_, &local);
    ps.set_interrupt(out_of_time_);
    CexWord cexes(miter_);
    for (std::size_t p = first; p < last; ++p) {
      if (out_of_time_()) break;  // remaining pairs stay kSkipped
      const sim::CandidatePair& pair = pairs[p];
      const aig::Lit lr = aig::make_lit(pair.repr, pair.phase);
      const aig::Lit ln = aig::make_lit(pair.node);
      PairOutcome& out = outcomes[p];
      if (cexes.separates(pair)) {
        out.kind = PairOutcome::Kind::kDistinct;
        out.via_cex = true;
        continue;
      }
      // Simulation-first resolution (paper §I): when the pair's combined
      // structural support fits in a word-packed window, exhaustively
      // simulating both cones over it is a *complete* proof — no SAT
      // call, no conflicts, and the outcome is a pure function of the
      // miter. Hard wide-support pairs still go to the solver below.
      if (supports_ && supports_->small(pair.repr) &&
          supports_->small(pair.node)) {
        const std::vector<aig::Var> window = aig::sorted_union(
            supports_->sets[pair.repr], supports_->sets[pair.node]);
        if (window.size() <= params_.sim_support_limit) {
          const tt::TruthTable tr = aig::cone_truth_table(miter_, lr, window);
          const tt::TruthTable tn = aig::cone_truth_table(miter_, ln, window);
          out.via_sim = true;
          if (tr == tn) {
            out.kind = PairOutcome::Kind::kEqual;
            local.merge(pair.node, lr);
          } else {
            // First differing minterm, expanded to a full-width CEX:
            // window PI k takes bit k of the minterm index, every PI
            // outside the window is a don't-care held at 0.
            const tt::TruthTable diff = tr ^ tn;
            std::uint64_t idx = 0;
            for (std::size_t w = 0; w < diff.words().size(); ++w) {
              if (diff.words()[w] == 0) continue;
              idx = w * 64 +
                    static_cast<unsigned>(std::countr_zero(diff.words()[w]));
              break;
            }
            out.kind = PairOutcome::Kind::kDistinct;
            out.cex.assign(miter_.num_pis(), false);
            for (std::size_t k = 0; k < window.size(); ++k)
              out.cex[window[k] - 1] = (idx >> k) & 1;
            cexes.add(out.cex);
          }
          continue;
        }
      }
      switch (ps.check_pair(lr, ln, params_.conflict_limit)) {
        case PairSolver::Outcome::kEqual:
          out.kind = PairOutcome::Kind::kEqual;
          ps.assert_equal(lr, ln);
          local.merge(pair.node, lr);  // later cones collapse through it
          break;
        case PairSolver::Outcome::kDistinct:
          out.kind = PairOutcome::Kind::kDistinct;
          out.cex = ps.model_cex();
          cexes.add(out.cex);
          break;
        case PairSolver::Outcome::kUnknown:
          out.kind = PairOutcome::Kind::kUnknown;
          break;
      }
      if (ps.inconsistent()) break;
    }
    cs.conflicts = ps.conflicts();
    cs.ticks = ps.ticks();
    cs.sat_calls = ps.sat_calls();
    cs.solve_faults = ps.solve_faults();
  } catch (...) {
    // A worker failure must not unwind across the pool: the chunk's
    // remaining pairs stay unattempted and the sweep continues.
  }
}

std::vector<PairOutcome> ChunkScheduler::decide(
    const std::vector<sim::CandidatePair>& pairs, RoundLink& link) {
  const std::size_t num_chunks = (pairs.size() + chunk_size_ - 1) / chunk_size_;
  const std::size_t num_shards =
      std::min<std::size_t>(params_.num_threads, num_chunks);
  // stats.shard covers the shards that actually ran, never num_threads
  // up front: a run whose rounds have fewer chunks than threads must not
  // publish all-zero rows for shards that never existed.
  if (stats_.shard.size() < num_shards) stats_.shard.resize(num_shards);
  std::vector<PairOutcome> outcomes(pairs.size());
  std::vector<ChunkStats> chunk_stats(num_chunks);
  std::atomic<std::size_t> ticket{0};

  // The shard loops: one lane each, chunks claimed off a shared ticket
  // cursor. A shard's "home" chunks are those congruent to its id;
  // claiming any other chunk is work stealing (the fast shards drain the
  // slow shards' partitions).
  pool_->run_lanes(num_shards, [&](std::size_t s) {
    Timer shard_t;
    ShardStats local;
    for (;;) {
      if (out_of_time_()) break;
      const std::size_t c = ticket.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      ++local.chunks;
      if (c % num_shards != s) ++local.steals;
      process_chunk(pairs, c * chunk_size_,
                    std::min((c + 1) * chunk_size_, pairs.size()), outcomes,
                    chunk_stats[c]);
    }
    ShardStats& acc = stats_.shard[s];  // single writer: shard s
    acc.chunks += local.chunks;
    acc.steals += local.steals;
    acc.busy_seconds += shard_t.seconds();
  });

  // The probe slices run between rounds here (the shards may share the
  // probe's pool), so the round's ticks are published once, complete.
  std::uint64_t round_ticks = 0;
  for (const ChunkStats& cs : chunk_stats) {
    round_ticks += cs.ticks;
    work_.conflicts += cs.conflicts;
    work_.sat_calls += cs.sat_calls;
    work_.solve_faults += cs.solve_faults;
  }
  work_.ticks += round_ticks;
  link.pair_ticks.store(round_ticks, std::memory_order_relaxed);
  stats_.chunks += num_chunks;
  stats_.shards = std::max(stats_.shards, num_shards);
  SIMSWEEP_LOG_INFO("sweep round: %zu chunks on %zu shards", num_chunks,
                    num_shards);
  return outcomes;
}

}  // namespace

std::unique_ptr<RoundScheduler> make_chunk_scheduler(
    const aig::Aig& miter, const SweeperParams& params,
    const aig::SubstitutionMap& subst, SweeperStats& stats,
    std::function<bool()> out_of_time) {
  // Injection site `sweep.shard_alloc` (DESIGN.md §2.4): the shard-state
  // allocation (private pool, support sets, per-chunk tables) is the
  // sharded path's first commitment of memory; under pressure it fails
  // here, before any thread is spawned, and sweep_miter() degrades to
  // the sequential scheduler.
  if (SIMSWEEP_FAULT_POINT(fault::sites::kSweepShardAlloc))
    throw std::bad_alloc{};
  return std::make_unique<ChunkScheduler>(miter, params, subst, stats,
                                          std::move(out_of_time));
}

SweepResult sweep_miter(const aig::Aig& miter, const SweeperParams& params) {
  if (params.num_threads <= 1) return SatSweeper(params).check_miter(miter);
  try {
    return SatSweeper(params).check_miter(miter);
  } catch (const std::bad_alloc&) {
    SIMSWEEP_LOG_WARN("sharded sweep failed (bad_alloc); degrading to the "
                      "sequential scheduler");
  } catch (const fault::FaultError& e) {
    SIMSWEEP_LOG_WARN("sharded sweep failed (%s); degrading to the "
                      "sequential scheduler",
                      e.what());
  }
  SweeperParams sequential = params;
  sequential.num_threads = 1;
  SweepResult r = SatSweeper(sequential).check_miter(miter);
  r.stats.parallel_fallbacks = 1;
  return r;
}

}  // namespace simsweep::sweep
