#pragma once
/// \file round_scheduler.hpp
/// \brief The one step of a residue-sweep round that depends on the
/// thread count: deciding the round's sorted candidate pairs (DESIGN.md
/// §2.5). Internal to sweep/.
///
/// SatSweeper::check_miter owns the round loop: EC init and resume
/// replay, the barrier that applies outcomes in pair order, refinement,
/// the checkpoint offer and the final PO proof. A scheduler only decides
/// pairs, and nothing it does within a round reads the loop's EC marks
/// or substitution map — the loop changes them only at the barrier.
/// SweeperParams::num_threads picks one of two schedulers:
///
///  - sequential (num_threads <= 1): ONE long-lived PairSolver without a
///    substitution map — cones are encoded verbatim and every proof is
///    reinforced with equality clauses at once, so later pairs of the
///    same round profit from it. Pure SAT: the "ABC &cec" baseline.
///  - chunked (num_threads > 1): the round's pairs are cut into fixed
///    chunks of SweeperParams::pairs_per_chunk, claimed off an atomic
///    ticket by min(num_threads, chunks) shard loops on the executor
///    (a private pool, or SweeperParams::pool). Each chunk is hermetic: a
///    fresh PairSolver over a private copy of the round-start
///    substitution map, with simulation-first resolution of small-support
///    pairs. A chunk's outcomes are a pure function of (miter, round-start
///    state, chunk pairs), so verdict and counters do not depend on the
///    thread count or the interleaving.
///
/// Both resimulate their counterexamples as they go (CexWord): a pair
/// that a CEX found earlier in the same round (sequential) or chunk
/// (chunked) already separates is disproved without a SAT call.
///
/// The round's PO probe paces itself by the pair ticks a scheduler
/// publishes into its RoundLink, and raises the link's abandon flag once
/// it refutes the miter. The sequential scheduler decides beside the
/// probe and stops at that flag; the chunk scheduler decides between
/// probe slices and only publishes its ticks.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "aig/aig.hpp"
#include "aig/rebuild.hpp"
#include "sim/ec_manager.hpp"
#include "sweep/pair_solver.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::sweep {

/// Outcome of one candidate pair. A pair the scheduler never attempted
/// (deadline, cancellation, an inconsistent solver, a failed chunk) stays
/// kSkipped: the barrier neither counts nor journals it.
struct PairOutcome {
  enum class Kind : std::uint8_t { kSkipped, kEqual, kDistinct, kUnknown };
  Kind kind = Kind::kSkipped;
  bool via_sim = false;   ///< resolved by exhaustive cone simulation
  /// kDistinct by an earlier CEX of the same round; `cex` stays empty
  /// because that CEX already reaches the barrier with its own pair.
  bool via_cex = false;
  std::vector<bool> cex;  ///< disproving PI assignment, for kDistinct
};

/// In-round counterexample resimulation: up to 64 counterexamples, one
/// bit each of a word per PI, simulated over the whole miter. The word
/// is resimulated lazily, at the first query after a CEX arrived, and
/// the node values are only allocated once a CEX arrives; the 65th CEX
/// starts a fresh word. Single-threaded (one per scheduler round or
/// chunk).
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
/// matter. When no worker can run the probe, the sequential scheduler
/// calls `between_pairs` after every pair, so the slices the ticks open
/// run on the deciding thread, interleaved with the pairs.
struct RoundLink {
  std::atomic<std::uint64_t> pair_ticks{0};
  std::atomic<bool> pairs_done{false};
  std::atomic<bool> abandon{false};
  std::function<void()> between_pairs;
};

class RoundScheduler {
 public:
  RoundScheduler() = default;
  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;
  virtual ~RoundScheduler() = default;

  /// Re-asserts a merge restored from a resume journal (called before
  /// the merge enters the loop's substitution map).
  virtual void replay_merge(aig::Lit repr, aig::Lit node) = 0;

  /// Decides `pairs` (sorted by node id) against the round-start state,
  /// publishing the round's pair ticks into `link` as it goes. Returns one
  /// outcome per pair, in pair order.
  virtual std::vector<PairOutcome> decide(
      const std::vector<sim::CandidatePair>& pairs, RoundLink& link) = 0;

  /// The solver of the final PO pass, after the last round, when the
  /// loop's substitution map holds every merge.
  virtual PairSolver& po_core() = 0;

  /// Writes the solver work spent so far (sat_calls, conflicts,
  /// pair_ticks, solve_faults) into `stats`.
  virtual void count_solver_work(SweeperStats& stats) const = 0;
};

/// `subst` is the loop's substitution map: chunks copy it at round start
/// and the PO core is attached to it. Shard telemetry (shards, chunks,
/// steals, the per-shard breakdown) is written to `stats`. Throws
/// std::bad_alloc when the `sweep.shard_alloc` fault site fires.
std::unique_ptr<RoundScheduler> make_chunk_scheduler(
    const aig::Aig& miter, const SweeperParams& params,
    const aig::SubstitutionMap& subst, SweeperStats& stats,
    std::function<bool()> out_of_time);

}  // namespace simsweep::sweep
