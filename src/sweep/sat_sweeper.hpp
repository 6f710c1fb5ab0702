#pragma once
/// \file sat_sweeper.hpp
/// \brief SAT-sweeping CEC baseline (the "ABC &cec" stand-in, DESIGN.md §2).
///
/// Classic FRAIG-style sweeping: random partial simulation initializes
/// equivalence classes; candidate pairs are checked in topological order by
/// incremental SAT queries with a conflict limit; SAT outcomes yield CEXs
/// that refine the classes, UNSAT outcomes merge the pair (recorded as a
/// substitution and reinforced with equality clauses so later queries get
/// cheaper); finally the miter POs themselves are proved or refuted by
/// SAT. The engine hands its reduced, undecided miters to this checker,
/// mirroring the paper's GPU+ABC integration.
///
/// Refuting early, as ABC does: every round runs a bounded probe of each
/// open PO beside its pair decisions, so a refutable miter does not wait
/// behind hundreds of internal proofs for its final PO query. The probe
/// works in slices of doubling conflict budgets on one solver per PO,
/// and a slice after the first starts only while the probe's propagation
/// ticks stay within a fixed multiple of the round's pair ticks. Within a
/// round, every counterexample is resimulated on the miter at once, and a
/// later pair it already separates is disproved without a SAT call.
/// Every counterexample is replayed on the miter before kNotEquivalent is
/// returned.
///
/// There is one round loop (SatSweeper::check_miter). Only the step that
/// decides a round's sorted pairs depends on SweeperParams::num_threads:
/// a long-lived sequential solver or hermetic chunks on shard loops
/// (round_scheduler.hpp). The PO probe runs beside the first's pair
/// decisions, and before and after the second's. Outcomes are applied at
/// the round barrier in pair order either way.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "sim/partial_sim.hpp"

namespace simsweep::parallel {
class ThreadPool;
}  // namespace simsweep::parallel

namespace simsweep::sweep {

struct SweeperStats;

/// Read-only view handed to SweeperParams::checkpoint_hook at every round
/// barrier of a still-running sweep (DESIGN.md §2.8). Pointers alias
/// host-thread sweeper state and are valid only for the call.
struct SweepCheckpointView {
  const aig::Aig* miter = nullptr;  ///< the residue miter being swept
  unsigned next_round = 0;          ///< first round a resume would run
  /// Merge journal: every (node, replacement literal) proved so far, in
  /// application order (lit_var(lit) < node for each entry).
  const std::vector<std::pair<aig::Var, aig::Lit>>* merges = nullptr;
  /// Nodes dropped from the candidate stream (conflict-limit kUnknown).
  const std::vector<aig::Var>* removed = nullptr;
  /// The accumulated pattern bank (EC init + every refinement CEX), from
  /// which a resume re-derives the refined equivalence classes.
  const sim::PatternBank* bank = nullptr;
  const SweeperStats* stats = nullptr;
};

/// Journal a resumed sweep replays before its first round (DESIGN.md
/// §2.8): restores the pattern bank, re-applies proved merges, drops
/// removed candidates and carries the pair counters forward. Because the
/// EC partition over the full accumulated bank equals the crashed run's
/// refined partition, the resumed candidate sequence — and therefore the
/// verdict — is identical to the uninterrupted run's.
struct SweepResumeState {
  std::vector<std::pair<aig::Var, aig::Lit>> merges;
  std::vector<aig::Var> removed;
  std::optional<sim::PatternBank> bank;
  unsigned next_round = 0;
  /// Pair counters of the crashed run (pairs_proved / disproved /
  /// undecided are carried; solver-local counters restart at zero).
  std::size_t pairs_proved = 0;
  std::size_t pairs_disproved = 0;
  std::size_t pairs_undecided = 0;
};

struct SweeperParams {
  std::size_t sim_words = 4;       ///< random pattern words for EC init
  std::uint64_t seed = 0xABCDULL;
  /// Conflict budget per SAT call (ABC's `-C`; the paper uses 100000).
  std::int64_t conflict_limit = 100000;
  unsigned max_rounds = 16;        ///< sweep/refine rounds
  std::size_t max_pattern_words = 64;
  /// Wall-clock budget in seconds; 0 = unbounded. On expiry the checker
  /// returns kUndecided (used by the portfolio).
  double time_limit = 0;
  /// Threads deciding each round's candidate pairs (DESIGN.md §2.5;
  /// round_scheduler.hpp). 1 selects the sequential scheduler: one
  /// long-lived solver, pure SAT. Values > 1 select the chunk scheduler:
  /// hermetic chunks of pairs_per_chunk pairs on that many cooperating
  /// shard loops. The round loop around either is the same.
  unsigned num_threads = 1;
  /// Candidate pairs per work chunk of the chunk scheduler. A chunk is
  /// the determinism unit: it is checked hermetically against the
  /// round-start state by a fresh solver, so its outcome is independent of
  /// which shard runs it and of the thread count.
  std::size_t pairs_per_chunk = 32;
  /// Simulation-first pair resolution (chunk scheduler only): a
  /// candidate pair whose combined structural support has at most this
  /// many PIs is resolved by exhaustively simulating both cones over
  /// that support window — a complete proof with zero SAT conflicts,
  /// and a pure function of the miter, so the determinism contract is
  /// unaffected. 0 disables. The sequential scheduler ignores this: it
  /// stays the "ABC &cec" baseline — SAT on every pair, plus the PO
  /// probes and in-round CEX resimulation that ABC's sweeper also does.
  unsigned sim_support_limit = 12;
  /// Shared executor (DESIGN.md §2.9) for the chunk scheduler and
  /// the PO probes. Null (the default) gives each sharded sweep a private
  /// pool sized num_threads-1 and runs the probes on the process-wide
  /// pool. A batch service passes ONE pool here so concurrent jobs
  /// contend for a single worker set (the pool serializes whole
  /// jobs) instead of every job spawning its own threads and
  /// oversubscribing the host. A sequential sweep holds the pool for each
  /// round while the probe runs beside the pair decisions (DESIGN.md
  /// §2.5); one that finds the pool busy probes on its calling thread.
  /// Caller keeps the pool alive for the duration of the check.
  parallel::ThreadPool* pool = nullptr;
  /// Cooperative cancellation (portfolio use): checked between SAT calls.
  /// Annotation audit: the only cross-thread cell of a sweep — written by
  /// the caller (portfolio, signal handler), read relaxed here; all other
  /// sweeper state is owned by the calling thread.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional PI pattern bank used to initialize the equivalence classes
  /// (appended to the random patterns). Feeding the engine's bank here
  /// implements the paper's §V "EC transferring from GPU to ABC": pairs
  /// the engine already disproved carry their CEX patterns, so they land
  /// in different classes and are never SAT-checked. Caller keeps the
  /// bank alive for the duration of the check.
  const sim::PatternBank* initial_bank = nullptr;

  // --- Checkpoint/resume (DESIGN.md §2.8). ---
  /// Invoked on the host thread at every round barrier while the sweep is
  /// still undecided. Exceptions are swallowed by the sweeper: a failed
  /// checkpoint must never change the verdict.
  std::function<void(const SweepCheckpointView&)> checkpoint_hook;
  /// Journal to replay before the first round (takes precedence over
  /// initial_bank for EC init when it carries a bank). Caller keeps the
  /// state alive for the duration of the check.
  const SweepResumeState* resume = nullptr;
};

/// Per-shard scheduling telemetry of one sharded sweep. Chunk/steal
/// counts and busy time depend on worker interleaving, so they are
/// telemetry only — excluded from the determinism contract below.
struct ShardStats {
  std::size_t chunks = 0;  ///< work chunks this shard claimed
  std::size_t steals = 0;  ///< claims outside the shard's home partition
  double busy_seconds = 0; ///< wall time inside the shard loop
};

/// Always-published SweeperStats rows: X(type, field, default, catalog
/// constant). Each row is the only declaration of its counter: it
/// generates the struct field and its `sat_sweeper.*` gauge in
/// portfolio::publish_sweeper_stats(). `sat_calls`, `conflicts` and
/// `pair_ticks` (propagations) count pair queries and the final PO pass;
/// the PO probes are counted apart in `probe_calls`, `probe_conflicts`
/// and `probe_ticks`, and `probe_slices` counts the probe slices run (all
/// rounds). A refuting slice counts its POs up to the refuting one, and
/// the pair work of a round that a probe refuted is left out of every
/// counter (DESIGN.md §2.5). `pairs_cex_resolved` counts the
/// disproved pairs that an earlier counterexample of the same round
/// separated (no SAT call). `solve_faults` counts solve entries failed by
/// the "sat.solve" injection site (DESIGN.md §2.4), probes included; each
/// is treated exactly like a conflict-limit kUnknown, the sweeper's
/// native sound failure mode. `cex_replay_failures` counts
/// counterexamples that failed their replay on the miter (the sweep then
/// returns kUndecided instead of kNotEquivalent).
#define SIMSWEEP_SWEEPER_COUNTERS(X)                                        \
  X(std::size_t, sat_calls, 0, obs::metric::kSweeperSatCalls)               \
  X(std::size_t, pairs_proved, 0, obs::metric::kSweeperPairsProved)         \
  X(std::size_t, pairs_disproved, 0, obs::metric::kSweeperPairsDisproved)   \
  X(std::size_t, pairs_undecided, 0, obs::metric::kSweeperPairsUndecided)   \
  X(std::uint64_t, conflicts, 0, obs::metric::kSweeperConflicts)            \
  X(std::size_t, solve_faults, 0, obs::metric::kSweeperSolveFaults)         \
  X(std::size_t, probe_calls, 0, obs::metric::kSweeperProbeCalls)           \
  X(std::uint64_t, probe_conflicts, 0, obs::metric::kSweeperProbeConflicts) \
  X(std::uint64_t, pair_ticks, 0, obs::metric::kSweeperPairTicks)           \
  X(std::uint64_t, probe_ticks, 0, obs::metric::kSweeperProbeTicks)         \
  X(std::size_t, probe_slices, 0, obs::metric::kSweeperProbeSlices)         \
  X(std::size_t, pairs_cex_resolved, 0,                                     \
    obs::metric::kSweeperPairsCexResolved)                                  \
  X(std::size_t, cex_replay_failures, 0,                                    \
    obs::metric::kSweeperCexReplayFailures)

struct SweeperStats {
#define SIMSWEEP_SWEEPER_FIELD(type, field, init, metric) type field = init;
  SIMSWEEP_SWEEPER_COUNTERS(SIMSWEEP_SWEEPER_FIELD)
#undef SIMSWEEP_SWEEPER_FIELD
  double seconds = 0;

  // --- Chunk-scheduler extras (zero / empty for the sequential one).
  //
  // Determinism contract (DESIGN.md §2.5): with the chunk scheduler,
  // every count above plus chunks and pairs_sim_resolved is a pure
  // function of the miter and the parameters other than num_threads and
  // pool — identical across thread counts and across runs, unless the
  // deadline or cancel flag cut the sweep short. On both schedulers the
  // verdict, the counterexample and every count above (the probe and
  // tick rows included) do not depend on the pool size or on how the
  // probe interleaves with the pair decisions. shards echoes
  // min(num_threads, chunks of the widest round); steals and the
  // per-shard breakdown are scheduling telemetry and may vary.
  // seconds/busy_seconds are wall time.
  std::size_t shards = 0;  ///< shard loops of the widest round
  std::size_t chunks = 0;  ///< work chunks across all rounds
  std::size_t steals = 0;  ///< cross-partition chunk claims
  /// Pairs settled by exhaustive cone simulation over their combined
  /// support window (sim_support_limit) instead of SAT.
  std::size_t pairs_sim_resolved = 0;
  /// Sharded attempts that degraded to the sequential scheduler (fault
  /// ladder; set by the sweep_miter() dispatcher).
  std::size_t parallel_fallbacks = 0;
  std::vector<ShardStats> shard;
};

struct SweepResult {
  Verdict verdict = Verdict::kUndecided;
  /// Disproving PI assignment when kNotEquivalent (from the SAT model),
  /// replayed on the miter before it is returned.
  std::optional<std::vector<bool>> cex;
  SweeperStats stats;
};

class SatSweeper {
 public:
  explicit SatSweeper(SweeperParams params = {}) : params_(params) {}

  SweepResult check(const aig::Aig& a, const aig::Aig& b) const {
    return check_miter(aig::make_miter(a, b));
  }
  SweepResult check_miter(const aig::Aig& miter) const;

  const SweeperParams& params() const { return params_; }

 private:
  SweeperParams params_;
};

}  // namespace simsweep::sweep
