#pragma once
/// \file exhaustive_sim.hpp
/// \brief Parallel exhaustive simulation (paper Alg. 1, §III-B2).
///
/// Proves or disproves a batch of equivalence checks by computing and
/// comparing the *complete* truth tables of the checked literals over
/// their windows' inputs. Memory is capped: each simulation-table entry
/// holds E = 2^e words, with E chosen on the fly as the largest power of
/// two such that the whole table fits in the configured budget (Alg. 1
/// line 2); the full 2^k-bit tables are then covered by multiple rounds,
/// round r simulating word range [rE, (r+1)E).
///
/// Execution (paper Fig. 3 on the CPU substrate): the batch is one flat
/// list of tiles, a tile being one (window, round) pair. Lanes — the
/// calling thread alone for small batches, otherwise one per executor
/// context — claim tiles in ascending (window, round) order from a single
/// atomic ticket. Each lane owns a private slice of one table, so a tile
/// runs input projection, every node in topological order and the root
/// compare with no barrier anywhere:
///  - window dimension: many small windows are one tile each, spread over
///    the lanes;
///  - word dimension: a few huge windows are thousands of tiles each, so
///    the lanes sweep disjoint word ranges of the same window; the
///    per-entry loops are 4-wide unrolled restrict-qualified kernels
///    (common/word_kernels.hpp) — on a GPU the intra-warp dimension;
///  - level-batch dimension: not used on CPU. A tile simulates a whole
///    window's level order serially; one barrier per level costs more on
///    CPU threads than the parallelism inside a level buys (DESIGN.md §8).
///
/// Outcomes and counterexamples do not depend on E, the lane count or the
/// schedule: each item keeps the lowest mismatching global bit (an atomic
/// minimum), which is exactly what a serial sweep of the rounds in order
/// reports.

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "fault/governor.hpp"
#include "window/window.hpp"

namespace simsweep::obs {
class Registry;
}  // namespace simsweep::obs

namespace simsweep::exhaustive {

struct Params {
  /// Memory budget M for the simulation table, in 64-bit words (Alg. 1
  /// input): all lanes' tables together, lanes × max window slots × E,
  /// stay within it. Default 2^22 words = 32 MiB.
  std::size_t memory_words = std::size_t{1} << 22;
  /// Soft cache-residency cap on the simulation table: the entry size E is
  /// halved (adding rounds) until all lanes' tables, lanes × max window
  /// slots × E, fit in this many words. A purely performance-motivated
  /// refinement of Alg. 1 line 2 — the round
  /// decomposition changes, outcomes never do — that keeps the table
  /// streaming from cache instead of DRAM (measured ~2.8x on large-table
  /// batches). 0 disables the clamp. Default 2^17 words = 1 MiB.
  std::size_t cache_words = std::size_t{1} << 17;
  /// Whether to extract a counter-example pattern per disproved item.
  bool collect_cex = true;
  /// Cap on collected CEXs per batch (one per item at most).
  std::size_t max_cex = 256;
  /// Cooperative cancellation: every lane checks it before every tile, so
  /// even a single huge window cancels promptly. When it fires the batch
  /// returns with `cancelled` set and its outcomes MUST be ignored.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional metrics sink. When set, check_batch publishes its batch
  /// telemetry under `exhaustive.*` with one relaxed atomic add per metric
  /// at batch end — the hot loops accumulate into locals either way, so a
  /// null sink costs nothing (DESIGN.md §2.3).
  obs::Registry* obs = nullptr;
  /// Optional process-level memory governor (DESIGN.md §2.4): the big
  /// simulation-table allocation (every lane's table, one lease) is
  /// charged against it before it happens, and a denied charge returns
  /// BatchFailure::kMemoryBudget instead of allocating past the process
  /// budget.
  fault::MemoryLedger* ledger = nullptr;
  /// Optional phase deadline: checked where cancellation is checked;
  /// expiry returns BatchFailure::kDeadline.
  const fault::Deadline* deadline = nullptr;
};

enum class ItemStatus : std::uint8_t {
  kProved,    ///< truth tables identical over every round
  kDisproved  ///< a mismatching pattern exists (for local checking this
              ///< means *inconclusive*, see paper §III-C1)
};

/// A disproving input pattern, as window-input assignments.
struct Cex {
  std::uint32_t tag = 0;
  std::vector<std::pair<aig::Var, bool>> assignment;
};

/// Why a batch produced no outcomes (DESIGN.md §2.4). Every value except
/// kNone is recoverable: the caller's degradation ladder shrinks the
/// batch (halve M, split windows) and retries, or routes the items to the
/// sound undecided path.
enum class BatchFailure : std::uint8_t {
  kNone,          ///< batch completed; outcomes are valid
  kAlloc,         ///< simulation-table allocation threw bad_alloc
  kMemoryBudget,  ///< the memory ledger denied the table charge
  kDeadline,      ///< the phase deadline expired mid-batch
};

struct BatchResult {
  /// (tag, status) for every item of every window in the batch.
  std::vector<std::pair<std::uint32_t, ItemStatus>> outcomes;
  std::vector<Cex> cexes;
  /// Telemetry for the benches. `rounds`, `tiles` and `words_simulated`
  /// count executed work: exact for windows whose items are all proved
  /// (every tile runs); for windows with an early disproof they may vary
  /// with the schedule, because a lane skips a tile only once every item
  /// of its window already mismatched below it.
  std::size_t entry_words = 0;      ///< chosen E
  std::size_t lanes = 0;            ///< lanes the tiles were spread over
  /// Words of the lanes' tables (lanes × max slots × E): what the batch
  /// charges its memory ledger, also when that charge was denied.
  std::size_t table_words = 0;
  std::size_t rounds = 0;           ///< highest executed round + 1
  std::size_t tiles = 0;            ///< executed (window, round) tiles
  std::size_t words_simulated = 0;  ///< Σ node-words computed
  /// True iff params.cancel fired mid-batch; outcomes are then invalid.
  bool cancelled = false;
  /// Set when the batch failed recoverably; outcomes are then invalid
  /// (empty) and the caller decides between retry and undecided.
  BatchFailure failure = BatchFailure::kNone;
};

/// Checks every item of every window by exhaustive simulation. Windows
/// must have been produced by build_window() on this AIG.
BatchResult check_batch(const aig::Aig& aig,
                        const std::vector<window::Window>& windows,
                        const Params& params = {});

/// Convenience wrapper: single pair, global function checking over the
/// union of supports. Returns nullopt if `inputs` is not a valid cut.
struct PairCheck {
  ItemStatus status = ItemStatus::kProved;
  std::vector<std::pair<aig::Var, bool>> cex;  ///< set iff disproved
};
std::optional<PairCheck> check_pair(const aig::Aig& aig, aig::Lit a,
                                    aig::Lit b,
                                    const std::vector<aig::Var>& inputs,
                                    const Params& params = {});

}  // namespace simsweep::exhaustive
