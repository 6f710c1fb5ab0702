#pragma once
/// \file portfolio.hpp
/// \brief Combined and portfolio equivalence checkers.
///
/// CombinedChecker reproduces the paper's "Ours (GPU+ABC)" flow: run the
/// simulation-based engine first; if the miter is reduced but undecided,
/// hand the residue to the SAT sweeper (paper §IV, Table II columns
/// "GPU (s)" / "ABC (s)" / "Total (s)"). With the default EngineParams
/// the engine runs P and one G phase, so the sweeper proves what L phases
/// would; engine::full_flow(params) gives the paper's whole Fig. 5 flow,
/// as the reproduction tables use. Every kNotEquivalent it returns
/// carries a counterexample that replays on the input miter.
///
/// portfolio_check is the stand-in for the commercial multi-engine tool
/// (Conformal LEC): it races the combined checker against a standalone
/// SAT sweeper on separate threads and returns the first decisive
/// verdict, cancelling the loser — the multithreading conjecture the
/// paper makes about commercial checkers (§IV-A).

#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "engine/engine.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::portfolio {

// ---------------------------------------------------------------------------
// Combined checker (paper's "GPU+ABC").
// ---------------------------------------------------------------------------

struct CombinedParams {
  engine::EngineParams engine;
  sweep::SweeperParams sweeper;
  /// §V EC-transfer extension: hand the engine's pattern bank (random +
  /// CEX patterns) to the SAT sweeper so disproved pairs are not
  /// re-checked by SAT.
  bool transfer_ec = true;
  /// §V item 3 (after [Mishchenko et al. ICCAD'06]): interleave sweeping
  /// with logic rewriting — when the engine leaves an undecided residue,
  /// rewrite the reduced miter and run the engine once more before
  /// falling back to SAT. Restructuring changes the cuts the local
  /// checking phases see, giving blocked pairs a fresh chance.
  bool interleave_rewriting = false;
  unsigned max_rewrite_rounds = 1;
};

struct CombinedResult {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  /// Stats merged over ALL engine attempts (the rewriting-interleaved loop
  /// may run the engine several times): per-phase seconds and pair/CEX
  /// counters accumulate, initial_ands/pos_total keep the first attempt's
  /// view, final_ands the last one's.
  engine::EngineStats engine_stats;
  sweep::SweeperStats sweeper_stats;
  double engine_seconds = 0;  ///< "GPU (s)" column analogue
  double sat_seconds = 0;     ///< "ABC (s)" column analogue
  /// Effective wall-clock limit handed to the SAT-sweeper fallback: the
  /// caller's sweeper.time_limit clamped to the combined budget that
  /// remained after the engine attempts (engine.time_limit is the budget
  /// for the WHOLE combined flow, not per attempt). 0 when unbounded or
  /// when the sweeper was never entered.
  double sweeper_time_limit = 0;
  double total_seconds = 0;
  double reduction_percent = 0;  ///< "Reduced (%)" column analogue
  bool used_sat = false;  ///< engine left an undecided residue
  /// Full metric snapshot of the run (engine attempts share one registry;
  /// SAT-sweeper fallback stats are published under `sat_sweeper.*`).
  /// Serialize with obs::to_json().
  obs::Snapshot report;
};

CombinedResult combined_check_miter(const aig::Aig& miter,
                                    const CombinedParams& params = {});

/// Publishes the SAT-sweeper fallback stats as `sat_sweeper.*` gauges
/// (set semantics: at most one sweep per combined run). Exposed for the
/// ckpt resume wrapper, which runs the sweeper directly — without
/// re-entering the engine — when resuming a sweep-stage snapshot.
void publish_sweeper_stats(obs::Registry& registry, bool used,
                           const sweep::SweeperStats& stats, double seconds);

inline CombinedResult combined_check(const aig::Aig& a, const aig::Aig& b,
                                     const CombinedParams& params = {}) {
  return combined_check_miter(aig::make_miter(a, b), params);
}

// ---------------------------------------------------------------------------
// Portfolio checker (commercial multi-engine stand-in).
// ---------------------------------------------------------------------------

struct PortfolioResult {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  std::string winner;  ///< "sim+sat", "sat", or "" if both arms came
                       ///< back undecided
  double seconds = 0;
};

/// Races two arms on the same `params`: the combined flow, and
/// `params.sweeper` alone on the whole miter. The SAT arm sweeps on a
/// pool of its own, so the combined arm's engine launches on the
/// caller's pool never queue behind the SAT arm's sweep rounds. The
/// first decisive verdict cancels the other arm (the race's own flag
/// replaces any cancel flag set in `params`).
PortfolioResult portfolio_check_miter(const aig::Aig& miter,
                                      const CombinedParams& params = {});

inline PortfolioResult portfolio_check(const aig::Aig& a, const aig::Aig& b,
                                       const CombinedParams& params = {}) {
  return portfolio_check_miter(aig::make_miter(a, b), params);
}

}  // namespace simsweep::portfolio
