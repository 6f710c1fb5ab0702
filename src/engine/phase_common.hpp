#pragma once
/// \file phase_common.hpp
/// \brief Internal helpers shared by the engine's phase implementations.

#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_analysis.hpp"
#include "aig/rebuild.hpp"
#include "engine/engine.hpp"
#include "exhaustive/exhaustive_sim.hpp"
#include "fault/governor.hpp"
#include "obs/metric_names.hpp"
#include "sim/ec_manager.hpp"
#include "window/window_merge.hpp"

namespace simsweep::engine::detail {

/// Expands a sparse window-input CEX (PI variables only) into a complete
/// PI assignment; unassigned PIs default to 0, which is sound because the
/// mismatching pattern fixes only the support variables the roots can
/// depend on.
inline std::vector<bool> expand_cex(
    const aig::Aig& miter,
    const std::vector<std::pair<aig::Var, bool>>& assignment) {
  std::vector<bool> pi_values(miter.num_pis(), false);
  for (const auto& [var, value] : assignment) {
    // Window inputs of global checks are PIs: var in [1, num_pis].
    if (var >= 1 && var <= miter.num_pis()) pi_values[var - 1] = value;
  }
  return pi_values;
}

// --- Phase-side metric publishing (DESIGN.md §2.3). ctx.obs is never null
// inside a phase (check_miter installs a private registry when the caller
// provided none), and all of these run on the host thread at batch/phase
// boundaries — never inside a pool worker body.

/// Publishes one merge_windows() run under `exhaustive.merge.*` and folds
/// build failures into the degradation ladder: a failed merged build
/// already degraded (the originals passed through unmerged — see
/// window_merge.hpp), and a run with more fallbacks than the retry budget
/// drops window merging for the rest of the run.
inline void publish_merge_stats(EngineContext& ctx,
                                const window::MergeStats& ms) {
  obs::Registry& r = *ctx.obs;
  r.add(obs::metric::kMergeRuns);
  r.add(obs::metric::kMergeWindowsBefore, ms.windows_before);
  r.add(obs::metric::kMergeWindowsAfter, ms.windows_after);
  r.add(obs::metric::kMergeSimNodesBefore, ms.sim_nodes_before);
  r.add(obs::metric::kMergeSimNodesAfter, ms.sim_nodes_after);
  r.add(obs::metric::kMergeMergeGroups, ms.merge_groups);
  r.add(obs::metric::kMergeWindowsMerged, ms.windows_merged);
  r.add(obs::metric::kMergeRejectedCapacity, ms.rejected_capacity);
  r.add(obs::metric::kMergeRejectedSimilarity, ms.rejected_similarity);
  r.add(obs::metric::kMergeBuildFailures, ms.build_failures);
  if (ms.build_failures > 0) {
    auto& deg = ctx.degrade;
    deg.merge_fallbacks += ms.build_failures;
    deg.ladder_steps += ms.build_failures;
    deg.faults_recovered += ms.build_failures;
    if (deg.window_merging &&
        deg.merge_fallbacks > ctx.params.max_fault_retries) {
      deg.window_merging = false;  // stop paying for builds that keep failing
      ++deg.ladder_steps;
    }
  }
}

/// Result of run_batch_with_ladder(). `result.outcomes` is valid whenever
/// `cancelled` is false — possibly partial: abandoned items simply have no
/// outcome, which is sound (they stay unproved in the miter and flow to
/// the SAT sweeper).
struct LadderOutcome {
  exhaustive::BatchResult result;
  bool cancelled = false;
  bool deadline_expired = false;
  std::size_t items_abandoned = 0;
};

/// Runs one exhaustive batch under the degradation ladder (DESIGN.md
/// §2.4). On a recoverable failure (bad_alloc in the simulation table or
/// a memory-ledger denial) the ladder retries with backoff, persisting
/// the degraded parameters in ctx.degrade so later batches start there:
///   1. halve the working M (down to params.min_memory_words), at most
///      params.max_fault_retries times per batch; after a ledger denial
///      only while that shrinks the batch's table;
///   2. split the batch per window and run each alone (smaller tables);
///   3. abandon the remaining items to the undecided path.
/// Deadline expiry is not retried — the phase's remaining work is simply
/// not attempted. Host thread only.
inline LadderOutcome run_batch_with_ladder(EngineContext& ctx,
                                           const aig::Aig& aig,
                                           std::vector<window::Window> windows,
                                           exhaustive::Params sim,
                                           int depth = 0) {
  LadderOutcome out;
  DegradeState& deg = ctx.degrade;
  for (unsigned attempt = 0;; ++attempt) {
    sim.memory_words = deg.memory_words;
    sim.ledger = ctx.ledger;
    exhaustive::BatchResult r = exhaustive::check_batch(aig, windows, sim);
    if (r.cancelled) {
      out.cancelled = true;
      return out;
    }
    if (r.failure == exhaustive::BatchFailure::kNone) {
      out.result = std::move(r);
      return out;
    }
    if (r.failure == exhaustive::BatchFailure::kDeadline) {
      ++deg.deadline_expiries;
      out.deadline_expired = true;
      return out;
    }
    // kAlloc / kMemoryBudget. Rung 1: same batch, half the table budget.
    // A table of at most M/2 words (E capped by the truth-table length or
    // the cache clamp), or of one lane at E = 1, is the same under M/2. A
    // ledger would deny that same charge again, so a denial skips the rung
    // then; a failed allocation may still succeed on a retry.
    const bool halving_shrinks = r.table_words > deg.memory_words / 2 &&
                                 r.lanes * r.entry_words > 1;
    if ((halving_shrinks || r.failure == exhaustive::BatchFailure::kAlloc) &&
        attempt < ctx.params.max_fault_retries &&
        deg.memory_words / 2 >= ctx.params.min_memory_words) {
      deg.memory_words /= 2;
      ++deg.memory_halvings;
      ++deg.ladder_steps;
      ++deg.faults_recovered;
      continue;
    }
    // Rung 2: split the batch per window — each window's table is a
    // fraction of the batch's, so singles can fit where the batch could
    // not. One level deep only.
    if (depth == 0 && windows.size() > 1) {
      ++deg.batch_splits;
      ++deg.ladder_steps;
      ++deg.faults_recovered;
      for (window::Window& w : windows) {
        std::vector<window::Window> one;
        one.push_back(std::move(w));
        LadderOutcome sub =
            run_batch_with_ladder(ctx, aig, std::move(one), sim, 1);
        out.items_abandoned += sub.items_abandoned;
        if (sub.cancelled) {
          out.cancelled = true;
          return out;
        }
        out.result.outcomes.insert(
            out.result.outcomes.end(),
            std::make_move_iterator(sub.result.outcomes.begin()),
            std::make_move_iterator(sub.result.outcomes.end()));
        out.result.cexes.insert(
            out.result.cexes.end(),
            std::make_move_iterator(sub.result.cexes.begin()),
            std::make_move_iterator(sub.result.cexes.end()));
        out.result.rounds = std::max(out.result.rounds, sub.result.rounds);
        out.result.words_simulated += sub.result.words_simulated;
        if (sub.deadline_expired) {
          out.deadline_expired = true;
          return out;
        }
      }
      return out;
    }
    // Rung 3: abandon. The unproved items remain in the miter, so the
    // final verdict stays sound (they reach the SAT sweeper undecided).
    for (const window::Window& w : windows)
      out.items_abandoned += w.items.size();
    deg.units_abandoned += windows.size();
    ++deg.ladder_steps;
    return out;
  }
}

/// Records one miter rebuild under `miter.*` (called at every rebuild
/// site with the AND counts on both sides).
inline void note_rebuild(EngineContext& ctx, std::size_t ands_before,
                         std::size_t ands_after) {
  obs::Registry& r = *ctx.obs;
  r.add(obs::metric::kMiterRebuilds);
  r.add(obs::metric::kMiterAndsBefore, ands_before);
  r.add(obs::metric::kMiterAndsAfter, ands_after);
  if (ands_before > ands_after)
    r.add(obs::metric::kMiterAndsRemoved, ands_before - ands_after);
}

/// The current miter's cached level schedule (DESIGN.md §2.7), built on
/// first use after each rebuild and shared by partial simulation, window
/// building and the cut passes. Host thread only; the returned pointer is
/// valid until the next rebuild (apply_reduction resets the cache).
inline const aig::LevelSchedule* level_schedule(EngineContext& ctx) {
  if (!ctx.schedule || !ctx.schedule->matches(ctx.miter))
    ctx.schedule = aig::build_level_schedule(ctx.miter);
  return &*ctx.schedule;
}

/// The phase's class partition (DESIGN.md §2.7): one simulation of the
/// current miter over the whole bank and one fresh build, at phase entry.
/// Recorded under `partial_sim.*` (one full simulation) and, through the
/// manager's stats, under `ec.*` when the phase publishes them.
inline sim::EcManager build_classes(EngineContext& ctx,
                                    const aig::LevelSchedule* sched) {
  sim::EcManager ec;
  ec.build(ctx.miter, sim::simulate(ctx.miter, *ctx.bank, sched));
  ctx.obs->add(obs::metric::kPartialSimSimulateCalls);
  ctx.obs->add(obs::metric::kPartialSimPatternWords, ctx.bank->num_words());
  ctx.obs->add(obs::metric::kPartialSimFullResims);
  return ec;
}

/// A phase's deadline (DESIGN.md §2.4): a fresh phase_time_limit from
/// now, capped by the run budget. Expiry of either routes the phase's
/// remaining work to the undecided path and keeps its finished proofs.
inline fault::Deadline phase_deadline(const EngineContext& ctx) {
  return fault::Deadline::earlier(
      fault::Deadline::after(ctx.params.phase_time_limit), ctx.run_deadline);
}

/// The engine's single rebuild site: applies a substitution map to the
/// miter, drops the cached level schedule and records the reduction under
/// `miter.*`.
inline void apply_reduction(EngineContext& ctx,
                            const aig::SubstitutionMap& subst) {
  const std::size_t before_ands = ctx.miter.num_ands();
  ctx.miter = aig::rebuild(ctx.miter, subst).aig;
  ctx.schedule.reset();
  note_rebuild(ctx, before_ands, ctx.miter.num_ands());
}

/// Publishes a phase's EcManager stats under `ec.*` (each phase owns its
/// manager, so publishing its lifetime stats once at phase end never
/// double counts).
inline void publish_ec_stats(EngineContext& ctx, const sim::EcStats& s) {
  obs::Registry& r = *ctx.obs;
  r.add(obs::metric::kEcBuilds, s.builds);
  r.add(obs::metric::kEcRefines, s.refines);
  r.add(obs::metric::kEcClassesBuilt, s.classes_built);
  r.add(obs::metric::kEcClassSplits, s.class_splits);
  r.add(obs::metric::kEcClassesDissolved, s.classes_dissolved);
}

}  // namespace simsweep::engine::detail
