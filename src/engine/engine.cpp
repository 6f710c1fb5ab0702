#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "parallel/thread_pool.hpp"

namespace simsweep::engine {

namespace {

/// Folds one field of the previous attempt into `next`; kLatest keeps
/// `next`'s own value.
template <typename T>
void fold(T& next, const T& prev, StatFold policy) {
  if (policy == StatFold::kSum) next += prev;
  if (policy == StatFold::kFirst) next = prev;
}

}  // namespace

/// Engine-level gauges, published with set semantics: when a chain of
/// attempts shares one registry the caller republishes its merged stats
/// last, so the final snapshot shows chain totals.
void publish_engine_stats(obs::Registry& r, const EngineStats& s) {
#define SIMSWEEP_PUBLISH(type, field, init, metric, policy) \
  r.set(metric, static_cast<double>(s.field));
  SIMSWEEP_ENGINE_STATS(SIMSWEEP_PUBLISH)
#undef SIMSWEEP_PUBLISH
  r.set(obs::metric::kEngineReductionPercent, s.reduction_percent());
}

void publish_degrade_stats(obs::Registry& r, const DegradeState& d) {
  const auto publish = [&r](const char* metric, std::uint64_t value) {
    if (metric != nullptr) r.add(metric, value);
  };
#define SIMSWEEP_PUBLISH(type, field, init, metric) publish(metric, d.field);
  SIMSWEEP_DEGRADE_STATE(SIMSWEEP_PUBLISH)
#undef SIMSWEEP_PUBLISH
}

void accumulate_attempt_stats(EngineStats& next, const EngineStats& prev) {
#define SIMSWEEP_FOLD(type, field, init, metric, policy) \
  fold(next.field, prev.field, StatFold::policy);
  SIMSWEEP_ENGINE_STATS(SIMSWEEP_FOLD)
#undef SIMSWEEP_FOLD
}

EngineResult SimCecEngine::check_miter(aig::Aig miter) const {
  Timer total;

  detail::EngineContext ctx{params_, std::move(miter), {}, {}, {},
                            false,   {},               params_.local_passes};
  ctx.stats.initial_ands = ctx.miter.num_ands();
  ctx.stats.pos_total = ctx.miter.num_pos();
  // Run budget (DESIGN.md §2.4): one deadline that caps every phase's.
  ctx.run_deadline = fault::Deadline::after(params_.time_limit);

  // Resource governor (DESIGN.md §2.4): the ladder's working parameters
  // start from the configured ones, and the memory ledger is either the
  // caller's (portfolio-shared budget) or a run-private one.
  ctx.degrade.memory_words = params_.memory_words;
  ctx.degrade.window_merging = params_.window_merging;
  std::optional<fault::MemoryLedger> local_ledger;
  if (params_.memory_ledger != nullptr)
    ctx.ledger = params_.memory_ledger;
  else if (params_.memory_budget_bytes > 0)
    ctx.ledger = &local_ledger.emplace(params_.memory_budget_bytes);
  // Fault-injection telemetry baseline: finish() publishes the delta of
  // process-wide injected fires over this run as `faults.injected`.
  const std::uint64_t fault_fires_before = fault::fires_total();
  const auto site_fires_before = fault::active_fire_counts();

  // Metrics sink: the caller's registry when provided (shared across
  // attempts), else a private one so result.report is always populated.
  obs::Registry local_registry;
  obs::Registry& registry =
      params_.registry != nullptr ? *params_.registry : local_registry;
  ctx.obs = &registry;

  EngineResult result;
  auto finish = [&](Verdict verdict) {
    ctx.stats.final_ands = ctx.miter.num_ands();
    ctx.stats.total_seconds = total.seconds();
    // Everything outside the three phase timers: simulation init, EC
    // building, rebuilds. Clamped at 0 against timer skew.
    ctx.stats.other_seconds = std::max(
        0.0, ctx.stats.total_seconds -
                 (ctx.stats.po_seconds + ctx.stats.global_seconds +
                  ctx.stats.local_seconds));
    publish_engine_stats(registry, ctx.stats);
    parallel::ThreadPool::global().publish(registry);
    // Fault & degradation sections (DESIGN.md §2.4). Published even when
    // all-zero so every report carries both sections; counter add
    // semantics accumulate across shared-registry attempt chains.
    registry.add(obs::metric::kFaultsInjected,
                 fault::fires_total() - fault_fires_before);
    for (const auto& [site, fires] : fault::active_fire_counts()) {
      std::uint64_t before = 0;
      for (const auto& [s0, f0] : site_fires_before)
        if (s0 == site) before = f0;
      if (fires > before)
        registry.add(obs::metric::kFaultsSitePrefix + site, fires - before);
    }
    publish_degrade_stats(registry, ctx.degrade);
    // Partial-simulation section (DESIGN.md §2.7), zero-added like the
    // sections around it so every report carries both rows; the G and L
    // phases add the real counts.
    registry.add(obs::metric::kPartialSimIncrementalWords, 0);
    registry.add(obs::metric::kPartialSimFullResims, 0);
    // Checkpoint/supervisor sections (DESIGN.md §2.8). Zero-added like
    // the faults/degrade sections above so every v3 report carries both
    // families; the ckpt layer and the cec_tool supervisor add the real
    // event counts.
    registry.add(obs::metric::kCkptWrites, 0);
    registry.add(obs::metric::kSupervisorRestarts, 0);
    if (ctx.ledger != nullptr) {
      registry.set(obs::metric::kDegradeMemoryPeakBytes,
                   static_cast<double>(ctx.ledger->peak_bytes()));
      registry.set(obs::metric::kDegradeMemoryDenials,
                   static_cast<double>(ctx.ledger->denials()));
    }
    result.report = registry.snapshot();
    result.verdict = verdict;
    result.reduced = std::move(ctx.miter);
    result.cex = std::move(ctx.cex);
    result.stats = ctx.stats;
    result.snapshots = std::move(ctx.snapshots);
    result.bank = std::move(ctx.bank);
    return result;
  };

  // A structurally solved (or refuted) miter needs no phases at all.
  if (aig::miter_disproved(ctx.miter)) return finish(Verdict::kNotEquivalent);
  if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);

  // Phase-boundary stop check: the caller's cancel flag or the run budget.
  auto cancelled = [&] {
    return (params_.cancel != nullptr &&
            params_.cancel->load(std::memory_order_relaxed)) ||
           ctx.run_deadline.expired();
  };
  if (cancelled()) return finish(Verdict::kUndecided);

  // Phase-boundary checkpoint offer (DESIGN.md §2.8): a transient view of
  // the host-thread state, handed to the caller's hook. Any exception the
  // hook lets escape is swallowed — checkpointing is strictly best-effort
  // and must never change the verdict.
  auto offer_checkpoint = [&](const char* boundary) {
    if (!params_.checkpoint_hook) return;
    EngineCheckpointView view;
    view.miter = &ctx.miter;
    view.bank = ctx.bank ? &*ctx.bank : nullptr;
    view.stats = &ctx.stats;
    view.degrade = &ctx.degrade;
    view.boundary = boundary;
    try {
      params_.checkpoint_hook(view);
    } catch (...) {
    }
  };

  // --- P phase: PO checking (paper §III-D). ---
  if (params_.enable_po_phase) {
    const bool ok = detail::run_po_phase(ctx);
    if (params_.capture_snapshots) ctx.snapshots.emplace_back("P", ctx.miter);
    if (!ok) return finish(Verdict::kNotEquivalent);
    if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
  } else if (params_.capture_snapshots) {
    ctx.snapshots.emplace_back("P", ctx.miter);
  }
  offer_checkpoint("P");

  if (cancelled()) return finish(Verdict::kUndecided);

  // --- G phase: global function checking. ---
  if (params_.enable_global_phase)
    detail::run_global_phase(ctx, params_.k_g);
  if (params_.capture_snapshots) ctx.snapshots.emplace_back("PG", ctx.miter);
  if (params_.enable_global_phase) {
    if (ctx.disproved || aig::miter_disproved(ctx.miter))
      return finish(Verdict::kNotEquivalent);
    if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
  }
  offer_checkpoint("G");

  if (cancelled()) return finish(Verdict::kUndecided);

  // --- Repeated L phases, with graduated global-checking escalation. ---
  unsigned k_g_current = params_.k_g;
  for (;;) {
    bool progress = false;
    for (unsigned phase = 0; phase < params_.max_local_phases; ++phase) {
      if (cancelled()) return finish(Verdict::kUndecided);
      const bool reduced = detail::run_local_phase(ctx);
      ++ctx.stats.local_phases;
      if (ctx.disproved || aig::miter_disproved(ctx.miter))
        return finish(Verdict::kNotEquivalent);
      if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
      offer_checkpoint("L");
      progress |= reduced;
      if (!reduced) break;  // this L loop stalled
    }
    if (cancelled()) return finish(Verdict::kUndecided);
    // Escalation: raise the G threshold and retry globally. Note the loop
    // keeps iterating as long as *something* (L reduction, escalated G
    // proof) makes progress; it terminates because the AND count strictly
    // decreases on progress and the threshold is capped at k_P.
    const bool can_escalate = params_.escalate_global &&
                              params_.enable_global_phase &&
                              k_g_current < params_.k_P;
    if (can_escalate) {
      k_g_current = std::min(k_g_current + params_.k_g_step, params_.k_P);
      SIMSWEEP_LOG_INFO("escalating global checking to k_g=%u",
                        k_g_current);
      const std::size_t proved =
          detail::run_global_phase(ctx, k_g_current);
      if (ctx.disproved || aig::miter_disproved(ctx.miter))
        return finish(Verdict::kNotEquivalent);
      if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
      offer_checkpoint("G+");
      progress |= proved > 0;
    }
    if (!progress && !can_escalate) break;  // fully stalled
  }
  SIMSWEEP_LOG_INFO("engine undecided: %zu AND nodes remain",
                    ctx.miter.num_ands());
  return finish(Verdict::kUndecided);
}

}  // namespace simsweep::engine
