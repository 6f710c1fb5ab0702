#include "portfolio/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "aig/cex.hpp"
#include "common/lock_ranks.hpp"
#include "common/log.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "opt/resyn.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::portfolio {

namespace {

/// First-decisive-verdict box shared by the racing engine threads. All
/// mutable state is mutex-guarded (and annotated, so Clang's
/// thread-safety analysis checks every access); the cancellation flag is
/// a separate atomic so losers observe it without taking the lock.
class VerdictBox {
 public:
  /// Publishes a verdict; only the first decisive one wins and fires the
  /// cancellation flag for the other engines.
  void deliver(Verdict v, std::optional<std::vector<bool>> cex,
               const char* who, double seconds) SIMSWEEP_EXCLUDES(m_) {
    if (v == Verdict::kUndecided) return;
    common::RankedMutexLock lock(m_, common::lock_ranks::executor);
    if (result_.verdict != Verdict::kUndecided) return;  // someone else won
    result_.verdict = v;
    result_.cex = std::move(cex);
    result_.winner = who;
    result_.seconds = seconds;
    cancel_.store(true, std::memory_order_relaxed);
  }

  /// The flag engines poll cooperatively (EngineParams::cancel et al.).
  const std::atomic<bool>* cancel_flag() const { return &cancel_; }

  /// Moves the result out. Must only be called after every engine thread
  /// joined (no concurrent deliver can be in flight).
  PortfolioResult take() SIMSWEEP_EXCLUDES(m_) {
    common::RankedMutexLock lock(m_, common::lock_ranks::executor);
    return std::move(result_);
  }

 private:
  common::Mutex m_;
  PortfolioResult result_ SIMSWEEP_GUARDED_BY(m_);
  std::atomic<bool> cancel_{false};
};

}  // namespace

/// SAT-sweeper fallback stats under `sat_sweeper.*` (gauges, set
/// semantics: one sweep per combined run at most). Namespace-scope so the
/// ckpt resume wrapper can republish after a sweep-stage resume.
void publish_sweeper_stats(obs::Registry& r, bool used,
                           const sweep::SweeperStats& s, double seconds) {
  r.set(obs::metric::kSweeperUsed, used ? 1.0 : 0.0);
  if (!used) return;
#define SIMSWEEP_PUBLISH(type, field, init, metric) \
  r.set(metric, static_cast<double>(s.field));
  SIMSWEEP_SWEEPER_COUNTERS(SIMSWEEP_PUBLISH)
#undef SIMSWEEP_PUBLISH
  r.set(obs::metric::kSweeperSeconds, seconds);
}

CombinedResult combined_check_miter(const aig::Aig& miter,
                                    const CombinedParams& params) {
  Timer total;
  CombinedResult result;

  // One registry for the whole combined run: every engine attempt and the
  // SAT fallback publish into it, so module counters accumulate across
  // attempts and the final snapshot covers the complete flow.
  obs::Registry local_registry;
  engine::EngineParams engine_params = params.engine;
  obs::Registry& registry = engine_params.registry != nullptr
                                ? *engine_params.registry
                                : local_registry;
  engine_params.registry = &registry;

  // engine.time_limit is the wall-clock budget of the WHOLE combined
  // flow: rewriting-interleaved re-runs and the SAT fallback spend what
  // is *left* of it, they do not restart the clock. (Before this fix the
  // full budget was handed to every attempt again, so a combined run
  // could take attempts+1 times its nominal limit.) 0 = unbounded.
  //
  // remaining() reports the TRUE remainder, floored at zero. It used to
  // floor at 0.05 s, which turned an exhausted budget into a 50 ms grant
  // for every interleaved-rewriting round and the SAT fallback — up to
  // max_rewrite_rounds+1 extra attempts past the deadline. A spent
  // budget now short-circuits the rewrite loop and skips the sweeper
  // (the zero-remainder timeout path) instead of dribbling slices.
  const double budget = params.engine.time_limit;
  auto remaining = [&]() -> double {
    return budget > 0 ? std::max(0.0, budget - total.seconds()) : 0.0;
  };

  // engine.attempts counts every engine entry of the combined flow (the
  // first run plus each rewriting-interleaved re-run), so budget tests
  // can pin the exact attempt count.
  registry.add(obs::metric::kEngineAttempts, 1);
  const engine::SimCecEngine eng(engine_params);
  engine::EngineResult er = eng.check_miter(miter);

  // §V item 3: rewrite the residue and re-run the engine. The rewritten
  // miter is functionally identical (opt passes are verified
  // equivalence-preserving), so any verdict on it carries over; only a
  // CEX needs no translation because the PI interface is preserved.
  for (unsigned round = 0;
       params.interleave_rewriting && round < params.max_rewrite_rounds &&
       er.verdict == Verdict::kUndecided && er.reduced.num_ands() > 0 &&
       (budget <= 0 || remaining() > 0);
       ++round) {
    aig::Aig rewritten = opt::resyn_light(er.reduced);
    SIMSWEEP_LOG_INFO("interleaved rewriting: %zu -> %zu ANDs",
                      er.reduced.num_ands(), rewritten.num_ands());
    engine::EngineParams round_params = engine_params;
    round_params.time_limit = remaining();
    registry.add(obs::metric::kEngineAttempts, 1);
    const engine::SimCecEngine round_eng(round_params);
    engine::EngineResult next = round_eng.check_miter(std::move(rewritten));
    engine::accumulate_attempt_stats(next.stats, er.stats);
    er = std::move(next);
  }
  // Republish the chain-merged stats last: each attempt set the engine.*
  // gauges from its own stats, the merged totals must win.
  engine::publish_engine_stats(registry, er.stats);

  result.engine_stats = er.stats;
  result.engine_seconds = er.stats.total_seconds;
  result.reduction_percent = er.stats.reduction_percent();
  result.verdict = er.verdict;
  result.cex = std::move(er.cex);
  if (result.verdict == Verdict::kNotEquivalent) {
    // An engine disproof is replayed on the input miter before it leaves
    // the combined flow. A constant-1 PO carries no CEX (any input
    // refutes it), so it gets the all-zero vector. Injection site
    // `engine.cex_replay` (DESIGN.md §2.4) corrupts the CEX first, so the
    // replay's failure path is exercised.
    if (!result.cex) result.cex.emplace(miter.num_pis(), false);
    if (miter.num_pis() > 0 &&
        SIMSWEEP_FAULT_POINT(fault::sites::kEngineCexReplay))
      result.cex->front().flip();
    if (aig::find_failing_po(miter, *result.cex) < 0) {
      SIMSWEEP_LOG_WARN("engine counterexample failed its replay; "
                        "returning undecided");
      registry.add(obs::metric::kEngineCexReplayFailures, 1);
      result.cex.reset();
      result.verdict = Verdict::kUndecided;
    }
  }

  if (er.verdict == Verdict::kUndecided &&
      (budget <= 0 || remaining() > 0)) {
    result.used_sat = true;
    sweep::SweeperParams sweeper_params = params.sweeper;
    // Deadline plumbing: the fallback gets the remaining combined budget
    // (clamped against any caller-set sweeper limit), not the full engine
    // budget over again. The microsecond floor only guards the instant
    // where the budget ran out between the entry check above and here —
    // time_limit 0 would mean "unbounded" to the sweeper.
    if (budget > 0) {
      const double rem = std::max(1e-6, remaining());
      sweeper_params.time_limit = sweeper_params.time_limit > 0
                                      ? std::min(sweeper_params.time_limit, rem)
                                      : rem;
    }
    result.sweeper_time_limit = sweeper_params.time_limit;
    if (params.transfer_ec && er.bank &&
        er.bank->num_pis() == er.reduced.num_pis())
      sweeper_params.initial_bank = &*er.bank;
    // The engine published its own faults.injected delta in finish();
    // the sweep phase runs after, so its injected fires (sat.solve and
    // sweep.cex_replay) are accounted here as a second delta.
    const std::uint64_t sweep_fires_before = fault::fires_total();
    Timer sat_timer;
    sweep::SweepResult sr =
        sweep::SatSweeper(sweeper_params).check_miter(er.reduced);
    result.sat_seconds = sat_timer.seconds();
    registry.add(obs::metric::kFaultsInjected,
                 fault::fires_total() - sweep_fires_before);
    result.sweeper_stats = sr.stats;
    result.verdict = sr.verdict;
    result.cex = std::move(sr.cex);
    // Note: a CEX found on the reduced miter is valid for the original
    // one — the reduction only merged proven-equivalent nodes and the PI
    // interface is preserved by rebuild().
  }
  publish_sweeper_stats(registry, result.used_sat, result.sweeper_stats,
                        result.sat_seconds);
  result.total_seconds = total.seconds();
  result.report = registry.snapshot();
  return result;
}

PortfolioResult portfolio_check_miter(const aig::Aig& miter,
                                      const PortfolioParams& params) {
  Timer total;
  VerdictBox box;
  const std::atomic<bool>* cancel = box.cancel_flag();

  // audit:exempt(portfolio engine race: each engine owns a dedicated
  // thread for its whole run; pool chunking cannot express that)
  std::vector<std::thread> threads;
  if (params.run_combined) {
    threads.emplace_back([&] {
      CombinedParams cp = params.combined;
      cp.engine.cancel = cancel;
      cp.sweeper.cancel = cancel;
      CombinedResult r = combined_check_miter(miter, cp);
      box.deliver(r.verdict, std::move(r.cex), "sim+sat", total.seconds());
    });
  }
  if (params.run_sat) {
    threads.emplace_back([&] {
      sweep::SweeperParams sp = params.sweeper;
      sp.cancel = cancel;
      sweep::SweepResult r = sweep::SatSweeper(sp).check_miter(miter);
      box.deliver(r.verdict, std::move(r.cex), "sat", total.seconds());
    });
  }
  if (params.run_bdd) {
    threads.emplace_back([&] {
      bdd::BddCecParams bp = params.bdd;
      bp.cancel = cancel;
      bdd::BddCecResult r = bdd::bdd_check_miter(miter, bp);
      box.deliver(r.verdict, std::move(r.cex), "bdd", total.seconds());
    });
  }
  for (auto& t : threads) t.join();
  PortfolioResult result = box.take();
  if (result.verdict == Verdict::kUndecided) result.seconds = total.seconds();
  return result;
}

}  // namespace simsweep::portfolio
