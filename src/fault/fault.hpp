#pragma once
/// \file fault.hpp
/// \brief Deterministic fault injection for robustness testing
/// (DESIGN.md §2.4).
///
/// The sweeping engine is memory- and time-capped by construction (Alg. 1
/// splits exhaustive simulation into rounds so truth tables fit a budget
/// M), but the caps only help when allocations *succeed* and phases
/// *terminate*. This module lets tests and soak runs turn failures on at
/// named points of the real code paths so the recovery ladder
/// (engine/phase_common.hpp) is exercised deterministically:
///
///   if (SIMSWEEP_FAULT_POINT(fault::sites::kExhaustiveSimtAlloc))
///     throw std::bad_alloc{};
///
/// A site fires according to the installed FaultPlan: either on the Nth
/// hit of the site (exact-replay counting) or with probability p drawn
/// from a per-site Rng substream forked off the plan seed, so a given
/// {plan, hit sequence} always replays the same fire pattern. Sites are
/// placed on host-thread control paths only (allocation entries, batch
/// and solve entries) — never inside data-parallel worker bodies, where a
/// thrown injection could not be caught across threads.
///
/// With no plan installed a fault point is one relaxed atomic load;
/// configuring with -DSIMSWEEP_FAULT_INJECTION=OFF compiles every site to
/// a constant `false` for release deployments.
///
/// The checkpoint subsystem (DESIGN.md §2.8) adds three sites beyond the
/// degradation ladder proper: ckpt.write (a snapshot write is skipped,
/// the last-good file stays), ckpt.load (a snapshot read is rejected and
/// the load ladder falls through) and ckpt.child_crash (process death
/// immediately *after* a durable write — the supervisor restart drill).
///
/// The batch job service (DESIGN.md §2.9) adds two more: service.admit
/// (an admission attempt is denied as if the memory ledger refused the
/// job's stake — the job requeues instead of overcommitting) and
/// service.cache (a verdict-cache lookup is forced to miss, so the job
/// recomputes; the recomputed verdict must match what the cache would
/// have returned — the cache-soundness drill).
///
/// The residue sweep (DESIGN.md §2.5) adds sweep.cex_replay: one input
/// bit of the counterexample it is about to return is flipped. If the
/// flipped assignment no longer fails a PO, the replay on the miter must
/// catch it: the sweep returns kUndecided, never a counterexample that
/// does not replay.
///
/// The combined flow adds engine.cex_replay, the same drill for an engine
/// disproof: its counterexample (all-zero for a constant-1 PO) is
/// corrupted before it is replayed on the input miter, and a failed
/// replay returns kUndecided.
///
/// Site names are catalogued once, in the X-macro table
/// src/fault/fault_sites.def (one row per failure class the degradation
/// ladder handles). Code never spells a site as a raw string: fault
/// points and test plans reference the generated constants
/// (fault::sites::k*), and the `simsweep_audit` static-analysis ctest
/// rejects stray literals, unknown sites and dead catalog rows
/// (DESIGN.md §2.6).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace simsweep::fault {

/// Thrown by host-thread fault points whose natural failure mode is not a
/// specific standard exception (e.g. cut.enum_overflow). Carries the site
/// name so recovery code can attribute the fault.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// One armed injection site of a plan.
struct FaultSpec {
  std::string site;
  /// Fire from the nth hit of the site on (1-based). 0 selects
  /// probability mode instead.
  std::uint64_t nth = 1;
  /// Probability-mode fire chance per hit, drawn from the site's forked
  /// Rng substream (deterministic replay for a fixed plan seed).
  double probability = 0.0;
  /// Total fires allowed for this site; 0 = unlimited.
  std::uint64_t max_fires = 1;
};

/// A deterministic injection schedule. Build one, then install it for a
/// scope with ScopedFaultPlan. Plans are plain data and reusable.
class FaultPlan {
 public:
  /// Fires the site on its nth hit (1-based), for `fires` consecutive
  /// eligible hits (default: exactly once).
  FaultPlan& on_hit(std::string site, std::uint64_t nth,
                    std::uint64_t fires = 1) {
    specs_.push_back(FaultSpec{std::move(site), nth, 0.0, fires});
    return *this;
  }

  /// Fires the site with probability p per hit, decided by a per-site Rng
  /// substream forked from the plan seed (max_fires 0 = unlimited).
  FaultPlan& with_probability(std::string site, double p,
                              std::uint64_t max_fires = 0) {
    specs_.push_back(FaultSpec{std::move(site), 0, p, max_fires});
    return *this;
  }

  FaultPlan& seed(std::uint64_t s) {
    seed_ = s;
    return *this;
  }

  const std::vector<FaultSpec>& specs() const { return specs_; }
  std::uint64_t seed() const { return seed_; }

 private:
  std::vector<FaultSpec> specs_;
  std::uint64_t seed_ = 0xFA117ULL;
};

/// Installs a plan into the process-wide injector for the enclosing
/// scope; the previously installed plan (if any) is restored on
/// destruction. Fault points must be quiescent when the scope ends (the
/// injecting test owns the engine run it wraps).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  /// Fires of one site / all sites since this plan was installed.
  std::uint64_t fires(std::string_view site) const;
  std::uint64_t fires_total() const;
  /// Hits (fired or not) of one site since this plan was installed.
  std::uint64_t hits(std::string_view site) const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Process-cumulative count of injected fires (across all plans ever
/// installed; never reset). The engine publishes the delta over a run as
/// `faults.injected`.
std::uint64_t fires_total();

/// Per-site fire counts of the currently installed plan (empty when no
/// plan is active). Sorted by site name.
std::vector<std::pair<std::string, std::uint64_t>> active_fire_counts();

/// Typed site-name constants, one per row of fault_sites.def. The ONLY
/// way code may name a site (simsweep_audit enforces this).
namespace sites {
#define SIMSWEEP_FAULT_SITE(ident, name) \
  inline constexpr const char ident[] = name;
#include "fault/fault_sites.def"
#undef SIMSWEEP_FAULT_SITE
}  // namespace sites

/// The injection-site catalog (DESIGN.md §2.4), expanded from
/// fault_sites.def so soak tooling can iterate every site.
inline constexpr const char* kCataloguedSites[] = {
#define SIMSWEEP_FAULT_SITE(ident, name) name,
#include "fault/fault_sites.def"
#undef SIMSWEEP_FAULT_SITE
};

namespace detail {
/// Records a hit of `site` against the installed plan and returns true
/// iff the site should fail now. Thread-safe; the no-plan fast path is a
/// single relaxed atomic load.
bool hit(const char* site);
}  // namespace detail

}  // namespace simsweep::fault

#ifdef SIMSWEEP_FAULT_INJECTION
/// True iff the named site should fail now (see file comment). The caller
/// decides what failing means: throw the failure the real world would
/// produce (std::bad_alloc for allocations), or take the error path.
#define SIMSWEEP_FAULT_POINT(site) (::simsweep::fault::detail::hit(site))
#else
#define SIMSWEEP_FAULT_POINT(site) (false)
#endif
