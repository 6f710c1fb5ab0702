#pragma once
/// \file lock_ranks.hpp
/// \brief Compile-time (and optionally runtime) lock-rank table
/// (DESIGN.md §2.6).
///
/// Every mutex in the repo belongs to exactly one rank of a single total
/// order, and nested acquisitions must strictly ascend it:
///
///   service < pool < executor < ckpt < registry < fault < log
///
/// The order is encoded twice from one table:
///
///  - **Statically**, as a set of phantom "rank anchor" capabilities with
///    `SIMSWEEP_ACQUIRED_AFTER` edges. A RankedMutexLock acquires (in the
///    eyes of Clang's `-Wthread-safety` analysis) both the concrete mutex
///    and its rank's anchor, so holding any rank-R lock while acquiring a
///    rank-R' <= R lock trips the analysis' acquired_after check — a
///    lock-order inversion becomes a `-Werror` build break on Clang
///    (anchors are shared per rank, so same-rank nesting is rejected too,
///    as "acquiring a capability that is already held"). Anchor edges are
///    checked under `-Wthread-safety-beta`; tools/run_static_analysis.sh
///    enables it.
///  - **At runtime**, as a per-thread held-rank stack validated on every
///    RankedMutexLock acquisition when enforcement is on (always on in
///    `-DSIMSWEEP_CHECKED=ON` builds, where a violation aborts like the
///    executor protocol checks; tests can switch to throwing). This leg
///    works on GCC-only hosts, where the Clang analysis cannot run.
///
/// Rank assignment (see DESIGN.md §2.6 for the rationale):
///   service   CecService scheduler state (job queue, verdict cache,
///             completion flags) — a service worker takes it strictly
///             before dispatching into a job, never while the job holds
///             any engine/sweeper lock, so it sits below pool
///   pool      ThreadPool::submit_mutex_ — held for a whole job, so it is
///             the outermost lock any participant thread inside a run can
///             hold
///   executor  portfolio VerdictBox — cross-engine race coordination
///   ckpt      ckpt::CheckpointManager throttle/pending state — below
///             registry so a write can publish its metrics under the lock
///   registry  obs::Registry cell map
///   fault     fault-injector plan state (fault points fire anywhere)
///   log       log-output serialization (logging is legal under any lock)

#include "common/thread_annotations.hpp"

namespace simsweep::common {

/// The total order. Values are the rank positions; nested acquisitions
/// must be strictly increasing.
enum class LockRank : int {
  kService = 0,
  kPool = 1,
  kExecutor = 2,
  kCkpt = 3,
  kRegistry = 4,
  kFault = 5,
  kLog = 6,
};

const char* to_string(LockRank rank);

/// Phantom capability standing for "a mutex of this rank is held". Never
/// locked at runtime; it exists so every ranked acquisition can inform
/// the Clang thread-safety analysis of its rank through one shared
/// declaration per rank (see file comment).
class SIMSWEEP_CAPABILITY("lock_rank") RankAnchor {
 public:
  explicit constexpr RankAnchor(LockRank rank) : rank_(rank) {}
  RankAnchor(const RankAnchor&) = delete;
  RankAnchor& operator=(const RankAnchor&) = delete;
  constexpr LockRank rank() const { return rank_; }

 private:
  LockRank rank_;
};

/// The rank table. Each anchor lists every lower anchor in its
/// SIMSWEEP_ACQUIRED_AFTER edge set (the full lower set, not just the
/// predecessor — Clang's acquired_after check does not chase transitive
/// edges through anchors that are not currently held).
namespace lock_ranks {

inline RankAnchor service{LockRank::kService};
inline RankAnchor pool SIMSWEEP_ACQUIRED_AFTER(service){LockRank::kPool};
inline RankAnchor executor SIMSWEEP_ACQUIRED_AFTER(service, pool){
    LockRank::kExecutor};
inline RankAnchor ckpt SIMSWEEP_ACQUIRED_AFTER(service, pool, executor){
    LockRank::kCkpt};
inline RankAnchor registry SIMSWEEP_ACQUIRED_AFTER(service, pool, executor,
                                                   ckpt){LockRank::kRegistry};
inline RankAnchor fault SIMSWEEP_ACQUIRED_AFTER(service, pool, executor,
                                                ckpt, registry){
    LockRank::kFault};
inline RankAnchor log SIMSWEEP_ACQUIRED_AFTER(service, pool, executor, ckpt,
                                              registry, fault){LockRank::kLog};

/// What the runtime checker does on an out-of-order acquisition. kAbort
/// mirrors the SIMSWEEP_CHECKED executor protocol checks (diagnostic on
/// stderr, then abort); kThrow raises std::logic_error so tests can
/// assert the violation without a death test.
enum class Enforcement { kOff = 0, kThrow = 1, kAbort = 2 };

/// Runtime enforcement switch. Defaults to kAbort in SIMSWEEP_CHECKED
/// builds and kOff otherwise. Must only be changed while the calling
/// thread holds no ranked lock.
void set_enforcement(Enforcement mode);
Enforcement enforcement();

namespace detail {
/// Validates (and when enforcement is on, records) the acquisition of a
/// rank on this thread. One relaxed atomic load when enforcement is off.
void note_acquire(LockRank rank);
void note_release(LockRank rank);
}  // namespace detail

}  // namespace lock_ranks

/// RAII lock over a ranked mutex: the one way production code takes a
/// common::Mutex that participates in the rank order. Statically acquires
/// both the mutex and its rank anchor; dynamically feeds the runtime
/// rank checker.
class SIMSWEEP_SCOPED_CAPABILITY RankedMutexLock {
 public:
  RankedMutexLock(Mutex& m, RankAnchor& rank) SIMSWEEP_ACQUIRE(m, rank)
      : m_(m), rank_(rank.rank()) {
    lock_ranks::detail::note_acquire(rank_);
    m_.lock();
  }
  ~RankedMutexLock() SIMSWEEP_RELEASE() {
    m_.unlock();
    lock_ranks::detail::note_release(rank_);
  }

  RankedMutexLock(const RankedMutexLock&) = delete;
  RankedMutexLock& operator=(const RankedMutexLock&) = delete;

 private:
  Mutex& m_;
  LockRank rank_;
};

}  // namespace simsweep::common
