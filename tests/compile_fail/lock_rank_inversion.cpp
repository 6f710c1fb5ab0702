/// \file lock_rank_inversion.cpp
/// \brief MUST NOT COMPILE under clang++ -Wthread-safety-beta
///        -Werror=thread-safety (the compile-fail pass of
///        tools/run_static_analysis.sh asserts exactly that).
///
/// Deliberate inversion of the DESIGN.md §2.6 lock order: `ckpt` is
/// acquired while nesting into `executor`, but the rank table says
/// executor < ckpt. Clang's analysis sees the SIMSWEEP_ACQUIRED_AFTER
/// edges on the lock_ranks anchors and rejects this with
///
///   error: acquiring mutex 'executor' requires negative capability
///          '!executor' [-Werror,-Wthread-safety-beta]
///   ... mutex 'executor' must be acquired before 'ckpt' ...
///
/// (exact spelling varies by Clang release; the driver only asserts a
/// thread-safety diagnostic fired). The runtime twin of this test —
/// for GCC-only hosts, where the annotations compile to no-ops — is
/// LockRanks.InversionThrows in tests/test_lock_ranks.cpp.

#include "common/lock_ranks.hpp"

namespace simsweep::common {

void inverted_nesting() {
  Mutex ckpt_mu, executor_mu;
  RankedMutexLock outer(ckpt_mu, lock_ranks::ckpt);
  RankedMutexLock inner(executor_mu, lock_ranks::executor);  // ILL-RANKED
}

}  // namespace simsweep::common
