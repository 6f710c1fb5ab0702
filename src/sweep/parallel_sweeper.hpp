#pragma once
/// \file parallel_sweeper.hpp
/// \brief The residue-sweep dispatcher (DESIGN.md §2.5).
///
/// SatSweeper runs one round loop; SweeperParams::num_threads picks the
/// scheduler that decides each round's pairs — the long-lived sequential
/// solver (<= 1) or hermetic chunks on shard loops (> 1, see
/// round_scheduler.hpp). sweep_miter() adds the degradation step
/// (DESIGN.md §2.4): host-side fault sites sweep.shard_alloc (shard-state
/// allocation, throws std::bad_alloc) and sweep.board_merge (applying a
/// shard-proved merge at the barrier, throws fault::FaultError) abandon
/// the sharded attempt, which is re-run sequentially — the ladder
/// degrades instead of aborting, and the verdict stays sound. Worker-side
/// failures never unwind across threads: a chunk that throws leaves its
/// remaining pairs unattempted.

#include "aig/aig.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::sweep {

/// Dispatcher used by the portfolio: runs SatSweeper(params); a host-side
/// fault on the sharded path (sweep.shard_alloc / sweep.board_merge, or a
/// real bad_alloc) degrades to the sequential scheduler and records the
/// fallback in stats.parallel_fallbacks.
SweepResult sweep_miter(const aig::Aig& miter, const SweeperParams& params);

}  // namespace simsweep::sweep
