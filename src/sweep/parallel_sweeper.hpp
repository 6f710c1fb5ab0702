#pragma once
/// \file parallel_sweeper.hpp
/// \brief Kept only for the benchmark sources under perfbench/, which
/// still call sweep_miter(); library code calls SatSweeper directly. It
/// goes when they stop.

#include "aig/aig.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::sweep {

inline SweepResult sweep_miter(const aig::Aig& m, const SweeperParams& p) {
  return SatSweeper(p).check_miter(m);
}

}  // namespace simsweep::sweep
