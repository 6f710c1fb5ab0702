#pragma once
/// \file bench_common.hpp
/// \brief Shared configuration for the paper-reproduction benches.
///
/// Scale note (DESIGN.md §4): the paper runs 20M-60M-node miters on a GPU
/// server for hours-to-days; this host is a small CPU container. The
/// benches default to `doublings = 1` (set SIMSWEEP_DOUBLINGS to push
/// higher) and reproduce the *shape* of the results — which engine wins
/// per design family, reduction percentages, phase breakdowns — rather
/// than absolute runtimes.

// Benchmark binaries must never carry sanitizer instrumentation — the
// numbers would be meaningless and silently wrong in comparisons. The
// build already excludes bench/ from SIMSWEEP_SANITIZE builds; this
// hard-errors if instrumentation ever leaks in through another path
// (e.g. flags injected via CXXFLAGS). UBSan defines no feature macro and
// is caught by the build-level exclusion only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "engine/engine.hpp"
#include "gen/suite.hpp"
#include "portfolio/portfolio.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::benchcfg {

inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<unsigned>(std::strtoul(v, nullptr, 10))
                      : fallback;
}

inline unsigned doublings() { return env_unsigned("SIMSWEEP_DOUBLINGS", 1); }

/// Per-checker wall-clock budget (seconds); keeps a stuck baseline from
/// blocking the whole table.
inline double time_budget() {
  return static_cast<double>(env_unsigned("SIMSWEEP_TIME_BUDGET", 60));
}

/// Engine parameters: the paper's values (k_P=32, k_p=k_g=16, k_l=8, C=8)
/// rescaled to CPU-exhaustive-simulation reach (2^24 patterns one-shot),
/// under the full-flow preset (L phases and graduated G) that the paper's
/// Table II, Fig. 6 and Fig. 7 columns measure.
inline engine::EngineParams engine_params() {
  engine::EngineParams p = engine::full_flow({});
  p.k_P = 24;
  p.k_p = 14;
  p.k_g = 14;
  p.k_l = 8;
  p.num_cuts = 8;
  p.time_limit = time_budget();
  return p;
}

inline sweep::SweeperParams sweeper_params() {
  sweep::SweeperParams p;
  p.conflict_limit = 100000;  // paper: &cec -C 100000
  p.time_limit = time_budget();
  return p;
}

inline portfolio::CombinedParams combined_params() {
  portfolio::CombinedParams p;
  p.engine = engine_params();
  p.sweeper = sweeper_params();
  return p;
}

/// Geometric mean of a list of ratios.
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

struct MiterStats {
  unsigned pis;
  std::size_t pos;
  std::size_t nodes;
  std::uint32_t levels;
};

inline MiterStats miter_stats(const aig::Aig& m) {
  const auto lv = aig::compute_levels(m);
  std::uint32_t max_level = 0;
  for (aig::Lit po : m.pos())
    max_level = std::max(max_level, lv[aig::lit_var(po)]);
  return MiterStats{m.num_pis(), m.num_pos(), m.num_ands(), max_level};
}

}  // namespace simsweep::benchcfg
