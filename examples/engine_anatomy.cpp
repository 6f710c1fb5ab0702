/// \file engine_anatomy.cpp
/// \brief A look inside the engine: phase breakdown, intermediate miters
/// and the effect of each flow stage (paper Figs. 5-7 in miniature).
///
/// Run: ./engine_anatomy [family] [doublings]

#include <cstdio>
#include <string>

#include "engine/engine.hpp"
#include "gen/suite.hpp"
#include "obs/report.hpp"
#include "sweep/sat_sweeper.hpp"

int main(int argc, char** argv) {
  using namespace simsweep;
  const std::string family = argc > 1 ? argv[1] : "sin";
  gen::SuiteParams sp;
  sp.doublings = argc > 2 ? std::stoul(argv[2]) : 1;
  const gen::BenchCase bench = gen::make_case(family, sp);

  const aig::Aig miter = aig::make_miter(bench.original, bench.optimized);
  std::printf("%s: miter has %u PIs, %zu POs, %zu AND nodes\n",
              bench.name.c_str(), miter.num_pis(), miter.num_pos(),
              miter.num_ands());

  // The full-flow preset: the paper's P, G and repeated L phases.
  engine::EngineParams params = engine::full_flow({});
  params.k_P = 24;
  params.k_p = 14;
  params.k_g = 14;
  params.capture_snapshots = true;
  const engine::SimCecEngine engine(params);
  const engine::EngineResult r = engine.check_miter(miter);

  std::printf("verdict: %s in %.3fs\n", to_string(r.verdict),
              r.stats.total_seconds);
  const auto pct = [&](double s) {
    return r.stats.total_seconds > 0 ? 100.0 * s / r.stats.total_seconds
                                     : 0.0;
  };
  std::printf("phase breakdown (paper Fig. 6 analogue):\n");
  std::printf("  P (PO checking):     %6.3fs  %5.1f%%  (%zu/%zu POs)\n",
              r.stats.po_seconds, pct(r.stats.po_seconds),
              r.stats.pos_proved, r.stats.pos_total);
  std::printf("  G (global checking): %6.3fs  %5.1f%%  (%zu pairs)\n",
              r.stats.global_seconds, pct(r.stats.global_seconds),
              r.stats.pairs_proved_global);
  std::printf("  L (local checking):  %6.3fs  %5.1f%%  (%zu pairs, %zu "
              "phases)\n",
              r.stats.local_seconds, pct(r.stats.local_seconds),
              r.stats.pairs_proved_local, r.stats.local_phases);

  std::printf("intermediate miters (paper Fig. 7 analogue):\n");
  std::printf("  start: %zu ANDs\n", r.stats.initial_ands);
  for (const auto& [name, snap] : r.snapshots)
    std::printf("  after %-3s %zu ANDs\n", name.c_str(), snap.num_ands());
  std::printf("  final: %zu ANDs (%.1f%% reduced)\n", r.stats.final_ands,
              r.stats.reduction_percent());

  if (r.verdict == Verdict::kUndecided) {
    std::printf("handing the residue to the SAT sweeper...\n");
    const sweep::SatSweeper sweeper;
    const sweep::SweepResult sr = sweeper.check_miter(r.reduced);
    std::printf("SAT verdict: %s in %.3fs (%zu SAT calls)\n",
                to_string(sr.verdict), sr.stats.seconds,
                sr.stats.sat_calls);
  }

  std::printf("run report (schema %s):\n%s\n", obs::kSchemaId,
              obs::to_json(r.report).c_str());
  return 0;
}
