/// \file bench_substrates.cpp
/// \brief Microbenchmarks of the supporting substrates: partial
/// simulation, EC building, SAT solving, cut enumeration, miter rebuild.
/// Useful for spotting regressions in the pieces the engine's wall-clock
/// is made of.

#include <benchmark/benchmark.h>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "aig/rebuild.hpp"
#include "cnf/tseitin.hpp"
#include "cut/cut_enum.hpp"
#include "gen/arith.hpp"
#include "gen/transforms.hpp"
#include "sim/ec_manager.hpp"
#include "sim/partial_sim.hpp"
#include "sim/quality_patterns.hpp"

namespace {

using namespace simsweep;

aig::Aig bench_miter(unsigned doublings) {
  // Two genuinely different multiplier architectures: the miter never
  // folds structurally, so every substrate sees realistic work.
  const aig::Aig a = gen::double_circuit(gen::array_multiplier(6), doublings);
  const aig::Aig b =
      gen::double_circuit(gen::wallace_multiplier(6), doublings);
  return aig::make_miter(a, b);
}

void BM_PartialSimulation(benchmark::State& state) {
  const aig::Aig m = bench_miter(static_cast<unsigned>(state.range(0)));
  const auto bank = sim::PatternBank::random(m.num_pis(), 4, 7);
  for (auto _ : state) {
    const sim::Signatures sigs = sim::simulate(m, bank);
    benchmark::DoNotOptimize(sigs.words.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(m.num_nodes()) * 4 * 64);
}
BENCHMARK(BM_PartialSimulation)->DenseRange(0, 4, 2);

void BM_EcBuild(benchmark::State& state) {
  const aig::Aig m = bench_miter(2);
  const auto bank = sim::PatternBank::random(m.num_pis(), 4, 7);
  const sim::Signatures sigs = sim::simulate(m, bank);
  for (auto _ : state) {
    sim::EcManager ec;
    ec.build(m, sigs);
    benchmark::DoNotOptimize(ec.num_classes());
  }
}
BENCHMARK(BM_EcBuild);

void BM_CutEnumeration(benchmark::State& state) {
  const aig::Aig m = bench_miter(1);
  cut::EnumParams ep;
  ep.cut_size = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    cut::PriorityCuts pc(m, ep);
    const cut::CutScorer scorer(m, cut::Pass::kFanout);
    for (aig::Var v = m.num_pis() + 1; v < m.num_nodes(); ++v)
      pc.compute_node(v, scorer, nullptr);
    benchmark::DoNotOptimize(pc.cuts(static_cast<aig::Var>(m.num_nodes() - 1))
                                 .size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_ands()));
}
BENCHMARK(BM_CutEnumeration)->Arg(4)->Arg(6)->Arg(8);

void BM_SatSolveMiterPo(benchmark::State& state) {
  const aig::Aig m = bench_miter(0);
  for (auto _ : state) {
    sat::Solver solver;
    cnf::TseitinEncoder enc(m, solver);
    int unsat = 0;
    for (aig::Lit po : m.pos())
      unsat += solver.solve({enc.encode(po)}) == sat::Solver::Result::kUnsat;
    benchmark::DoNotOptimize(unsat);
  }
}
BENCHMARK(BM_SatSolveMiterPo);

void BM_QualityPatterns(benchmark::State& state) {
  const aig::Aig m = bench_miter(1);
  sim::QualityParams qp;
  qp.candidate_rounds = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::QualityStats stats;
    const auto bank = sim::quality_patterns(m, qp, &stats);
    benchmark::DoNotOptimize(bank.num_words());
    state.counters["classes"] = static_cast<double>(stats.classes_after);
  }
}
BENCHMARK(BM_QualityPatterns)->Arg(2)->Arg(8);

void BM_MiterRebuild(benchmark::State& state) {
  const aig::Aig m = bench_miter(2);
  for (auto _ : state) {
    const auto r = aig::cleanup(m);
    benchmark::DoNotOptimize(r.aig.num_ands());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_ands()));
}
BENCHMARK(BM_MiterRebuild);

}  // namespace
