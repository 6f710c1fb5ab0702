#pragma once
/// \file inputs.hpp
/// \brief Workload inputs of the benchmark of record: the checker
/// configuration `cec_tool` uses, the one-fanin-flip mutation rule, and
/// the mutant fixture table (family, doublings, mutation seed and a known
/// counterexample per kept mutant).

// Timing a sanitizer build is meaningless; reuse the repository's guard.
#include "../bench/bench_common.hpp"

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "common/random.hpp"
#include "gen/suite.hpp"
#include "portfolio/portfolio.hpp"

namespace perfbench {

using simsweep::Verdict;
namespace aig = simsweep::aig;
namespace gen = simsweep::gen;
namespace portfolio = simsweep::portfolio;

/// The base seed `gen::make_case` uses for its seeded families unless a
/// workload draws another one (SuiteParams' default).
inline constexpr std::uint64_t kFixtureSuiteSeed = 7;

/// The single-pair `cec_tool` configuration: k_P=24, k_p=k_g=14, every
/// other knob at its default, one sweep shard, and a cancellation flag,
/// which arms the engine watchdog exactly as the CLI's signal flag does.
inline portfolio::CombinedParams cli_params(const std::atomic<bool>* cancel,
                                            double budget_seconds) {
  portfolio::CombinedParams p;
  p.engine.k_P = 24;
  p.engine.k_p = 14;
  p.engine.k_g = 14;
  p.engine.cancel = cancel;
  p.engine.time_limit = budget_seconds;
  p.sweeper.cancel = cancel;
  p.sweeper.num_threads = 1;
  return p;
}

/// Copy of the one-fanin-flip rule of tests/test_util.hpp: complements
/// fanin 0 of one AND node drawn from `seed`.
inline aig::Aig mutate(const aig::Aig& src, std::uint64_t seed) {
  simsweep::Rng rng(seed);
  aig::Aig dst(src.num_pis());
  const aig::Var victim = static_cast<aig::Var>(
      src.num_pis() + 1 + rng.below(src.num_ands()));
  std::vector<aig::Lit> lit_of(src.num_nodes());
  lit_of[0] = aig::kLitFalse;
  for (unsigned i = 0; i < src.num_pis(); ++i) lit_of[i + 1] = dst.pi_lit(i);
  for (aig::Var v = src.num_pis() + 1; v < src.num_nodes(); ++v) {
    aig::Lit f0 = src.fanin0(v);
    const aig::Lit f1 = src.fanin1(v);
    if (v == victim) f0 = aig::lit_not(f0);
    lit_of[v] = dst.add_and(
        aig::lit_notcond(lit_of[aig::lit_var(f0)], aig::lit_compl(f0)),
        aig::lit_notcond(lit_of[aig::lit_var(f1)], aig::lit_compl(f1)));
  }
  for (aig::Lit po : src.pos())
    dst.add_po(aig::lit_notcond(lit_of[aig::lit_var(po)], aig::lit_compl(po)));
  return dst;
}

/// True iff the two circuits disagree on some PO under `pis`.
inline bool distinguishes(const aig::Aig& a, const aig::Aig& b,
                          const std::vector<bool>& pis) {
  return a.evaluate(pis) != b.evaluate(pis);
}

/// One kept mutant: `original` vs mutate(`optimized`, mutant_seed) of the
/// family at `doublings`, plus a counterexample a reference run found.
struct MutantFixture {
  std::string workload;  ///< "refute_mutants" or "service_batch"
  std::string family;
  unsigned doublings = 0;
  std::uint64_t mutant_seed = 0;
  /// "decided" or "undecided": the class the fixture generator measured
  /// at the workload's budget (documentation; the gate never trusts it).
  std::string expect;
  std::vector<bool> cex;
};

inline std::string bits_to_string(const std::vector<bool>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (bool b : bits) s.push_back(b ? '1' : '0');
  return s;
}

inline std::vector<bool> bits_from_string(const std::string& s) {
  std::vector<bool> bits;
  bits.reserve(s.size());
  for (char c : s) {
    if (c != '0' && c != '1')
      throw std::runtime_error("fixture: bad counterexample bit");
    bits.push_back(c == '1');
  }
  return bits;
}

/// Fixture line: `<workload> <family> <doublings> <seed> <expect> <cex>`;
/// blank lines and '#' comments are skipped.
inline std::string fixture_line(const MutantFixture& f) {
  std::ostringstream os;
  os << f.workload << ' ' << f.family << ' ' << f.doublings << ' '
     << f.mutant_seed << ' ' << f.expect << ' ' << bits_to_string(f.cex);
  return os.str();
}

inline std::vector<MutantFixture> load_fixtures(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open fixture file " + path);
  std::vector<MutantFixture> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    MutantFixture f;
    std::string bits;
    if (!(is >> f.workload >> f.family >> f.doublings >> f.mutant_seed >>
          f.expect >> bits))
      throw std::runtime_error("fixture: malformed line: " + line);
    f.cex = bits_from_string(bits);
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace perfbench
