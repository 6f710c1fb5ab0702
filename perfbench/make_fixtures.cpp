/// \file make_fixtures.cpp
/// \brief Generator of the benchmark's mutant fixtures (mutants.txt).
///
/// Usage:
///   perfbench_fixtures --workload <name> --budget <s>
///       [--reference-threads <n>] family:doublings:seed[,seed...] ...
///
/// For each candidate it builds `original` vs mutate(`optimized`, seed),
/// runs the `cec_tool` configuration with twice the workload budget and
/// keeps the mutant only if it is decided in under half the budget or is
/// still undecided at twice the budget, so no kept case sits on the budget
/// edge. A decided mutant's counterexample comes from that run; an
/// undecided one's comes from an unbudgeted reference run of the combined
/// flow whose residue sweep has `--reference-threads` shards and no
/// conflict limit (0 skips the reference run and drops undecided mutants:
/// a cheap probe). Every counterexample is replayed before its fixture
/// line goes to stdout; progress goes to stderr.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "aig/miter.hpp"
#include "common/timer.hpp"
#include "inputs.hpp"

namespace {

using namespace perfbench;

/// A constant-1 PO disproof carries no assignment: any input distinguishes
/// the pair, but replay still demands one that does.
std::optional<std::vector<bool>> any_distinguishing(const aig::Aig& a,
                                                    const aig::Aig& b) {
  simsweep::Rng rng(1);
  for (int t = 0; t < 4096; ++t) {
    std::vector<bool> pis(a.num_pis());
    for (auto&& bit : pis) bit = t == 0 ? false : rng.flip();
    if (distinguishes(a, b, pis)) return pis;
  }
  return std::nullopt;
}

int run(int argc, char** argv) {
  std::string workload;
  double budget = 0;
  unsigned reference_threads = 4;
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--budget") == 0 && has_value) {
      budget = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--reference-threads") == 0 &&
               has_value) {
      reference_threads =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (argv[i][0] != '-') {
      specs.emplace_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (workload.empty() || budget <= 0 || specs.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --budget <s> "
                 "[--reference-threads <n>] family:doublings:seed[,seed] ...\n",
                 argv[0]);
    return 2;
  }

  std::atomic<bool> cancel{false};
  for (const std::string& spec : specs) {
    const std::size_t c1 = spec.find(':');
    const std::size_t c2 = spec.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      std::fprintf(stderr, "bad candidate %s\n", spec.c_str());
      return 2;
    }
    const std::string family = spec.substr(0, c1);
    gen::SuiteParams sp;
    sp.doublings = static_cast<unsigned>(
        std::strtoul(spec.substr(c1 + 1, c2 - c1 - 1).c_str(), nullptr, 10));
    sp.seed = kFixtureSuiteSeed;
    const gen::BenchCase bc = gen::make_case(family, sp);

    std::string seeds = spec.substr(c2 + 1);
    for (std::size_t pos = 0; pos <= seeds.size();) {
      std::size_t comma = seeds.find(',', pos);
      if (comma == std::string::npos) comma = seeds.size();
      const std::uint64_t seed =
          std::strtoull(seeds.substr(pos, comma - pos).c_str(), nullptr, 10);
      pos = comma + 1;

      const aig::Aig broken = mutate(bc.optimized, seed);
      const aig::Aig miter = aig::make_miter(bc.original, broken);
      simsweep::Timer t;
      const portfolio::CombinedResult r = portfolio::combined_check_miter(
          miter, cli_params(&cancel, 2 * budget));
      const double secs = t.seconds();
      std::fprintf(stderr, "%s d=%u seed=%llu: %s in %.3fs (sat %.3fs)\n",
                   family.c_str(), sp.doublings,
                   static_cast<unsigned long long>(seed),
                   simsweep::to_string(r.verdict), secs, r.sat_seconds);

      MutantFixture f;
      f.workload = workload;
      f.family = family;
      f.doublings = sp.doublings;
      f.mutant_seed = seed;
      std::optional<std::vector<bool>> cex;
      if (r.verdict == Verdict::kNotEquivalent && secs < budget / 2) {
        f.expect = "decided";
        cex = r.cex ? r.cex : any_distinguishing(bc.original, broken);
      } else if (r.verdict == Verdict::kUndecided && reference_threads > 0) {
        f.expect = "undecided";
        portfolio::CombinedParams ref = cli_params(&cancel, 0);
        ref.sweeper.num_threads = reference_threads;
        ref.sweeper.conflict_limit = -1;
        simsweep::Timer rt;
        const portfolio::CombinedResult rr =
            portfolio::combined_check_miter(miter, ref);
        std::fprintf(stderr, "  reference run (%u shards): %s in %.1fs\n",
                     reference_threads, simsweep::to_string(rr.verdict),
                     rt.seconds());
        if (rr.verdict != Verdict::kNotEquivalent) continue;
        cex = rr.cex ? rr.cex : any_distinguishing(bc.original, broken);
      } else {
        std::fprintf(stderr, "  dropped (%s)\n",
                     r.verdict == Verdict::kEquivalent   ? "function unchanged"
                     : r.verdict == Verdict::kUndecided ? "no reference run"
                                                         : "near the budget");
        continue;
      }
      if (!cex || !distinguishes(bc.original, broken, *cex)) {
        std::fprintf(stderr, "  dropped (counterexample does not replay)\n");
        continue;
      }
      f.cex = *cex;
      std::printf("%s\n", fixture_line(f).c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
