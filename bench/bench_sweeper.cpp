/// \file bench_sweeper.cpp
/// \brief Throughput benchmark of the SAT residue sweep (DESIGN.md §2.5):
/// the sequential scheduler vs the chunk scheduler at 2/4 shards, all
/// through sweep::sweep_miter, on a multiplier miter — the workload class
/// whose residue dominates combined-flow wall time.
///
/// Metric: candidate pairs resolved per wall second (and conflicts/sec as
/// the solver-effort view). Most of the chunk scheduler's win is
/// algorithmic — small-support pairs are settled by exhaustive cone
/// simulation (sim_support_limit) instead of SAT, the paper's
/// simulation-first thesis — and the shard count adds scheduling overlap.
///
/// JSON emitter (`--json FILE [--smoke]`) writes one row per config plus
/// the speedup table; the `bench_sweeper_smoke` ctest keeps the perf
/// trajectory tracked in CI. Every config must reach the same verdict as
/// the sequential baseline (the bench aborts otherwise).

// Compile-time guarantee that this benchmark carries no sanitizer
// instrumentation: instrumented numbers would poison the perf trajectory.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#endif

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "gen/arith.hpp"
#include "sweep/parallel_sweeper.hpp"

namespace {

using namespace simsweep;

struct JsonRow {
  std::string name;
  unsigned threads = 0;
  std::size_t reps = 0;
  double wall_seconds = 0.0;
  std::size_t pairs = 0;       ///< resolved candidate pairs over all reps
  double pairs_per_sec = 0.0;
  std::uint64_t conflicts = 0;
  double conflicts_per_sec = 0.0;
  std::size_t sat_calls = 0;
  std::size_t sim_resolved = 0;
  std::size_t chunks = 0;
  std::size_t steals = 0;
  Verdict verdict = Verdict::kUndecided;
};

std::size_t resolved_pairs(const sweep::SweeperStats& s) {
  return s.pairs_proved + s.pairs_disproved + s.pairs_undecided;
}

/// Times repeated full sweeps produced by `run` (one warm-up sweep
/// first); every rep is an independent sweep of the same miter.
template <typename Run>
JsonRow measure(const std::string& name, unsigned threads, Run run,
                std::size_t min_reps, double min_seconds) {
  JsonRow row;
  row.name = name;
  row.threads = threads;
  (void)run();  // warm-up (first-touch allocations, branch history)
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    const sweep::SweepResult r = run();
    row.verdict = r.verdict;
    row.pairs += resolved_pairs(r.stats);
    row.conflicts += r.stats.conflicts;
    row.sat_calls += r.stats.sat_calls;
    row.sim_resolved += r.stats.pairs_sim_resolved;
    row.chunks += r.stats.chunks;
    row.steals += r.stats.steals;
    ++row.reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (row.reps < min_reps || elapsed < min_seconds);
  row.wall_seconds = elapsed;
  row.pairs_per_sec = static_cast<double>(row.pairs) / elapsed;
  row.conflicts_per_sec = static_cast<double>(row.conflicts) / elapsed;
  return row;
}

int run_json(const char* path, bool smoke) {
  // Array vs Wallace multiplier: structurally different implementations
  // with many internal equivalences — the paper's hard-residue shape.
  // Smoke keeps the 4-bit pair so the ctest stays fast.
  const unsigned bits = smoke ? 4 : 5;
  const aig::Aig miter = aig::make_miter(gen::array_multiplier(bits),
                                         gen::wallace_multiplier(bits));
  const std::size_t min_reps = smoke ? 2 : 5;
  const double min_seconds = smoke ? 0.2 : 2.0;

  std::vector<JsonRow> rows;
  for (const unsigned threads : {1u, 2u, 4u}) {
    sweep::SweeperParams p;
    p.num_threads = threads;
    rows.push_back(measure(
        threads == 1 ? std::string("sequential")
                     : "shard_sweep_" + std::to_string(threads),
        threads, [&] { return sweep::sweep_miter(miter, p); }, min_reps,
        min_seconds));
  }

  // Acceptance: identical verdicts across every config.
  for (const JsonRow& r : rows) {
    if (r.verdict != rows[0].verdict) {
      std::fprintf(stderr,
                   "bench_sweeper: verdict mismatch in %s (%s vs %s)\n",
                   r.name.c_str(), to_string(r.verdict),
                   to_string(rows[0].verdict));
      return 1;
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_sweeper: cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_sweeper\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"workload\": \"array vs wallace multiplier, %u bits\",\n",
               bits);
  std::fprintf(f, "  \"metric\": \"pairs_per_sec = resolved candidate pairs "
                  "per wall second\",\n  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %u, \"reps\": %zu, "
                 "\"wall_seconds\": %.6f, \"pairs\": %zu, "
                 "\"pairs_per_sec\": %.4e, \"conflicts\": %llu, "
                 "\"conflicts_per_sec\": %.4e, \"sat_calls\": %zu, "
                 "\"pairs_sim_resolved\": %zu, \"chunks\": %zu, "
                 "\"steals\": %zu, \"verdict\": \"%s\"}%s\n",
                 r.name.c_str(), r.threads, r.reps, r.wall_seconds, r.pairs,
                 r.pairs_per_sec,
                 static_cast<unsigned long long>(r.conflicts),
                 r.conflicts_per_sec, r.sat_calls, r.sim_resolved, r.chunks,
                 r.steals, to_string(r.verdict), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup_vs_sequential\": {");
  bool first = true;
  for (const JsonRow& r : rows) {
    if (r.name == "sequential") continue;
    std::fprintf(f, "%s\"%s\": %.2f", first ? "" : ", ", r.name.c_str(),
                 r.pairs_per_sec / rows[0].pairs_per_sec);
    first = false;
  }
  std::fprintf(f, "}\n}\n");
  if (std::ferror(f) != 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_sweeper: write to %s failed\n", path);
    return 1;
  }

  for (const JsonRow& r : rows)
    std::printf("%-16s %2u thr %6zu reps %9.3f s  %.4e pairs/sec  "
                "%.4e conflicts/sec  %s\n",
                r.name.c_str(), r.threads, r.reps, r.wall_seconds,
                r.pairs_per_sec, r.conflicts_per_sec, to_string(r.verdict));
  std::printf("wrote %s\n", path);
  return 0;
}

int usage() {
  std::fprintf(stderr, "usage: bench_sweeper --json FILE [--smoke]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("uninstrumented: ok (no sanitizer feature macros at build)\n");
  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) return usage();
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      return usage();
    }
  }
  if (json_path == nullptr) return usage();
  return run_json(json_path, smoke);
}
