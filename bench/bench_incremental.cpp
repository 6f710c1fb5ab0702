/// \file bench_incremental.cpp
/// \brief A/B benchmark of the incremental signature carry-over layer
/// (DESIGN.md §2.7): the full engine flow on an array-vs-Wallace
/// multiplier miter — the repeated-L-phase workload whose per-phase full
/// re-simulations the layer eliminates — with EngineParams::incremental_sim
/// off (the pre-incremental behaviour: every phase entry and every CEX
/// refinement round re-simulates the whole bank and rebuilds classes) vs
/// on (delta simulation + rebuild carry-over).
///
/// Metrics per config: engine runs per wall second, partial-simulation
/// words actually simulated per run (full re-simulation words + delta
/// columns), full re-simulations and carried classes per run. The JSON
/// emitter (`--json FILE [--smoke]`) writes one row per config plus the
/// incremental/baseline ratios; both configs must reach the identical
/// verdict (the bench aborts otherwise — carry-over is only a win if it
/// is invisible to the checker).

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

#include "common/verdict.hpp"
#include "engine/engine.hpp"
#include "gen/arith.hpp"
#include "obs/metric_names.hpp"

namespace {

using namespace simsweep;

struct JsonRow {
  std::string name;
  std::size_t reps = 0;
  double wall_seconds = 0.0;
  double runs_per_sec = 0.0;
  std::uint64_t sim_words = 0;        ///< full-resim words over all reps
  std::uint64_t incremental_words = 0;  ///< delta columns over all reps
  std::uint64_t full_resims = 0;
  std::uint64_t carry_classes = 0;
  std::uint64_t local_phases = 0;
  Verdict verdict = Verdict::kUndecided;
};

/// Engine shape that forces the repeated-L-phase loop: PO phase off, a
/// deliberately small k_g so the G phase leaves internal residue, and the
/// full-flow preset's multi-pass L ladder chewing through it across
/// several phases.
engine::EngineParams ab_params(bool incremental) {
  engine::EngineParams p = engine::full_flow({});
  p.enable_po_phase = false;
  p.k_P = 12;
  p.k_p = 4;
  p.k_g = 5;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  p.incremental_sim = incremental;
  return p;
}

JsonRow measure(const std::string& name, const aig::Aig& a, const aig::Aig& b,
                bool incremental, std::size_t min_reps, double min_seconds) {
  JsonRow row;
  row.name = name;
  const engine::EngineParams p = ab_params(incremental);
  (void)engine::SimCecEngine(p).check(a, b);  // warm-up
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
    row.verdict = r.verdict;
    row.sim_words += r.report.count(obs::metric::kPartialSimPatternWords);
    row.incremental_words +=
        r.report.count(obs::metric::kPartialSimIncrementalWords);
    row.full_resims += r.report.count(obs::metric::kPartialSimFullResims);
    row.carry_classes += r.report.count(obs::metric::kPartialSimCarryClasses);
    row.local_phases += r.stats.local_phases;
    ++row.reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (row.reps < min_reps || elapsed < min_seconds);
  row.wall_seconds = elapsed;
  row.runs_per_sec = static_cast<double>(row.reps) / elapsed;
  return row;
}

int run_json(const char* path, bool smoke) {
  // Array vs Wallace multiplier: structurally different implementations
  // with many internal equivalences, decided over several G/L rounds —
  // the repeated-rebuild shape the carry-over layer targets.
  const unsigned bits = smoke ? 4 : 5;
  const aig::Aig a = gen::array_multiplier(bits);
  const aig::Aig b = gen::wallace_multiplier(bits);
  const std::size_t min_reps = smoke ? 2 : 5;
  const double min_seconds = smoke ? 0.2 : 2.0;

  std::vector<JsonRow> rows;
  rows.push_back(
      measure("full_resim_baseline", a, b, false, min_reps, min_seconds));
  rows.push_back(
      measure("incremental_carryover", a, b, true, min_reps, min_seconds));

  // Acceptance: the A/B lever must be invisible to the verdict.
  for (const JsonRow& r : rows) {
    if (r.verdict != rows[0].verdict) {
      std::fprintf(stderr,
                   "bench_incremental: verdict mismatch in %s (%s vs %s)\n",
                   r.name.c_str(), to_string(r.verdict),
                   to_string(rows[0].verdict));
      return 1;
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_incremental: cannot open %s for writing\n",
                 path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_incremental\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f,
               "  \"workload\": \"engine flow, array vs wallace multiplier, "
               "%u bits\",\n",
               bits);
  std::fprintf(f,
               "  \"metric\": \"runs_per_sec = full engine checks per wall "
               "second; sim_words_per_run = full-bank re-simulation words "
               "per check\",\n  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    const double per_run = 1.0 / static_cast<double>(r.reps);
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"reps\": %zu, \"wall_seconds\": %.6f, "
        "\"runs_per_sec\": %.4e, \"sim_words_per_run\": %.1f, "
        "\"incremental_words_per_run\": %.1f, \"full_resims_per_run\": "
        "%.2f, \"carry_classes_per_run\": %.1f, \"local_phases_per_run\": "
        "%.2f, \"verdict\": \"%s\"}%s\n",
        r.name.c_str(), r.reps, r.wall_seconds, r.runs_per_sec,
        static_cast<double>(r.sim_words) * per_run,
        static_cast<double>(r.incremental_words) * per_run,
        static_cast<double>(r.full_resims) * per_run,
        static_cast<double>(r.carry_classes) * per_run,
        static_cast<double>(r.local_phases) * per_run,
        to_string(r.verdict), i + 1 < rows.size() ? "," : "");
  }
  const JsonRow& base = rows[0];
  const JsonRow& inc = rows[1];
  const double words_base =
      static_cast<double>(base.sim_words) / static_cast<double>(base.reps);
  const double words_inc =
      static_cast<double>(inc.sim_words + inc.incremental_words) /
      static_cast<double>(inc.reps);
  std::fprintf(f, "  ],\n  \"incremental_vs_baseline\": {");
  std::fprintf(f, "\"speedup\": %.3f, \"sim_words_ratio\": %.4f}\n}\n",
               inc.runs_per_sec / base.runs_per_sec,
               words_base > 0 ? words_inc / words_base : 0.0);
  if (std::ferror(f) != 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_incremental: write to %s failed\n", path);
    return 1;
  }

  for (const JsonRow& r : rows)
    std::printf("%-22s %6zu reps %9.3f s  %.4e runs/sec  %.3e sim words + "
                "%.3e delta words  %s\n",
                r.name.c_str(), r.reps, r.wall_seconds, r.runs_per_sec,
                static_cast<double>(r.sim_words),
                static_cast<double>(r.incremental_words),
                to_string(r.verdict));
  std::printf("wrote %s\n", path);
  return 0;
}

int usage() {
  std::fprintf(stderr, "usage: bench_incremental --json FILE [--smoke]\n");
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
