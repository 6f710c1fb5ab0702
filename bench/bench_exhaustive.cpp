/// \file bench_exhaustive.cpp
/// \brief Microbenchmarks of the exhaustive simulator (paper Alg. 1):
/// throughput versus support size, batch size, memory budget (round
/// decomposition) and window merging.
///
/// Besides the google-benchmark suite, the binary has a JSON emitter mode
/// (`--json FILE [--smoke]`) that measures the two canonical batch shapes
/// of paper Fig. 3 — many small windows (one tile each) and few large
/// windows (thousands of word-range tiles each) — and writes
/// words-simulated/sec plus wall time per config, so the perf trajectory of
/// the simulator is tracked in CI (`ctest -L bench`, target `bench_smoke`).

// Compile-time guarantee that this benchmark carries no sanitizer
// instrumentation (the ctest `bench_smoke` run asserts it at runtime
// too): instrumented numbers would silently poison the perf trajectory.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#endif

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "exhaustive/exhaustive_sim.hpp"
#include "gen/arith.hpp"
#include "obs/registry.hpp"
#include "window/window_merge.hpp"

namespace {

using namespace simsweep;

/// Windows over an adder-vs-balanced-adder miter: every PO pair check.
std::vector<window::Window> po_windows(const aig::Aig& miter,
                                       unsigned max_support) {
  const auto supports = aig::compute_supports(miter, max_support);
  std::vector<window::Window> out;
  for (std::size_t i = 0; i < miter.num_pos(); ++i) {
    const aig::Var v = aig::lit_var(miter.po(i));
    if (v == 0 || !supports.small(v)) continue;
    auto w = window::build_window(
        miter, supports.sets[v],
        {window::CheckItem{miter.po(i), aig::kLitFalse,
                           static_cast<std::uint32_t>(i)}});
    if (w) out.push_back(std::move(*w));
  }
  return out;
}

/// `copies` independent XOR-tree circuits over `width` PIs each: the
/// many-small-windows shape (window dimension of paper Fig. 3).
aig::Aig xor_forest(unsigned copies, unsigned width) {
  aig::Aig a(copies * width);
  for (unsigned c = 0; c < copies; ++c) {
    aig::Lit acc = a.pi_lit(width * c);
    for (unsigned i = 1; i < width; ++i)
      acc = a.add_xor(acc, a.pi_lit(width * c + i));
    a.add_po(acc);
  }
  return a;
}

std::vector<window::Window> xor_forest_windows(const aig::Aig& a,
                                               unsigned width) {
  const auto supports = aig::compute_supports(a, width);
  std::vector<window::Window> windows;
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    auto w = window::build_window(
        a, supports.sets[aig::lit_var(a.po(i))],
        {window::CheckItem{a.po(i), a.po(i),
                           static_cast<std::uint32_t>(i)}});
    windows.push_back(std::move(*w));
  }
  return windows;
}

/// Throughput of exhaustive PO checking vs adder width (support = 2n).
void BM_ExhaustiveSupportSize(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const aig::Aig m =
      aig::make_miter(gen::ripple_adder(n), gen::kogge_stone_adder(n));
  const auto windows = po_windows(m, 2 * n + 1);
  std::size_t words = 0;
  for (auto _ : state) {
    const auto r = exhaustive::check_batch(m, windows, {});
    benchmark::DoNotOptimize(r.outcomes.data());
    words += r.words_simulated;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(words) * 64);
  state.counters["windows"] = static_cast<double>(windows.size());
}
BENCHMARK(BM_ExhaustiveSupportSize)->DenseRange(4, 10, 2);

/// Effect of the memory budget M: smaller budgets force more rounds
/// (Alg. 1 lines 2-5) over the same total work.
void BM_ExhaustiveMemoryBudget(benchmark::State& state) {
  const aig::Aig m = aig::make_miter(gen::ripple_adder(9),
                                     gen::kogge_stone_adder(9));
  const auto windows = po_windows(m, 19);
  exhaustive::Params p;
  p.memory_words = static_cast<std::size_t>(state.range(0));
  std::size_t rounds = 0;
  for (auto _ : state) {
    const auto r = exhaustive::check_batch(m, windows, p);
    benchmark::DoNotOptimize(r.outcomes.data());
    rounds = r.rounds;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_ExhaustiveMemoryBudget)->RangeMultiplier(8)->Range(1 << 10, 1 << 22);

/// Window merging: same checks with and without merging.
void BM_WindowMerging(benchmark::State& state) {
  const bool merge = state.range(0) != 0;
  const aig::Aig m = aig::make_miter(gen::ripple_adder(8),
                                     gen::kogge_stone_adder(8));
  for (auto _ : state) {
    auto windows = po_windows(m, 17);
    if (merge) windows = window::merge_windows(m, std::move(windows), 17);
    const auto r = exhaustive::check_batch(m, windows, {});
    benchmark::DoNotOptimize(r.outcomes.data());
  }
}
BENCHMARK(BM_WindowMerging)->Arg(0)->Arg(1);

/// Batch growth: many independent small windows (window dimension of
/// paper Fig. 3).
void BM_ExhaustiveBatchSize(benchmark::State& state) {
  const unsigned copies = static_cast<unsigned>(state.range(0));
  const aig::Aig a = xor_forest(copies, 8);
  const auto windows = xor_forest_windows(a, 8);
  for (auto _ : state) {
    const auto r = exhaustive::check_batch(a, windows, {});
    benchmark::DoNotOptimize(r.outcomes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          copies);
}
BENCHMARK(BM_ExhaustiveBatchSize)->RangeMultiplier(4)->Range(4, 256);

// ---------------------------------------------------------------------------
// JSON emitter (--json FILE [--smoke]): fixed configs, stable metric.
// ---------------------------------------------------------------------------

struct JsonRow {
  std::string name;
  std::size_t windows = 0;
  std::size_t reps = 0;
  double wall_seconds = 0.0;
  std::size_t words_simulated = 0;
  double words_per_sec = 0.0;
  std::size_t rounds = 0;
  std::size_t entry_words = 0;
  std::size_t lanes = 0;
  /// Simulator counters accumulated over the timed reps (obs registry
  /// snapshot; publishing happens at batch end, outside the hot loops, so
  /// the overhead contract of DESIGN.md §2.3 keeps the numbers honest).
  obs::Snapshot obs;
};

JsonRow measure(const char* name, const aig::Aig& a,
                const std::vector<window::Window>& windows,
                std::size_t min_reps, double min_seconds) {
  JsonRow row;
  row.name = name;
  row.windows = windows.size();
  obs::Registry registry;
  exhaustive::Params params;
  params.obs = &registry;
  // Warm-up rep (first-touch page faults, cache fill) — uninstrumented so
  // the counters cover exactly the timed reps.
  (void)exhaustive::check_batch(a, windows, {});
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    const auto r = exhaustive::check_batch(a, windows, params);
    benchmark::DoNotOptimize(r.outcomes.data());
    row.words_simulated += r.words_simulated;
    row.rounds = r.rounds;
    row.entry_words = r.entry_words;
    row.lanes = r.lanes;
    ++row.reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (row.reps < min_reps || elapsed < min_seconds);
  row.wall_seconds = elapsed;
  row.words_per_sec =
      static_cast<double>(row.words_simulated) / row.wall_seconds;
  row.obs = registry.snapshot();
  return row;
}

int run_json(const char* path, bool smoke) {
  std::vector<JsonRow> rows;

  // Config 1: many small windows. 128 independent 10-input XOR trees, one
  // tile each; the batch is small enough to run as one lane inline.
  {
    const aig::Aig a = xor_forest(128, 10);
    const auto windows = xor_forest_windows(a, 10);
    rows.push_back(measure("many_small_windows", a, windows,
                           smoke ? 3 : 20, smoke ? 0.2 : 2.0));
  }

  // Config 2: few large windows. PO checks of a 9-bit ripple-vs-Kogge-Stone
  // adder miter: ~11 windows with up to 19 inputs (8192-word tables), cut
  // into word-range tiles by the cache clamp and swept by every lane.
  {
    const aig::Aig m = aig::make_miter(gen::ripple_adder(9),
                                       gen::kogge_stone_adder(9));
    const auto windows = po_windows(m, 19);
    rows.push_back(measure("few_large_windows", m, windows,
                           smoke ? 2 : 5, smoke ? 0.2 : 2.0));
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_exhaustive: cannot open %s for writing\n",
                 path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_exhaustive\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n  \"configs\": [\n",
               smoke ? "smoke" : "full");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"windows\": %zu, \"reps\": %zu, "
                 "\"wall_seconds\": %.6f, \"words_simulated\": %zu, "
                 "\"words_per_sec\": %.3e, \"rounds\": %zu, "
                 "\"entry_words\": %zu, \"lanes\": %zu,\n     \"obs\": {",
                 r.name.c_str(), r.windows, r.reps, r.wall_seconds,
                 r.words_simulated, r.words_per_sec, r.rounds, r.entry_words,
                 r.lanes);
    // Simulator counters with flat dotted keys, next to the perf metric.
    for (std::size_t m = 0; m < r.obs.metrics.size(); ++m) {
      const obs::Metric& metric = r.obs.metrics[m];
      if (metric.kind == obs::MetricKind::kCounter)
        std::fprintf(f, "%s\"%s\": %llu", m > 0 ? ", " : "",
                     metric.name.c_str(),
                     static_cast<unsigned long long>(metric.count));
      else
        std::fprintf(f, "%s\"%s\": %.9g", m > 0 ? ", " : "",
                     metric.name.c_str(), metric.value);
    }
    std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::ferror(f) != 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_exhaustive: write to %s failed\n", path);
    return 1;
  }

  for (const JsonRow& r : rows)
    std::printf("%-22s %8zu reps  %9.3f s  %.3e words/sec\n", r.name.c_str(),
                r.reps, r.wall_seconds, r.words_per_sec);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Runtime echo of the compile-time instrumentation guard above: the
  // ctest bench_smoke log records that the binary it timed was clean.
  std::printf("uninstrumented: ok (no sanitizer feature macros at build)\n");
  const char* json_path = nullptr;
  bool smoke = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --json requires an output path\n");
        return 1;
      }
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (json_path != nullptr) return run_json(json_path, smoke);
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
