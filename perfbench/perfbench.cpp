/// \file perfbench.cpp
/// \brief Driver of the benchmark of record (see README.md).
///
/// Usage:
///   perfbench --workload <equiv_suite|refute_mutants|service_batch>
///             --seed <n> --seconds <s> --trace <0|1> --fixtures <file>
///             [--trace-out <trace.json>] [--commit <id>]
///             [--max-checks <n>]   (self-check: first n checks only)
///
/// Untraced runs (--trace 0) time the public entry points users call:
/// portfolio::combined_check (make_miter + combined_check_miter, what
/// `cec_tool` runs for one pair) and service::CecService (what `cec_tool
/// --batch` runs). A traced run (--trace 1) replays every check as the
/// chain of public calls combined_check_miter makes, with one span per
/// call, next to an untraced run of the same check, and prints the
/// per-layer metrics. The last stdout line is one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. A wrong verdict, a
/// counterexample that does not replay, or a traced chain that disagrees
/// with the untraced check exits 1 without that line.

#if !defined(__OPTIMIZE__)
#error "perfbench must be built with optimization (Release/RelWithDebInfo)"
#endif

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aig/cex.hpp"
#include "aig/miter.hpp"
#include "ckpt/resume.hpp"
#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "inputs.hpp"
#include "obs/metric_names.hpp"
#include "parallel/thread_pool.hpp"
#include "service/cec_service.hpp"
#include "spans.hpp"
#include "sweep/parallel_sweeper.hpp"

namespace {

using namespace perfbench;
namespace engine = simsweep::engine;
namespace obs = simsweep::obs;
namespace service = simsweep::service;
namespace sweep = simsweep::sweep;
using simsweep::Timer;

// --- Workload constants (README.md documents each). ---
constexpr double kEquivBudget = 60;    ///< per-check budget, equiv_suite
constexpr double kRefuteBudget = 7;    ///< per-check budget, refute_mutants
constexpr double kServiceDeadline = 10;  ///< per-job deadline, service_batch
constexpr unsigned kServiceJobs = 4;   ///< CecService max_concurrent_jobs
/// service_batch passes are short and their wall time depends on which
/// jobs end up last; at least this many keep the medians steady.
constexpr std::size_t kServiceMinPasses = 24;
constexpr int kSetupRepeats = 3;       ///< setup_s is the median of these

/// A wrong verdict, a counterexample that does not replay, or a traced
/// chain that measures a different program than the untraced check.
struct WrongAnswer : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Check {
  std::string name;
  aig::Aig a;
  aig::Aig b;
  bool expect_equiv = true;
  double budget = 0;  ///< engine.time_limit (whole combined flow)
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fixtures;
  std::string trace_out;
  std::string commit = "unknown";
  std::size_t max_checks = 0;  ///< self-check: keep only the first N (0 = all)
};

/// Mirrors cec_tool's signal flag: never raised, but passing it arms the
/// engine watchdog exactly as the CLI does.
std::atomic<bool> g_cancel{false};

double snap(const obs::Snapshot& s, std::string_view name) {
  const obs::Metric* m = s.find(name);
  return m != nullptr ? m->as_double() : 0.0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The highest percentile with at least ten samples beyond it. With fewer
/// than 20 samples no percentile at or above the median qualifies, and the
/// maximum is reported instead (percentile 100, zero samples beyond).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n >= 20) {
    t.value = xs[n - 11];
    t.beyond = 10;
    t.percentile = 100.0 * static_cast<double>(n - 10) / n;
  } else {
    t.value = xs.back();
  }
  return t;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host CPU time stolen by the hypervisor so far, in seconds summed over
/// all CPUs (/proc/stat); -1 where unavailable. A run whose steal is a
/// sizeable share of its wall time measured a contended host.
double cpu_steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / 100.0 : -1;  // USER_HZ
}

// ---------------------------------------------------------------------------
// Setup: workload inputs.
// ---------------------------------------------------------------------------

/// Builds one suite case, inside a `gen.case` span when tracing. The suite
/// seed is fixed: the fixture counterexamples are only valid for it.
gen::BenchCase make_case(const std::string& family, unsigned doublings,
                         SpanRecorder* rec) {
  gen::SuiteParams sp;
  sp.doublings = doublings;
  sp.seed = kFixtureSuiteSeed;
  const int id = rec != nullptr ? rec->begin("gen.case", -1, -1) : -1;
  gen::BenchCase c = gen::make_case(family, sp);
  if (rec != nullptr) rec->end(id);
  return c;
}

/// Kept mutants of one workload. Each fixture's counterexample is replayed
/// on the circuit pair and on its miter before the mutant is used, so an
/// `equivalent` verdict on it is a detected wrong answer.
std::vector<Check> mutant_checks(const std::vector<MutantFixture>& fixtures,
                                 const std::string& workload, double budget,
                                 SpanRecorder* rec) {
  std::vector<Check> out;
  std::map<std::pair<std::string, unsigned>, gen::BenchCase> cases;
  for (const MutantFixture& f : fixtures) {
    if (f.workload != workload) continue;
    const auto key = std::make_pair(f.family, f.doublings);
    auto it = cases.find(key);
    if (it == cases.end())
      it = cases
               .emplace(key, make_case(f.family, f.doublings, rec))
               .first;
    const gen::BenchCase& bc = it->second;
    Check c;
    c.name = bc.name + "#m" + std::to_string(f.mutant_seed);
    c.a = bc.original;
    c.b = mutate(bc.optimized, f.mutant_seed);
    c.expect_equiv = false;
    c.budget = budget;
    const int id = rec != nullptr ? rec->begin("aig.miter", -1, -1) : -1;
    const aig::Aig miter = aig::make_miter(c.a, c.b);
    if (rec != nullptr) rec->end(id);
    if (f.cex.size() != c.a.num_pis() || !distinguishes(c.a, c.b, f.cex) ||
        aig::find_failing_po(miter, f.cex) < 0)
      throw std::runtime_error("fixture counterexample does not replay: " +
                               c.name);
    out.push_back(std::move(c));
  }
  if (out.empty())
    throw std::runtime_error("no fixtures for workload " + workload);
  return out;
}

std::vector<Check> equiv_checks(const std::vector<std::string>& families,
                                const std::vector<unsigned>& doublings,
                                double budget, SpanRecorder* rec) {
  std::vector<Check> out;
  for (unsigned d : doublings) {
    for (const std::string& family : families) {
      gen::BenchCase bc = make_case(family, d, rec);
      Check c;
      c.name = bc.name;
      c.a = std::move(bc.original);
      c.b = std::move(bc.optimized);
      c.expect_equiv = true;
      c.budget = budget;
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<Check> build_inputs(const Options& opt,
                                const std::vector<MutantFixture>& fixtures,
                                SpanRecorder* rec) {
  if (opt.workload == "equiv_suite")
    return equiv_checks(gen::table2_families(), {1}, kEquivBudget, rec);
  if (opt.workload == "refute_mutants")
    return mutant_checks(fixtures, opt.workload, kRefuteBudget, rec);
  // service_batch: equivalent pairs plus the fixture mutants. Jobs carry
  // a deadline instead of a check budget.
  std::vector<Check> jobs =
      equiv_checks({"log2", "voter", "ac97_ctrl", "vga_lcd"}, {0, 1}, 0, rec);
  std::vector<Check> mutants = mutant_checks(fixtures, opt.workload, 0, rec);
  for (Check& m : mutants) jobs.push_back(std::move(m));
  return jobs;
}

// ---------------------------------------------------------------------------
// Verdict gate.
// ---------------------------------------------------------------------------

/// Returns true for a decided (correct) verdict, false for an undecided
/// one; throws WrongAnswer on a wrong verdict or a non-replaying CEX.
bool gate(const Check& c, Verdict v, const std::optional<std::vector<bool>>& cex) {
  if (v == Verdict::kUndecided) return false;
  const Verdict want =
      c.expect_equiv ? Verdict::kEquivalent : Verdict::kNotEquivalent;
  if (v != want)
    throw WrongAnswer(c.name + ": wrong verdict " + simsweep::to_string(v));
  if (cex && (cex->size() != c.a.num_pis() || !distinguishes(c.a, c.b, *cex)))
    throw WrongAnswer(c.name + ": counterexample does not replay");
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer accumulation.
// ---------------------------------------------------------------------------

using Layers = std::map<std::string, double>;

/// Folds one run report's module counters into the layer sums.
void add_report(const obs::Snapshot& s, Layers& L) {
  L["engine.po_s"] += snap(s, obs::metric::kEnginePoSeconds);
  L["engine.global_s"] += snap(s, obs::metric::kEngineGlobalSeconds);
  L["engine.local_s"] += snap(s, obs::metric::kEngineLocalSeconds);
  L["engine.other_s"] += snap(s, obs::metric::kEngineOtherSeconds);
  L["engine.initial_ands"] += snap(s, obs::metric::kEngineInitialAnds);
  L["engine.final_ands"] += snap(s, obs::metric::kEngineFinalAnds);
  L["engine.pairs_proved"] += snap(s, obs::metric::kEnginePairsProvedGlobal) +
                              snap(s, obs::metric::kEnginePairsProvedLocal);
  L["engine.pairs_disproved"] += snap(s, obs::metric::kEnginePairsDisproved);
  L["engine.cex_count"] += snap(s, obs::metric::kEngineCexCount);
  L["exhaustive.words_simulated"] +=
      snap(s, obs::metric::kExhaustiveWordsSimulated);
  L["exhaustive.batches"] += snap(s, obs::metric::kExhaustiveBatches);
  L["exhaustive.rounds"] += snap(s, obs::metric::kExhaustiveRounds);
  L["exhaustive.items"] += snap(s, obs::metric::kExhaustiveItems);
  L["exhaustive.windows_before"] += snap(s, obs::metric::kMergeWindowsBefore);
  L["exhaustive.windows_after"] += snap(s, obs::metric::kMergeWindowsAfter);
  for (int pass = 1; pass <= 3; ++pass) {
    const std::string p =
        std::string(obs::metric::kCutPassPrefix) + std::to_string(pass) + ".";
    L["cut.cuts_enumerated"] += snap(s, p + "cuts_enumerated");
    L["cut.checks"] += snap(s, p + "checks");
    L["cut.proved"] += snap(s, p + "proved");
  }
  L["sim.incremental_words"] +=
      snap(s, obs::metric::kPartialSimIncrementalWords);
  L["sim.full_resims"] += snap(s, obs::metric::kPartialSimFullResims);
  L["ec.refines"] += snap(s, obs::metric::kEcRefines);
  L["ec.eligible_pairs"] += snap(s, obs::metric::kEcEligiblePairs);
  L["ec.pairs_proved"] += snap(s, obs::metric::kEcPairsProved);
  L["miter.rebuilds"] += snap(s, obs::metric::kMiterRebuilds);
  L["miter.ands_removed"] += snap(s, obs::metric::kMiterAndsRemoved);
  L["sweep.sat_calls"] += snap(s, obs::metric::kSweeperSatCalls);
  L["sweep.conflicts"] += snap(s, obs::metric::kSweeperConflicts);
  L["sweep.pairs_proved"] += snap(s, obs::metric::kSweeperPairsProved);
  L["sweep.pairs_disproved"] += snap(s, obs::metric::kSweeperPairsDisproved);
  L["sweep.pairs_undecided"] += snap(s, obs::metric::kSweeperPairsUndecided);
}

/// Global-pool telemetry summed over the traced intervals (the pool only
/// keeps lifetime totals, so each interval is a difference).
struct PoolTally {
  double busy_seconds = 0;  ///< per-worker mean busy time
  double seconds = 0;
  std::uint64_t jobs = 0;
  std::uint64_t chunks = 0;

  static simsweep::parallel::PoolStats now() {
    return simsweep::parallel::ThreadPool::global().stats();
  }
  void add_since(const simsweep::parallel::PoolStats& before) {
    const simsweep::parallel::PoolStats after = now();
    busy_seconds += after.busy_mean * after.lifetime_seconds -
                    before.busy_mean * before.lifetime_seconds;
    seconds += after.lifetime_seconds - before.lifetime_seconds;
    jobs += after.jobs - before.jobs;
    chunks += after.chunks - before.chunks;
  }
  void publish(Layers& L, double passes) const {
    L["pool.busy_fraction"] = ratio(busy_seconds, seconds);
    L["pool.jobs"] = static_cast<double>(jobs) / passes;
    L["pool.chunks"] = static_cast<double>(chunks) / passes;
  }
};

// ---------------------------------------------------------------------------
// Traced chain: the calls combined_check_miter makes, one span per call.
// ---------------------------------------------------------------------------

struct ChainResult {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  sweep::SweeperStats sweeper;
  obs::Snapshot report;
};

ChainResult traced_check(const Check& c, const portfolio::CombinedParams& params,
                         SpanRecorder& rec, int check_id) {
  ChainResult out;
  const ScopedSpan check(rec, "portfolio.check", -1, check_id);
  aig::Aig miter;
  {
    const ScopedSpan s(rec, "aig.make_miter", check.id(), check_id);
    miter = aig::make_miter(c.a, c.b);
  }
  // combined_check_miter's own clock starts after the miter exists.
  const Timer total;
  obs::Registry registry;
  engine::EngineParams ep = params.engine;
  ep.registry = &registry;
  registry.add(obs::metric::kEngineAttempts, 1);
  engine::EngineResult er;
  {
    const ScopedSpan s(rec, "engine.check_miter", check.id(), check_id);
    er = engine::SimCecEngine(ep).check_miter(miter);
    // The engine's own phase split, laid out inside its span.
    double t = rec.span(s.id()).start;
    const std::pair<const char*, double> phases[] = {
        {"engine.po", er.stats.po_seconds},
        {"engine.global", er.stats.global_seconds},
        {"engine.local", er.stats.local_seconds},
        {"engine.other", er.stats.other_seconds}};
    for (const auto& [name, secs] : phases) {
      rec.add(name, t, t + secs, s.id(), check_id);
      t += secs;
    }
  }
  engine::publish_engine_stats(registry, er.stats);
  out.verdict = er.verdict;
  out.cex = std::move(er.cex);

  const double budget = params.engine.time_limit;
  const auto remaining = [&] {
    return budget > 0 ? std::max(0.0, budget - total.seconds()) : 0.0;
  };
  bool used_sat = false;
  double sat_seconds = 0;
  if (er.verdict == Verdict::kUndecided && (budget <= 0 || remaining() > 0)) {
    used_sat = true;
    sweep::SweeperParams sp = params.sweeper;
    if (budget > 0) {
      const double rem = std::max(1e-6, remaining());
      sp.time_limit = sp.time_limit > 0 ? std::min(sp.time_limit, rem) : rem;
    }
    if (params.transfer_ec && er.bank &&
        er.bank->num_pis() == er.reduced.num_pis())
      sp.initial_bank = &*er.bank;
    const Timer sat_timer;
    sweep::SweepResult sr;
    {
      const ScopedSpan s(rec, "sweep.sweep_miter", check.id(), check_id);
      sr = sweep::sweep_miter(er.reduced, sp);
    }
    sat_seconds = sat_timer.seconds();
    out.verdict = sr.verdict;
    out.cex = std::move(sr.cex);
    out.sweeper = sr.stats;
  }
  portfolio::publish_sweeper_stats(registry, used_sat, out.sweeper,
                                   sat_seconds);
  out.report = registry.snapshot();
  return out;
}

bool same_sweep_counters(const sweep::SweeperStats& x,
                         const sweep::SweeperStats& y) {
  return x.sat_calls == y.sat_calls && x.conflicts == y.conflicts &&
         x.pairs_proved == y.pairs_proved &&
         x.pairs_disproved == y.pairs_disproved &&
         x.pairs_undecided == y.pairs_undecided;
}

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

struct Measured {
  std::vector<double> latencies;  ///< every attempted check/job
  std::vector<double> pass_walls;
  std::vector<double> pass_rates;  ///< decided checks per wall second
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failed_names;
  std::map<std::string, std::vector<double>> by_check;  ///< latencies
  Layers layers;        ///< traced runs: per-pass layer sums
  PoolTally pool;       ///< traced runs: global pool over traced work
  std::vector<double> queue_s;
  std::vector<double> run_s;
  double overhead_pct = 0;
};

void record_check(Measured& m, const Check& c, double secs, bool decided) {
  m.latencies.push_back(secs);
  m.by_check[c.name].push_back(secs);
  ++m.attempted;
  if (!decided) {
    ++m.failed;
    if (std::find(m.failed_names.begin(), m.failed_names.end(), c.name) ==
        m.failed_names.end())
      m.failed_names.push_back(c.name);
  }
}

std::vector<std::size_t> shuffled(std::size_t n, simsweep::Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// equiv_suite / refute_mutants: a closed loop, one check at a time, over
/// seeded orderings of the checks, in whole passes until `seconds` ran.
Measured run_checks(const std::vector<Check>& checks, const Options& opt,
                    SpanRecorder* rec) {
  Measured m;
  simsweep::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 1);
  double untraced_sum = 0;
  int check_id = 0;
  const Timer run;
  do {
    const Timer pass;
    std::size_t decided = 0;
    for (std::size_t i : shuffled(checks.size(), rng)) {
      const Check& c = checks[i];
      const portfolio::CombinedParams params = cli_params(&g_cancel, c.budget);
      const Timer t;
      const portfolio::CombinedResult r =
          portfolio::combined_check(c.a, c.b, params);
      const double secs = t.seconds();
      const bool ok = gate(c, r.verdict, r.cex);
      decided += ok ? 1 : 0;
      record_check(m, c, secs, ok);
      if (rec == nullptr) continue;

      untraced_sum += secs;
      const simsweep::parallel::PoolStats pool_before = PoolTally::now();
      const ChainResult tr = traced_check(c, params, *rec, check_id++);
      m.pool.add_since(pool_before);
      gate(c, tr.verdict, tr.cex);
      if (ok && (tr.verdict != r.verdict ||
                 !same_sweep_counters(tr.sweeper, r.sweeper_stats)))
        throw WrongAnswer(c.name +
                          ": traced chain disagrees with combined_check");
      add_report(tr.report, m.layers);
    }
    // In a traced run the pass also holds the traced replays; its wall
    // time is not an end-to-end figure.
    m.pass_walls.push_back(pass.seconds());
    m.pass_rates.push_back(decided / pass.seconds());
  } while (run.seconds() < opt.seconds);

  if (rec != nullptr) {
    Layers& L = m.layers;
    const double passes = static_cast<double>(m.pass_walls.size());
    for (auto& [name, v] : L) v /= passes;
    double check_s = 0, covered = 0, unattributed = 0;
    for (std::size_t i = 0; i < rec->spans().size(); ++i) {
      const SpanRecorder::Span& s = rec->spans()[i];
      if (s.name != "portfolio.check") continue;
      check_s += s.seconds();
      const double self = rec->self_seconds(static_cast<int>(i));
      unattributed += self;
      covered += s.seconds() - self;
    }
    L["portfolio.check_s"] = check_s / passes;
    L["portfolio.unattributed_s"] = unattributed / passes;
    L["trace.coverage_pct"] = 100.0 * ratio(covered, check_s);
    L["aig.miter_s"] = rec->total("aig.make_miter") / passes;
    L["engine.s"] = rec->total("engine.check_miter") / passes;
    L["sweep.s"] = rec->total("sweep.sweep_miter") / passes;
    m.pool.publish(L, passes);
    m.overhead_pct = 100.0 * (ratio(check_s, untraced_sum) - 1.0);
  }
  return m;
}

/// service_batch: one pass = one fresh CecService fed a seeded job stream
/// (one job in four resubmits an earlier one) by a closed loop of
/// kServiceJobs clients (never more than nproc), each submitting its next
/// job only after wait() returned the previous one, until the stream is
/// drained.
struct ServicePass {
  double wall = 0;
  std::size_t decided = 0;
};

std::vector<std::size_t> job_stream(std::size_t distinct, simsweep::Rng& rng) {
  std::vector<std::size_t> stream;
  for (std::size_t fresh : shuffled(distinct, rng)) {
    if (stream.size() % 4 == 3) stream.push_back(stream[rng.below(stream.size())]);
    stream.push_back(fresh);
  }
  return stream;
}

ServicePass service_pass(const std::vector<Check>& jobs,
                         const std::vector<std::size_t>& stream, Measured& m,
                         SpanRecorder* rec, int& check_id) {
  struct Record {
    double submitted = 0;  ///< seconds since the pass started
    double submit_returned = 0;
    double done = 0;
    service::JobResult result;
  };
  std::vector<Record> records(stream.size());
  const unsigned clients = std::max(
      1u, std::min(kServiceJobs, std::thread::hardware_concurrency()));
  const double origin = rec != nullptr ? rec->now() : 0;
  ServicePass out;
  const Timer wall;
  {
    service::ServiceParams sp;
    sp.max_concurrent_jobs = kServiceJobs;
    service::CecService svc(sp);
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(clients);
    {
      // audit:exempt(benchmark clients: each blocks in wait() for its job)
      std::vector<std::thread> threads;
      for (unsigned t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
          try {
            for (std::size_t i = next++; i < stream.size(); i = next++) {
              const Check& c = jobs[stream[i]];
              service::JobSpec spec;
              spec.id = c.name;
              spec.a = c.a;
              spec.b = c.b;
              spec.params = cli_params(&g_cancel, 0);
              spec.deadline_seconds = kServiceDeadline;
              Record& r = records[i];
              r.submitted = wall.seconds();
              const std::size_t ticket = svc.submit(std::move(spec));
              r.submit_returned = wall.seconds();
              r.result = svc.wait(ticket);
              r.done = wall.seconds();
            }
          } catch (...) {
            errors[t] = std::current_exception();
          }
        });
      }
      for (std::thread& th : threads) th.join();
    }
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    if (rec != nullptr)
      m.layers["service.jobs_rejected"] += static_cast<double>(
          svc.metrics().count(obs::metric::kServiceJobsRejected));
  }  // the destructor drains and joins, as one `cec_tool --batch` call does
  out.wall = wall.seconds();

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Record& rc = records[i];
    const service::JobResult& r = rc.result;
    const Check& c = jobs[stream[i]];
    const bool ok = r.error.empty() && gate(c, r.verdict, r.cex);
    out.decided += ok ? 1 : 0;
    record_check(m, c, rc.done - rc.submitted, ok);
    if (rec == nullptr) continue;
    const int id = check_id++;
    const double t0 = origin + rc.submitted;
    const int job = rec->add("service.job", t0, origin + rc.done, -1, id, false);
    rec->add("service.submit", t0, origin + rc.submit_returned, job, id, false);
    rec->add("service.queue", t0, t0 + r.queue_seconds, job, id);
    rec->add("service.run", t0 + r.queue_seconds,
             t0 + r.queue_seconds + r.run_seconds, job, id);
    m.queue_s.push_back(r.queue_seconds);
    m.run_s.push_back(r.run_seconds);
    m.layers["service.jobs"] += 1;
    if (r.cache_hit) {
      m.layers["service.cache_hits"] += 1;
    } else {
      add_report(r.report, m.layers);
      m.layers["engine.s"] += snap(r.report, obs::metric::kEngineTotalSeconds);
      m.layers["sweep.s"] += snap(r.report, obs::metric::kSweeperSeconds);
    }
  }
  return out;
}

Measured run_service(const std::vector<Check>& jobs, const Options& opt,
                     SpanRecorder* rec) {
  Measured m;
  simsweep::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 2);
  int check_id = 0;
  std::vector<double> traced_walls;
  const Timer run;
  do {
    const std::vector<std::size_t> stream = job_stream(jobs.size(), rng);
    // Traced runs alternate untraced and traced passes; the untraced ones
    // give the overhead baseline.
    if (rec != nullptr && m.pass_walls.size() > traced_walls.size()) {
      // The client-side cost the service pays per job, timed outside the
      // closed loop so it does not perturb it.
      for (std::size_t j : stream) {
        aig::Aig miter;
        {
          const ScopedSpan s(*rec, "aig.make_miter", -1, -1);
          miter = aig::make_miter(jobs[j].a, jobs[j].b);
        }
        const ScopedSpan s(*rec, "ckpt.run_fingerprint", -1, -1);
        (void)simsweep::ckpt::run_fingerprint(miter, cli_params(&g_cancel, 0));
      }
      const simsweep::parallel::PoolStats pool_before = PoolTally::now();
      traced_walls.push_back(
          service_pass(jobs, stream, m, rec, check_id).wall);
      m.pool.add_since(pool_before);
      continue;
    }
    const ServicePass p = service_pass(jobs, stream, m, nullptr, check_id);
    m.pass_walls.push_back(p.wall);
    m.pass_rates.push_back(p.decided / p.wall);
  } while (run.seconds() < opt.seconds ||
           m.pass_walls.size() < kServiceMinPasses ||
           (rec != nullptr && traced_walls.empty()));

  if (rec != nullptr) {
    Layers& L = m.layers;
    const double passes = static_cast<double>(traced_walls.size());
    for (auto& [name, v] : L) v /= passes;
    L["aig.miter_s"] = rec->total("aig.make_miter") / passes;
    L["ckpt.fingerprint_s"] = rec->total("ckpt.run_fingerprint") / passes;
    L["portfolio.check_s"] = rec->total("service.run") / passes;
    m.pool.publish(L, passes);
    m.overhead_pct =
        100.0 * (ratio(median(traced_walls), median(m.pass_walls)) - 1.0);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<MetricOut>& metrics, std::size_t attempted,
                  std::size_t failed) {
  for (const MetricOut& mo : metrics)
    std::printf("%-28s %.6g %s\n", mo.name.c_str(), mo.value, mo.unit.c_str());
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<MetricOut> end_to_end(const Measured& m, double setup_s,
                                  Tail* tail) {
  *tail = tail_of(m.latencies);
  return {{"setup_s", setup_s, "s"},
          {"wall_s", median(m.pass_walls), "s"},
          {"check_s.p50", median(m.latencies), "s"},
          {"check_s.tail", tail->value, "s"},
          {"check_s.geomean", geomean(m.latencies), "s"},
          {"checks_per_s", median(m.pass_rates), "1/s"},
          {"peak_rss_mib", peak_rss_mib(), "MiB"}};
}

std::vector<MetricOut> per_layer(const Measured& m, const Layers& setup) {
  Layers L = m.layers;
  const auto get = [&](const char* name) { return L[name]; };
  return {
      {"gen.case_s", setup.count("gen.case_s") ? setup.at("gen.case_s") : 0,
       "s"},
      {"aig.miter_s", get("aig.miter_s"), "s"},
      {"portfolio.check_s", get("portfolio.check_s"), "s"},
      {"portfolio.unattributed_s", get("portfolio.unattributed_s"), "s"},
      {"engine.s", get("engine.s"), "s"},
      {"engine.po_s", get("engine.po_s"), "s"},
      {"engine.global_s", get("engine.global_s"), "s"},
      {"engine.local_s", get("engine.local_s"), "s"},
      {"engine.other_s", get("engine.other_s"), "s"},
      {"engine.reduction_pct",
       100.0 * (1.0 - ratio(get("engine.final_ands"),
                            get("engine.initial_ands"))),
       "%"},
      {"engine.pairs_proved", get("engine.pairs_proved"), "count"},
      {"engine.pairs_disproved", get("engine.pairs_disproved"), "count"},
      {"engine.cex_count", get("engine.cex_count"), "count"},
      {"exhaustive.words_simulated", get("exhaustive.words_simulated"),
       "count"},
      {"exhaustive.batches", get("exhaustive.batches"), "count"},
      {"exhaustive.rounds", get("exhaustive.rounds"), "count"},
      {"exhaustive.items", get("exhaustive.items"), "count"},
      {"exhaustive.merge_ratio",
       ratio(get("exhaustive.windows_after"), get("exhaustive.windows_before")),
       "ratio"},
      {"cut.cuts_enumerated", get("cut.cuts_enumerated"), "count"},
      {"cut.checks", get("cut.checks"), "count"},
      {"cut.proved", get("cut.proved"), "count"},
      {"cut.proof_ratio", ratio(get("cut.proved"), get("cut.checks")),
       "ratio"},
      {"sim.incremental_words", get("sim.incremental_words"), "count"},
      {"sim.full_resims", get("sim.full_resims"), "count"},
      {"ec.refines", get("ec.refines"), "count"},
      {"ec.eligible_pairs", get("ec.eligible_pairs"), "count"},
      {"ec.pair_yield", ratio(get("ec.pairs_proved"), get("ec.eligible_pairs")),
       "ratio"},
      {"miter.rebuilds", get("miter.rebuilds"), "count"},
      {"miter.ands_removed", get("miter.ands_removed"), "count"},
      {"sweep.s", get("sweep.s"), "s"},
      {"sweep.sat_calls", get("sweep.sat_calls"), "count"},
      {"sweep.conflicts", get("sweep.conflicts"), "count"},
      {"sweep.conflicts_per_s", ratio(get("sweep.conflicts"), get("sweep.s")),
       "1/s"},
      {"sweep.pairs_proved", get("sweep.pairs_proved"), "count"},
      {"sweep.pairs_disproved", get("sweep.pairs_disproved"), "count"},
      {"sweep.pairs_undecided", get("sweep.pairs_undecided"), "count"},
      {"sweep.decided_per_call",
       ratio(get("sweep.pairs_proved") + get("sweep.pairs_disproved"),
             get("sweep.sat_calls")),
       "ratio"},
      {"service.queue_s.p50", median(m.queue_s), "s"},
      {"service.run_s.p50", median(m.run_s), "s"},
      {"service.cache_hit_ratio",
       ratio(get("service.cache_hits"), get("service.jobs")), "ratio"},
      {"service.jobs_rejected", get("service.jobs_rejected"), "count"},
      {"ckpt.fingerprint_s", get("ckpt.fingerprint_s"), "s"},
      {"pool.busy_fraction", get("pool.busy_fraction"), "ratio"},
      {"pool.jobs", get("pool.jobs"), "count"},
      {"pool.chunks", get("pool.chunks"), "count"},
      {"trace.coverage_pct", get("trace.coverage_pct"), "%"},
      {"trace.overhead_pct", m.overhead_pct, "%"},
  };
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload <equiv_suite|refute_mutants|"
               "service_batch> --seed <n> --seconds <s> --trace <0|1> "
               "--fixtures <file> [--trace-out <file>] [--commit <id>] "
               "[--max-checks <n>]\n",
               prog);
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") opt.trace = std::strcmp(val, "0") != 0;
    else if (key == "--fixtures") opt.fixtures = val;
    else if (key == "--trace-out") opt.trace_out = val;
    else if (key == "--commit") opt.commit = val;
    else if (key == "--max-checks") opt.max_checks = std::strtoull(val, nullptr, 10);
    else return usage(argv[0]);
  }
  if (argc % 2 == 0 || opt.fixtures.empty() || opt.seconds <= 0 ||
      (opt.workload != "equiv_suite" && opt.workload != "refute_mutants" &&
       opt.workload != "service_batch"))
    return usage(argv[0]);

  std::printf("provenance {\"host_cores\": %u, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"commit\": \"%s\", \"workload\": "
              "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, opt.commit.c_str(), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);

  const std::vector<MutantFixture> fixtures = load_fixtures(opt.fixtures);
  std::optional<SpanRecorder> rec;
  if (opt.trace) rec.emplace();

  // Setup, repeated; setup_s is the median. Only the first repeat is
  // traced, so the gen/aig spans cover exactly one setup.
  std::vector<double> setup_times;
  std::vector<Check> checks;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Timer t;
    checks = build_inputs(opt, fixtures, i == 0 && rec ? &*rec : nullptr);
    setup_times.push_back(t.seconds());
  }
  if (opt.max_checks > 0 && checks.size() > opt.max_checks)
    checks.resize(opt.max_checks);
  Layers setup_layers;
  if (rec) setup_layers["gen.case_s"] = rec->total("gen.case");
  std::printf("setup      %zu checks, setup %.3fs (median of %d)\n",
              checks.size(), median(setup_times), kSetupRepeats);

  const double steal_before = cpu_steal_seconds();
  const Timer measure;
  const Measured m = opt.workload == "service_batch"
                         ? run_service(checks, opt, rec ? &*rec : nullptr)
                         : run_checks(checks, opt, rec ? &*rec : nullptr);

  const double steal_after = cpu_steal_seconds();
  std::printf("host       {\"measured_s\": %.3f, \"cpu_steal_s\": %.3f}\n",
              measure.seconds(),
              steal_before >= 0 && steal_after >= 0 ? steal_after - steal_before
                                                    : -1.0);
  Tail tail;
  const std::vector<MetricOut> e2e = end_to_end(m, median(setup_times), &tail);
  std::printf("failures   {\"attempted\": %zu, \"failed\": %zu, "
              "\"undecided\": [",
              m.attempted, m.failed);
  for (std::size_t i = 0; i < m.failed_names.size(); ++i)
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", m.failed_names[i].c_str());
  std::printf("]}\n");
  std::printf("checks     {");
  for (auto it = m.by_check.begin(); it != m.by_check.end(); ++it)
    std::printf("%s\"%s\": %.4g", it == m.by_check.begin() ? "" : ", ",
                it->first.c_str(), median(it->second));
  std::printf("}  (median seconds per check)\n");
  std::vector<double> walls = m.pass_walls;
  std::sort(walls.begin(), walls.end());
  std::printf("passes     {\"count\": %zu, \"wall_min\": %.4g, "
              "\"wall_q1\": %.4g, \"wall_q3\": %.4g, \"wall_max\": %.4g}\n",
              walls.size(), walls.front(), walls[walls.size() / 4],
              walls[walls.size() * 3 / 4], walls.back());
  std::printf("tail       {\"percentile\": %.4g, \"samples_beyond\": %zu, "
              "\"samples\": %zu}\n",
              tail.percentile, tail.beyond, tail.samples);
  if (rec && !opt.trace_out.empty()) {
    if (!rec->write_json(opt.trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.trace_out.c_str());
      return 3;
    }
    std::printf("trace      %s (%zu spans)\n", opt.trace_out.c_str(),
                rec->spans().size());
  }
  print_result(opt.trace ? per_layer(m, setup_layers) : e2e, m.attempted,
               m.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const WrongAnswer& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "WRONG: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
