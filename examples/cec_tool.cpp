/// \file cec_tool.cpp
/// \brief A command-line equivalence checker over AIGER files — the
/// "&cec"-style front end of the library.
///
/// Usage:
///   ./cec_tool [options] (<a.aig> <b.aig> | --demo)
///
/// Options:
///   --demo                 generate a demo pair in the working directory
///                          and check it
///   --json-report <path>   write the run's metric snapshot (DESIGN.md
///                          §2.3, schema simsweep.run_report.v3)
///   --checkpoint <path>    durable checkpoint/resume (DESIGN.md §2.8):
///                          snapshot at phase/round boundaries, resume
///                          from the last good snapshot of the same run
///   --checkpoint-interval <sec>  throttle durable writes (default 0 =
///                          every boundary)
///   --no-resume            ignore an existing checkpoint (overwrite mode)
///   --supervise            fork the run into a watched child; on abnormal
///                          exit re-run from the last-good checkpoint with
///                          exponential backoff (requires --checkpoint)
///   --max-restarts <n>     abnormal exits tolerated by --supervise
///                          (default 3)
///   --arm-fault <site:nth> arm one catalogued injection site (DESIGN.md
///                          §2.4) for crash/IO drills; under --supervise
///                          only the first attempt is armed
///   --drill-signal <TERM|INT>  raise that signal against the tool itself
///                          after the first durable checkpoint write (the
///                          kill-and-resume walkthrough's scripted kill)
///
/// Batch service mode (DESIGN.md §2.9) — mutually exclusive with the
/// single-pair form:
///   --batch <jobs.jsonl>   run a JSON-lines job file through one
///                          CecService; per-job result lines go to stdout
///   --serve                same, but jobs stream in on stdin and result
///                          lines stream out as jobs complete (submission
///                          order)
///   --jobs <n>             concurrent jobs (service worker threads;
///                          default 1)
///   --memory-budget <MiB>  shared admission-ledger budget (default 0 =
///                          unlimited)
///   --cache-capacity <n>   verdict-cache entries (default 1024; 0
///                          disables)
///   --service-report <path>  write the aggregate service.* metric
///                          snapshot
///
/// SIGINT/SIGTERM request a graceful stop: the flow cancels at the next
/// checkpoint, the pending snapshot and the JSON report are flushed, and
/// the tool exits 4 so callers can distinguish "interrupted but resumable"
/// from a verdict.
///
/// Exit code: 0 equivalent, 1 not equivalent, 2 undecided, 3 error (bad
/// usage, unreadable/malformed input, or any internal failure — every
/// exception is caught and reported as a one-line diagnostic; the tool
/// never crashes on bad input), 4 interrupted with state flushed.

#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig_io.hpp"
#include "aig/cex.hpp"
#include "aig/miter.hpp"
#include "ckpt/resume.hpp"
#include "ckpt/supervisor.hpp"
#include "fault/fault.hpp"
#include "gen/suite.hpp"
#include "obs/metric_names.hpp"
#include "obs/report.hpp"
#include "portfolio/portfolio.hpp"
#include "service/cec_service.hpp"
#include "service/json_jobs.hpp"

namespace {

/// Set by the SIGINT/SIGTERM handler; polled by the engine and sweeper at
/// their cancellation checkpoints, so a signal degrades the run to a
/// flushed kUndecided instead of killing it mid-write.
std::atomic<bool> g_cancel{false};

void handle_signal(int) { g_cancel.store(true, std::memory_order_relaxed); }

struct Options {
  bool demo = false;
  std::string report_path;
  std::string checkpoint;
  double checkpoint_interval = 0;
  bool resume = true;
  bool supervise = false;
  unsigned max_restarts = 3;
  std::string arm_site;
  std::uint64_t arm_nth = 1;
  int drill_signal = 0;
  std::string batch_path;
  bool serve = false;
  unsigned jobs = 1;
  std::uint64_t memory_budget_mib = 0;
  std::size_t cache_capacity = 1024;
  std::string service_report_path;
  std::vector<std::string> files;
};

/// The CLI-wide job defaults: every batch/serve job starts from the same
/// rescaled engine parameters as the single-pair path and shares the
/// tool's cancellation flag, then the JSON line overrides what it names.
simsweep::service::JobSpec default_job_spec() {
  simsweep::service::JobSpec spec;
  spec.params.engine.k_P = 24;
  spec.params.engine.k_p = 14;
  spec.params.engine.k_g = 14;
  spec.params.engine.cancel = &g_cancel;
  spec.params.sweeper.cancel = &g_cancel;
  return spec;
}

simsweep::service::ServiceParams service_params(const Options& opt) {
  simsweep::service::ServiceParams sp;
  sp.max_concurrent_jobs = opt.jobs;
  sp.memory_budget_bytes = opt.memory_budget_mib << 20;
  sp.cache_capacity = opt.cache_capacity;
  return sp;
}

/// Flushes the aggregate service.* snapshot; shared by batch and serve.
int write_service_report(simsweep::service::CecService& svc,
                         const Options& opt) {
  if (opt.service_report_path.empty()) return 0;
  if (!simsweep::obs::write_json_file(svc.metrics(),
                                      opt.service_report_path)) {
    std::fprintf(stderr, "error: cannot write service report to %s\n",
                 opt.service_report_path.c_str());
    return 3;
  }
  std::printf("report:   %s\n", opt.service_report_path.c_str());
  return 0;
}

/// True for lines the job-file grammar skips (blank, '#' comments).
bool is_skippable(const std::string& line) {
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    return c == '#';
  }
  return true;
}

/// --batch: parse the whole file, run it as one atomic batch (so
/// priorities order the dispatch), print one result line per job in
/// submission order. Exit 0 iff every line parsed and every job ran
/// error-free (individual verdicts do not affect the exit code — callers
/// read them from the result lines).
int run_batch(const Options& opt) {
  using namespace simsweep;
  std::FILE* f = std::fopen(opt.batch_path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", opt.batch_path.c_str());
    return 3;
  }
  std::vector<service::JobSpec> specs;
  bool bad_input = false;
  std::string line;
  std::size_t line_no = 0;
  for (int c = std::fgetc(f); ; c = std::fgetc(f)) {
    if (c != EOF && c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    ++line_no;
    if (!is_skippable(line)) {
      service::JobSpec spec = default_job_spec();
      std::string error;
      if (service::parse_job_line(line, &spec, &error)) {
        specs.push_back(std::move(spec));
      } else {
        std::fprintf(stderr, "error: %s:%zu: %s\n", opt.batch_path.c_str(),
                     line_no, error.c_str());
        bad_input = true;
      }
    }
    line.clear();
    if (c == EOF) break;
  }
  std::fclose(f);
  if (specs.empty()) {
    std::fprintf(stderr, "error: %s holds no jobs\n", opt.batch_path.c_str());
    return 3;
  }

  service::CecService svc(service_params(opt));
  const std::vector<service::JobResult> results =
      svc.run_batch(std::move(specs));
  bool job_failed = false;
  for (const service::JobResult& r : results) {
    std::printf("%s\n", service::result_to_json_line(r).c_str());
    job_failed = job_failed || !r.error.empty();
  }
  const obs::Snapshot m = svc.metrics();
  std::printf("batch:    %llu job(s), %llu cache hit(s), %llu rejected, "
              "%llu deadline-expired\n",
              static_cast<unsigned long long>(
                  m.count(obs::metric::kServiceJobsCompleted)),
              static_cast<unsigned long long>(
                  m.count(obs::metric::kServiceCacheHits)),
              static_cast<unsigned long long>(
                  m.count(obs::metric::kServiceJobsRejected)),
              static_cast<unsigned long long>(
                  m.count(obs::metric::kServiceDeadlineExpired)));
  const int report_rc = write_service_report(svc, opt);
  if (report_rc != 0) return report_rc;
  return bad_input || job_failed ? 3 : 0;
}

/// --serve: jobs stream in on stdin (one JSON object per line), results
/// stream out on stdout in submission order, each flushed as soon as it
/// is both complete and at the head of the pending window — so a client
/// pipelining independent jobs sees answers while later jobs still run.
int run_serve(const Options& opt) {
  using namespace simsweep;
  service::CecService svc(service_params(opt));
  std::vector<std::size_t> pending;  // tickets not yet printed, FIFO
  bool had_error = false;

  const auto drain_ready = [&](bool block) {
    while (!pending.empty()) {
      service::JobResult r;
      if (block) {
        r = svc.wait(pending.front());
      } else if (!svc.poll(pending.front(), &r)) {
        return;
      }
      pending.erase(pending.begin());
      std::printf("%s\n", service::result_to_json_line(r).c_str());
      std::fflush(stdout);
      had_error = had_error || !r.error.empty();
    }
  };

  std::string line;
  for (int c = std::fgetc(stdin); ; c = std::fgetc(stdin)) {
    if (c != EOF && c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    if (!is_skippable(line)) {
      service::JobSpec spec = default_job_spec();
      std::string error;
      if (service::parse_job_line(line, &spec, &error)) {
        pending.push_back(svc.submit(std::move(spec)));
      } else {
        service::JobResult bad;
        bad.id = "parse_error";
        bad.error = error;  // result_to_json_line escapes it
        std::printf("%s\n", service::result_to_json_line(bad).c_str());
        std::fflush(stdout);
        had_error = true;
      }
    }
    line.clear();
    drain_ready(/*block=*/false);
    if (c == EOF || g_cancel.load(std::memory_order_relaxed)) break;
  }
  drain_ready(/*block=*/true);
  const int report_rc = write_service_report(svc, opt);
  if (report_rc != 0) return report_rc;
  return had_error ? 3 : 0;
}

int check(const simsweep::aig::Aig& a, const simsweep::aig::Aig& b,
          const Options& opt, const simsweep::ckpt::SupervisorProgress& sup) {
  using namespace simsweep;
  // Arm the requested drill. Under --supervise only the FIRST attempt
  // arms it: the installed plan is process-wide state, and the drill that
  // crashed the child must not re-fire in the restarted one (the point of
  // the restart is to get past the fault).
  std::optional<fault::ScopedFaultPlan> armed;
  if (!opt.arm_site.empty() && (!opt.supervise || sup.restarts == 0)) {
    fault::FaultPlan plan;
    plan.on_hit(opt.arm_site, opt.arm_nth);
    armed.emplace(plan);
  }

  // The child owns the run report: restart telemetry handed down by the
  // supervisor is published here so it lands in the JSON snapshot.
  obs::Registry registry;
  registry.add(obs::metric::kSupervisorRestarts, sup.restarts);
  registry.add(obs::metric::kSupervisorBackoffMs, sup.backoff_ms);

  ckpt::CheckpointedParams cp;
  // The paper's engine parameters rescaled to CPU exhaustive-simulation
  // reach (2^24 patterns one-shot), matching the benches' convention.
  cp.combined.engine.k_P = 24;
  cp.combined.engine.k_p = 14;
  cp.combined.engine.k_g = 14;
  cp.combined.engine.registry = &registry;
  cp.combined.engine.cancel = &g_cancel;
  cp.combined.sweeper.cancel = &g_cancel;
  cp.checkpoint_path = opt.checkpoint;
  cp.checkpoint_interval = opt.checkpoint_interval;
  cp.resume = opt.resume;
  bool drill_fired = false;
  cp.on_write = [&] {
    if (opt.drill_signal != 0 && !drill_fired) {
      drill_fired = true;
      std::raise(opt.drill_signal);
    }
  };

  const ckpt::CheckpointedResult cr = ckpt::checked_combined_check(a, b, cp);
  const portfolio::CombinedResult& r = cr.combined;
  if (cr.resumed)
    std::printf("resume:   restored %llu proven pair(s) from %s\n",
                static_cast<unsigned long long>(cr.pairs_restored),
                opt.checkpoint.c_str());
  std::printf("engine:   %.3fs, reduced %.1f%% of the miter\n",
              r.engine_seconds, r.reduction_percent);
  if (r.used_sat)
    std::printf("sat:      %.3fs on the undecided residue\n", r.sat_seconds);
  std::printf("total:    %.3fs\nverdict:  %s\n", r.total_seconds,
              to_string(r.verdict));
  if (r.cex) {
    std::printf("cex:      ");
    for (bool v : *r.cex) std::printf("%d", v ? 1 : 0);
    std::printf("\n");
    // Report the minimized cube: which inputs actually matter.
    const aig::Aig miter = aig::make_miter(a, b);
    const int po = aig::find_failing_po(miter, *r.cex);
    if (po >= 0) {
      const aig::MinimizedCex mc =
          aig::minimize_cex(miter, *r.cex, static_cast<std::size_t>(po));
      std::printf("cube:     PO %d fails whenever", po);
      for (unsigned i = 0; i < miter.num_pis(); ++i)
        if (mc.care[i])
          std::printf(" x%u=%d", i, mc.values[i] ? 1 : 0);
      std::printf("  (%zu of %u inputs)\n", mc.num_care, miter.num_pis());
    }
  }
  if (!opt.report_path.empty()) {
    if (obs::write_json_file(r.report, opt.report_path)) {
      std::printf("report:   %s\n", opt.report_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write report to %s\n",
                   opt.report_path.c_str());
      return 3;
    }
  }
  // Interrupted-with-flush: the checkpoint (pending snapshot included)
  // and the report above are durable, so a re-invocation resumes. The
  // distinct exit code lets wrappers tell this apart from a verdict.
  if (g_cancel.load(std::memory_order_relaxed) &&
      r.verdict == Verdict::kUndecided) {
    std::printf("interrupted: checkpoint and report flushed\n");
    return 4;
  }
  switch (r.verdict) {
    case Verdict::kEquivalent: return 0;
    case Verdict::kNotEquivalent: return 1;
    case Verdict::kUndecided: return 2;
  }
  return 3;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--json-report <path>] "
               "[--checkpoint <path>] [--checkpoint-interval <sec>] "
               "[--no-resume] [--supervise] [--max-restarts <n>] "
               "[--arm-fault <site:nth>] [--drill-signal <TERM|INT>] "
               "(<a.aig> <b.aig> | --demo | --batch <jobs.jsonl> | --serve)\n"
               "       batch/serve options: [--jobs <n>] "
               "[--memory-budget <MiB>] [--cache-capacity <n>] "
               "[--service-report <path>]\n",
               prog);
  return 3;
}

int run(int argc, char** argv) {
  using namespace simsweep;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      opt.demo = true;
    } else if (std::strcmp(argv[i], "--json-report") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      opt.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      opt.checkpoint = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-interval") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      opt.checkpoint_interval = std::strtod(argv[++i], nullptr);
      if (opt.checkpoint_interval < 0) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--no-resume") == 0) {
      opt.resume = false;
    } else if (std::strcmp(argv[i], "--supervise") == 0) {
      opt.supervise = true;
    } else if (std::strcmp(argv[i], "--max-restarts") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v < 0 || v > 100) return usage(argv[0]);
      opt.max_restarts = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--arm-fault") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      opt.arm_site = spec.substr(0, colon);
      if (colon != std::string::npos) {
        const long n = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
        if (n < 1) return usage(argv[0]);
        opt.arm_nth = static_cast<std::uint64_t>(n);
      }
      bool known = false;
      for (const char* site : fault::kCataloguedSites)
        known = known || opt.arm_site == site;
      if (!known) {
        std::fprintf(stderr, "error: unknown fault site %s\n",
                     opt.arm_site.c_str());
        return 3;
      }
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      opt.batch_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      opt.serve = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v < 1 || v > 256) return usage(argv[0]);
      opt.jobs = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--memory-budget") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v < 0) return usage(argv[0]);
      opt.memory_budget_mib = static_cast<std::uint64_t>(v);
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v < 0) return usage(argv[0]);
      opt.cache_capacity = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--service-report") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      opt.service_report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--drill-signal") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string sig = argv[++i];
      if (sig == "TERM")
        opt.drill_signal = SIGTERM;
      else if (sig == "INT")
        opt.drill_signal = SIGINT;
      else
        return usage(argv[0]);
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      opt.files.emplace_back(argv[i]);
    }
  }
  const bool service_mode = !opt.batch_path.empty() || opt.serve;
  if (service_mode) {
    // Batch/serve owns the whole invocation: no single-pair inputs, and
    // the single-run plumbing (checkpoint/supervise/drill) does not
    // compose with a multiplexed job stream.
    if (!opt.batch_path.empty() && opt.serve) return usage(argv[0]);
    if (opt.demo || !opt.files.empty() || opt.supervise ||
        !opt.checkpoint.empty() || opt.drill_signal != 0)
      return usage(argv[0]);
  } else if (opt.demo ? !opt.files.empty() : opt.files.size() != 2) {
    return usage(argv[0]);
  }
  if (opt.supervise && opt.checkpoint.empty()) {
    std::fprintf(stderr,
                 "error: --supervise requires --checkpoint (a restarted "
                 "child resumes from the snapshot)\n");
    return 3;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (service_mode)
    return opt.serve ? run_serve(opt) : run_batch(opt);

  // One attempt = one full check. Under --supervise this body runs in a
  // forked child; exceptions must resolve to the documented one-line
  // diagnostic + exit 3 inside the attempt, because the supervisor only
  // sees the exit status.
  const auto attempt = [&](const ckpt::SupervisorProgress& sup) -> int {
    try {
      if (opt.demo) {
        // The multiplier pair exercises the whole flow (P, G and L
        // phases); simpler families are fully proved by PO checking alone.
        gen::SuiteParams sp;
        sp.doublings = 1;
        const gen::BenchCase c = gen::make_case("multiplier", sp);
        aig::write_aiger_file(c.original, "demo_original.aig");
        aig::write_aiger_file(c.optimized, "demo_optimized.aig");
        std::printf("wrote demo_original.aig (%zu ANDs) and "
                    "demo_optimized.aig (%zu ANDs)\n",
                    c.original.num_ands(), c.optimized.num_ands());
        return check(c.original, c.optimized, opt, sup);
      }
      const aig::Aig a = aig::read_aiger_file(opt.files[0].c_str());
      const aig::Aig b = aig::read_aiger_file(opt.files[1].c_str());
      std::printf("%s: %u PIs, %zu POs, %zu ANDs\n", opt.files[0].c_str(),
                  a.num_pis(), a.num_pos(), a.num_ands());
      std::printf("%s: %u PIs, %zu POs, %zu ANDs\n", opt.files[1].c_str(),
                  b.num_pis(), b.num_pos(), b.num_ands());
      return check(a, b, opt, sup);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 3;
    } catch (...) {
      std::fprintf(stderr, "error: unknown failure\n");
      return 3;
    }
  };

  if (opt.supervise) {
    ckpt::SupervisorParams sp;
    sp.max_restarts = opt.max_restarts;
    sp.backoff_initial_ms = 50;  // drills should not stall the test suite
    const ckpt::SupervisorOutcome so = ckpt::supervise(sp, attempt);
    if (so.gave_up) {
      std::fprintf(stderr,
                   "error: supervised run died abnormally %u time(s); "
                   "restart budget spent\n",
                   so.restarts + 1);
      return 3;
    }
    std::printf("supervisor: %u restart(s), %llu ms backoff\n", so.restarts,
                static_cast<unsigned long long>(so.backoff_ms));
    return so.exit_code;
  }
  return attempt(ckpt::SupervisorProgress{});
}

}  // namespace

int main(int argc, char** argv) {
  // Robustness contract (DESIGN.md §2.4): malformed inputs (truncated or
  // non-topological AIGER, unreadable files) and internal failures
  // surface as one diagnostic line and exit code 3 — never a crash or an
  // unhandled terminate. The `cli_bad_*` ctests pin this down.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (...) {
    std::fprintf(stderr, "error: unknown failure\n");
    return 3;
  }
}
