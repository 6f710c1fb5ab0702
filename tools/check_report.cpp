/// \file check_report.cpp
/// \brief Schema validator for the run report (`report_schema` ctest).
///
/// Runs `cec_tool --demo`'s multiplier pair (CPU-rescaled engine
/// parameters) under the full-flow preset (engine::full_flow), writes the
/// run report to argv[1], reads it back and validates it against schema
/// simsweep.run_report.v3 — including the acceptance contract that all
/// five paper-module sections carry nonzero counters and that the
/// robustness (`faults`, `degrade`, DESIGN.md §2.4) and
/// checkpoint-durability (`ckpt`, `supervisor`, §2.8) sections are
/// present with their expected leaves. A second (residue-sweep) and third
/// (batch-service, DESIGN.md §2.9) flow validate the sat_sweeper
/// refute-early gauges and the per-job/aggregate service reports. Leaves are checked
/// at their full dotted path through the shared JSON reader, so a
/// same-named leaf in another section does not satisfy a check. Exit code
/// 0 on success, 1 on any failure.
///
/// Usage: ./check_report <report-path>

#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gen/arith.hpp"
#include "gen/suite.hpp"
#include "obs/json.hpp"
#include "obs/metric_names.hpp"
#include "obs/report.hpp"
#include "portfolio/portfolio.hpp"
#include "service/cec_service.hpp"

namespace {

/// The schema families: every metric name's top-level segment must be one
/// of these (they become the top-level sections of the JSON report). The
/// `simsweep_audit` static-analysis ctest cross-checks this table against
/// the metric catalog src/obs/metric_names.def, so a new family has to be
/// added in both places deliberately.
constexpr const char* kSchemaFamilies[] = {
    "exhaustive", "cut",  "ec",     "partial_sim", "miter",       "engine",
    "pool",       "faults", "degrade", "sat_sweeper", "ckpt", "supervisor",
    "service"};

/// True iff `name` starts with `<family>.` for a known schema family.
bool in_known_family(std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view family = name.substr(0, dot);
  for (const char* f : kSchemaFamilies)
    if (family == f) return true;
  return false;
}

/// Checks every metric of a snapshot against the family table.
bool check_families(const simsweep::obs::Snapshot& snapshot,
                    const char* which) {
  bool ok = true;
  for (const simsweep::obs::Metric& m : snapshot.metrics) {
    if (in_known_family(m.name)) continue;
    std::fprintf(stderr,
                 "check_report: %s report metric \"%s\" is outside every "
                 "schema family\n",
                 which, m.name.c_str());
    ok = false;
  }
  return ok;
}

/// Parses `json` and checks that every metric in `names` is a numeric
/// leaf at `metrics.<name>`. Returns the parsed document, or nullopt
/// after reporting the first missing leaf.
std::optional<simsweep::obs::json::Value> require_leaves(
    const std::string& json, std::initializer_list<std::string> names,
    const char* which) {
  using simsweep::obs::json::Value;
  std::string error;
  std::optional<Value> doc = simsweep::obs::json::parse(json, &error);
  if (!doc) {
    std::fprintf(stderr, "check_report: %s report is not JSON: %s\n", which,
                 error.c_str());
    return std::nullopt;
  }
  for (const std::string& name : names) {
    const Value* leaf = doc->at("metrics." + name);
    if (leaf == nullptr || leaf->type != Value::Type::kNumber) {
      std::fprintf(stderr, "check_report: %s report lacks metrics.%s\n",
                   which, name.c_str());
      return std::nullopt;
    }
  }
  return doc;
}

/// Value of the metric leaf `name`; require_leaves() checked it exists.
double leaf_value(const simsweep::obs::json::Value& doc,
                  const std::string& name) {
  return doc.at("metrics." + name)->number;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simsweep;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <report-path>\n", argv[0]);
    return 1;
  }
  const std::string path = argv[1];

  // The demo pair of cec_tool under the full engine flow, whose L phases
  // exercise the cut module: together the phases publish all five
  // module sections. (The default flow stops after G and runs no cut
  // enumeration.)
  gen::SuiteParams sp;
  sp.doublings = 1;
  const gen::BenchCase c = gen::make_case("multiplier", sp);
  portfolio::CombinedParams params;
  params.engine.k_P = 24;
  params.engine.k_p = 14;
  params.engine.k_g = 14;
  params.engine = engine::full_flow(params.engine);
  const portfolio::CombinedResult r =
      portfolio::combined_check(c.original, c.optimized, params);
  std::printf("check_report: verdict %s in %.3fs, %zu metrics\n",
              to_string(r.verdict), r.total_seconds, r.report.metrics.size());
  if (r.verdict != Verdict::kEquivalent) {
    std::fprintf(stderr, "check_report: demo pair not proved equivalent\n");
    return 1;
  }

  if (!obs::write_json_file(r.report, path)) {
    std::fprintf(stderr, "check_report: cannot write %s\n", path.c_str());
    return 1;
  }

  // Validate the bytes on disk, not the in-memory snapshot: the ctest
  // guards the emitter and the file round-trip together.
  std::string json;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "check_report: cannot reopen %s\n", path.c_str());
      return 1;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) json.append(buf, n);
    std::fclose(f);
  }

  std::string error;
  if (!obs::validate_report_json(json, &error)) {
    std::fprintf(stderr, "check_report: invalid report: %s\n", error.c_str());
    return 1;
  }
  if (!check_families(r.report, "demo")) return 1;

  // The generic validator only requires the robustness sections to be
  // present; the demo flow additionally guarantees the specific leaves
  // the engine publishes unconditionally (zero-valued when healthy).
  const std::optional<obs::json::Value> demo = require_leaves(
      json,
      {obs::metric::kFaultsInjected, obs::metric::kFaultsRecovered,
       obs::metric::kDegradeLadderSteps, obs::metric::kDegradeUnitsAbandoned,
       obs::metric::kPartialSimFullResims,
       obs::metric::kPartialSimIncrementalWords, obs::metric::kCkptWrites,
       obs::metric::kSupervisorRestarts},
      "demo");
  if (!demo) return 1;

  // A healthy (injection-free) demo run must not record any fired fault.
  if (leaf_value(*demo, obs::metric::kFaultsInjected) != 0) {
    std::fprintf(stderr,
                 "check_report: healthy run reports nonzero faults.injected\n");
    return 1;
  }

  std::printf("check_report: %s is a valid %s report\n", path.c_str(),
              obs::kSchemaId);

  // Second flow: a residue sweep on a small multiplier pair. k_P below
  // the PI count keeps the P phase from solving the POs outright, so the
  // engine publishes every module section yet still hands a nonempty
  // residue to the SAT sweep; the full-flow preset's L phases publish the
  // cut section. The report must validate as v3 and carry the
  // refute-early counters (PO probes, in-round CEX resimulation,
  // counterexample replay) that every sweep that ran publishes.
  const aig::Aig small_a = gen::array_multiplier(4);
  const aig::Aig small_b = gen::wallace_multiplier(4);
  portfolio::CombinedParams sweep_params;
  sweep_params.engine.enable_po_phase = false;
  sweep_params.engine.k_P = 6;
  sweep_params.engine.k_p = 4;
  sweep_params.engine.k_g = 4;
  sweep_params.engine.k_l = 4;
  sweep_params.engine.memory_words = 1 << 16;
  sweep_params.engine = engine::full_flow(sweep_params.engine);
  const portfolio::CombinedResult rs =
      portfolio::combined_check(small_a, small_b, sweep_params);
  if (rs.verdict != Verdict::kEquivalent || !rs.used_sat) {
    std::fprintf(stderr,
                 "check_report: residue-sweep pair not proved by a sweep\n");
    return 1;
  }
  const std::string sweep_json = obs::to_json(rs.report);
  if (!obs::validate_report_json(sweep_json, &error)) {
    std::fprintf(stderr, "check_report: invalid residue-sweep report: %s\n",
                 error.c_str());
    return 1;
  }
  if (!check_families(rs.report, "sweep")) return 1;
  if (!require_leaves(sweep_json,
                      {obs::metric::kSweeperProbeCalls,
                       obs::metric::kSweeperProbeConflicts,
                       obs::metric::kSweeperPairsCexResolved,
                       obs::metric::kSweeperCexReplayFailures},
                      "sweep"))
    return 1;
  std::printf("check_report: residue-sweep report carries the "
              "sat_sweeper refute-early gauges\n");

  // Third flow: the batch job service (DESIGN.md §2.9). Three jobs — the
  // multiplier pair, the same pair again, and an adder pair — through
  // one CecService. The two identical jobs run concurrently, so exactly
  // one of them (whichever probes the cache second) must be a
  // fingerprint cache hit, coalesced onto the other's run. Each job's
  // per-job report must be a valid v3 report of its own, the duplicates'
  // reports must be byte-identical, and the service's aggregate snapshot
  // must stay inside the `service` schema family.
  {
    service::ServiceParams svc_params;
    svc_params.max_concurrent_jobs = 2;
    service::CecService svc(svc_params);
    std::vector<service::JobSpec> jobs(3);
    jobs[0].id = "mult";
    jobs[0].a = small_a;
    jobs[0].b = small_b;
    jobs[0].params = sweep_params;
    jobs[1] = jobs[0];
    jobs[1].id = "mult-again";
    jobs[2].id = "adder";
    jobs[2].a = gen::ripple_adder(8);
    jobs[2].b = gen::kogge_stone_adder(8);
    jobs[2].params = sweep_params;
    const std::vector<service::JobResult> results =
        svc.run_batch(std::move(jobs));
    for (const service::JobResult& r : results) {
      if (r.verdict != Verdict::kEquivalent || !r.error.empty()) {
        std::fprintf(stderr, "check_report: batch job %s failed: %s\n",
                     r.id.c_str(), r.error.c_str());
        return 1;
      }
      if (!check_families(r.report, r.id.c_str())) return 1;
    }
    const std::string job_json = obs::to_json(results[0].report);
    if (!obs::validate_report_json(job_json, &error)) {
      std::fprintf(stderr, "check_report: invalid per-job report: %s\n",
                   error.c_str());
      return 1;
    }
    if (results[0].cache_hit == results[1].cache_hit ||
        obs::to_json(results[1].report) != job_json) {
      std::fprintf(stderr,
                   "check_report: the resubmitted pair is not exactly one "
                   "cache hit with identical reports\n");
      return 1;
    }
    const obs::Snapshot agg = svc.metrics();
    if (!check_families(agg, "service")) return 1;
    const std::optional<obs::json::Value> svc_doc = require_leaves(
        obs::to_json(agg),
        {obs::metric::kServiceJobsSubmitted,
         obs::metric::kServiceJobsCompleted, obs::metric::kServiceCacheHits,
         obs::metric::kServiceCacheMisses, obs::metric::kServiceJobsRejected},
        "service");
    if (!svc_doc) return 1;
    if (leaf_value(*svc_doc, obs::metric::kServiceCacheHits) != 1) {
      std::fprintf(stderr,
                   "check_report: batch flow did not record the cache hit\n");
      return 1;
    }
    std::printf("check_report: batch-service flow emits valid per-job "
                "reports and service counters\n");
  }
  return 0;
}
