/// \file test_service.cpp
/// \brief Tests for the batch job service (DESIGN.md §2.9): concurrent-job
/// isolation against the sequential flow, the fingerprint-keyed verdict
/// cache, admission-control degradation and the JSON-lines job codec.
///
/// Suite names carry the "CecService" prefix so the static-analysis
/// checked-build lane picks them up (tools/run_static_analysis.sh).

#include "service/cec_service.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "obs/metric_names.hpp"
#include "obs/report.hpp"
#include "portfolio/portfolio.hpp"
#include "service/json_jobs.hpp"
#include "test_util.hpp"

namespace simsweep::service {
namespace {

using aig::Aig;

portfolio::CombinedParams small_params() {
  portfolio::CombinedParams p;
  p.engine.k_P = 16;
  p.engine.k_p = 10;
  p.engine.k_g = 10;
  p.engine.k_l = 6;
  p.engine.memory_words = 1 << 16;
  return p;
}

/// The metric-name set of a report — its "shape". Tiny test circuits do
/// not light up every module section the full v3 validator demands (the
/// CI batch smoke covers that on the demo pair); shape identity against
/// the sequential flow is the isolation contract here.
std::set<std::string> report_shape(const obs::Snapshot& s) {
  std::set<std::string> names;
  for (const obs::Metric& m : s.metrics) names.insert(m.name);
  return names;
}

JobSpec make_job(const Aig& a, const Aig& b, const std::string& id) {
  JobSpec s;
  s.id = id;
  s.a = a;
  s.b = b;
  s.params = small_params();
  return s;
}

/// An equivalent pair the engine decides quickly but not instantly.
void equivalent_pair(Aig* a, Aig* b) {
  *a = gen::ripple_adder(5);
  *b = gen::kogge_stone_adder(5);
}

/// An inequivalent pair with a real CEX (skip if the mutation was a no-op).
bool inequivalent_pair(Aig* a, Aig* b) {
  *a = testutil::random_aig(8, 120, 5, 304);
  *b = testutil::mutate(*a, 305);
  return !aig::brute_force_equivalent(*a, *b);
}

TEST(CecService, ConcurrentJobsMatchSequentialVerdicts) {
  Aig ea, eb, na, nb;
  equivalent_pair(&ea, &eb);
  if (!inequivalent_pair(&na, &nb)) GTEST_SKIP() << "mutation no-op";
  // The reference runs get an (unlimited) ledger like service jobs do —
  // a ledgered engine publishes the degrade.memory_* telemetry rows.
  fault::MemoryLedger ref_ledger(0);
  portfolio::CombinedParams ref = small_params();
  ref.engine.memory_ledger = &ref_ledger;
  const portfolio::CombinedResult se = portfolio::combined_check(ea, eb, ref);
  const portfolio::CombinedResult sn = portfolio::combined_check(na, nb, ref);

  ServiceParams sp;
  sp.max_concurrent_jobs = 2;
  CecService svc(sp);
  std::vector<JobSpec> jobs;
  jobs.push_back(make_job(ea, eb, "eq"));
  jobs.push_back(make_job(na, nb, "neq"));
  const std::vector<JobResult> results = svc.run_batch(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);

  // Bit-identical verdicts vs the sequential flow, per job.
  EXPECT_EQ(results[0].id, "eq");
  EXPECT_EQ(results[0].verdict, se.verdict);
  EXPECT_EQ(results[1].id, "neq");
  EXPECT_EQ(results[1].verdict, sn.verdict);
  ASSERT_TRUE(results[1].cex.has_value());
  EXPECT_NE(na.evaluate(*results[1].cex), nb.evaluate(*results[1].cex));

  // Each job carries its own report, shaped exactly as the sequential
  // run's — concurrency must not add, drop or cross-wire metrics.
  for (const JobResult& r : results) EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(report_shape(results[0].report), report_shape(se.report));
  EXPECT_EQ(report_shape(results[1].report), report_shape(sn.report));

  const obs::Snapshot m = svc.metrics();
  EXPECT_EQ(m.count(obs::metric::kServiceJobsSubmitted), 2u);
  EXPECT_EQ(m.count(obs::metric::kServiceJobsCompleted), 2u);
  EXPECT_EQ(m.count(obs::metric::kServiceJobsFailed), 0u);
}

TEST(CecService, ResubmittedIdenticalJobIsCacheHit) {
  Aig a, b;
  equivalent_pair(&a, &b);
  ServiceParams sp;
  CecService svc(sp);
  const JobResult r1 = svc.wait(svc.submit(make_job(a, b, "first")));
  EXPECT_FALSE(r1.cache_hit);
  const JobResult r2 = svc.wait(svc.submit(make_job(a, b, "second")));
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r1.verdict, r2.verdict);
  EXPECT_EQ(r2.verdict, Verdict::kEquivalent);

  // The cached report is the report of the run that filled the entry —
  // byte-identical to the first submission's.
  EXPECT_EQ(obs::to_json(r2.report), obs::to_json(r1.report));

  const obs::Snapshot m = svc.metrics();
  EXPECT_EQ(m.count(obs::metric::kServiceCacheHits), 1u);
  EXPECT_EQ(m.count(obs::metric::kServiceCacheMisses), 1u);
}

TEST(CecService, VerdictRelevantParamChangeMissesCache) {
  Aig a, b;
  equivalent_pair(&a, &b);
  ServiceParams sp;
  CecService svc(sp);
  const JobResult r1 = svc.wait(svc.submit(make_job(a, b, "first")));
  EXPECT_FALSE(r1.cache_hit);
  // A different simulation seed is a different fingerprint: the cache-key
  // contract (DESIGN.md §2.9) must never serve a stale entry across a
  // verdict-relevant parameter change.
  JobSpec reseeded = make_job(a, b, "reseeded");
  reseeded.params.engine.seed = 0xFEED;
  const JobResult r2 = svc.wait(svc.submit(std::move(reseeded)));
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(svc.metrics().count(obs::metric::kServiceCacheMisses), 2u);
}

TEST(CecService, InflightDuplicatesCoalesceToOneComputation) {
  Aig a, b;
  equivalent_pair(&a, &b);
  ServiceParams sp;
  sp.max_concurrent_jobs = 2;
  CecService svc(sp);
  std::vector<JobSpec> jobs;
  jobs.push_back(make_job(a, b, "original"));
  jobs.push_back(make_job(a, b, "duplicate"));
  const std::vector<JobResult> results = svc.run_batch(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].verdict, Verdict::kEquivalent);
  EXPECT_EQ(results[1].verdict, Verdict::kEquivalent);
  // Whichever worker wins the in-flight slot computes; the other parks on
  // the fingerprint and is served from the fresh entry. Exactly one
  // computation either way — never two.
  const obs::Snapshot m = svc.metrics();
  EXPECT_EQ(m.count(obs::metric::kServiceCacheMisses), 1u);
  EXPECT_EQ(m.count(obs::metric::kServiceCacheHits), 1u);
}

TEST(CecService, AdmitFaultDegradesToQueuingNeverWrongVerdict) {
  Aig ea, eb, na, nb;
  equivalent_pair(&ea, &eb);
  if (!inequivalent_pair(&na, &nb)) GTEST_SKIP() << "mutation no-op";

  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kServiceAdmit, 1);
  fault::ScopedFaultPlan armed(plan);

  ServiceParams sp;
  sp.max_concurrent_jobs = 2;
  CecService svc(sp);
  std::vector<JobSpec> jobs;
  jobs.push_back(make_job(ea, eb, "eq"));
  jobs.push_back(make_job(na, nb, "neq"));
  const std::vector<JobResult> results = svc.run_batch(std::move(jobs));

  // The forced denial re-queues (or, with nothing running, admits
  // un-staked); either way both jobs complete with the right verdicts.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].verdict, Verdict::kEquivalent);
  EXPECT_EQ(results[1].verdict, Verdict::kNotEquivalent);
  const obs::Snapshot m = svc.metrics();
  EXPECT_GE(m.count(obs::metric::kServiceJobsRejected), 1u);
  EXPECT_EQ(m.count(obs::metric::kServiceJobsCompleted), 2u);
  EXPECT_GE(results[0].admission_rejections + results[1].admission_rejections,
            1u);
}

TEST(CecService, CacheFaultForcesSoundRecompute) {
  Aig a, b;
  equivalent_pair(&a, &b);
  // nth=2: the first submission's lookup consumes hit 1 (a genuine miss),
  // the resubmission's lookup is hit 2 and fires — a forced miss.
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kServiceCache, 2);
  fault::ScopedFaultPlan armed(plan);

  ServiceParams sp;
  CecService svc(sp);
  const JobResult r1 = svc.wait(svc.submit(make_job(a, b, "first")));
  EXPECT_FALSE(r1.cache_hit);
  const JobResult r2 = svc.wait(svc.submit(make_job(a, b, "forced-miss")));
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(r1.verdict, r2.verdict);
  // With the drill spent, the third submission is a genuine hit again.
  const JobResult r3 = svc.wait(svc.submit(make_job(a, b, "hit")));
  EXPECT_TRUE(r3.cache_hit);
  const obs::Snapshot m = svc.metrics();
  EXPECT_EQ(m.count(obs::metric::kServiceCacheMisses), 2u);
  EXPECT_EQ(m.count(obs::metric::kServiceCacheHits), 1u);
}

TEST(CecService, AdmissionNeverOvercommitsTheLedger) {
  Aig a, b;
  equivalent_pair(&a, &b);
  ServiceParams sp;
  sp.max_concurrent_jobs = 2;
  sp.memory_budget_bytes = std::uint64_t{100} << 20;
  sp.default_job_stake_bytes = std::uint64_t{64} << 20;  // only one fits
  sp.cache_capacity = 0;  // force both jobs to really run
  CecService svc(sp);
  std::vector<JobSpec> jobs;
  jobs.push_back(make_job(a, b, "first"));
  jobs.push_back(
      make_job(gen::ripple_adder(4), gen::kogge_stone_adder(4), "second"));
  const std::vector<JobResult> results = svc.run_batch(std::move(jobs));
  for (const JobResult& r : results) EXPECT_TRUE(r.error.empty()) << r.error;
  // Two stakes exceed the budget, so the second job queued until the
  // first released: in-flight never exceeded one and the ledger peak
  // stayed within budget. Queuing, not overcommit, is the degradation.
  EXPECT_LE(svc.ledger().peak_bytes(), sp.memory_budget_bytes);
  EXPECT_EQ(svc.metrics().value(obs::metric::kServiceRunningPeak), 1.0);
}

TEST(CecService, DeadlineExpiredInQueueCompletesUnrun) {
  Aig ea, eb, na, nb;
  equivalent_pair(&ea, &eb);
  if (!inequivalent_pair(&na, &nb)) GTEST_SKIP() << "mutation no-op";
  ServiceParams sp;  // one worker: the second job must wait its turn
  CecService svc(sp);
  std::vector<JobSpec> jobs;
  jobs.push_back(make_job(ea, eb, "long"));
  JobSpec dying = make_job(na, nb, "dying");
  dying.deadline_seconds = 1e-6;  // expires while "long" runs
  jobs.push_back(std::move(dying));
  const std::vector<JobResult> results = svc.run_batch(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].deadline_expired);
  EXPECT_TRUE(results[1].deadline_expired);
  // Completed unrun: the sound kUndecided, never a partial verdict.
  EXPECT_EQ(results[1].verdict, Verdict::kUndecided);
  EXPECT_EQ(svc.metrics().count(obs::metric::kServiceDeadlineExpired), 1u);
}

TEST(CecService, PriorityOrdersDispatchFifoWithin) {
  Aig a, b;
  equivalent_pair(&a, &b);
  ServiceParams sp;  // one worker makes the dispatch order total
  CecService svc(sp);
  std::vector<JobSpec> jobs;
  for (int pri : {0, 5, 10, 5}) {
    JobSpec s = make_job(a, b, "pri" + std::to_string(pri));
    s.priority = pri;
    jobs.push_back(std::move(s));
  }
  // run_batch submits atomically, so the worker sees the full queue:
  // priority 10 first, then the two 5s in submission order, then 0.
  const std::vector<JobResult> results = svc.run_batch(std::move(jobs));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[2].start_order, 1u);
  EXPECT_EQ(results[1].start_order, 2u);
  EXPECT_EQ(results[3].start_order, 3u);
  EXPECT_EQ(results[0].start_order, 4u);
}

TEST(CecService, JobFailureIsIsolated) {
  Aig a, b;
  equivalent_pair(&a, &b);
  ServiceParams sp;
  sp.max_concurrent_jobs = 2;
  CecService svc(sp);
  JobSpec broken;
  broken.id = "broken";
  broken.a_path = "/nonexistent/a.aig";
  broken.b_path = "/nonexistent/b.aig";
  std::vector<JobSpec> jobs;
  jobs.push_back(std::move(broken));
  jobs.push_back(make_job(a, b, "fine"));
  const std::vector<JobResult> results = svc.run_batch(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_EQ(results[0].verdict, Verdict::kUndecided);
  EXPECT_TRUE(results[1].error.empty());
  EXPECT_EQ(results[1].verdict, Verdict::kEquivalent);
  const obs::Snapshot m = svc.metrics();
  EXPECT_EQ(m.count(obs::metric::kServiceJobsFailed), 1u);
  EXPECT_EQ(m.count(obs::metric::kServiceJobsCompleted), 2u);
}

// --- JSON-lines job codec ---

TEST(CecServiceJobSpec, ParsesEveryKeyAndKeepsDefaults) {
  JobSpec spec;
  spec.params.engine.k_P = 24;  // caller default; the line must keep it
  std::string error;
  ASSERT_TRUE(parse_job_line(
      R"({"id": "j1", "a": "x.aig", "b": "y.aig", "deadline": 2.5, )"
      R"("priority": 3, "time_limit": 1.5, )"
      R"("seed": 7, "sim_words": 8, "k_p": 12, "k_g": 11, "k_l": 5, )"
      R"("conflict_limit": 5000, "max_rounds": 9, )"
      R"("interleave_rewriting": true, "max_rewrite_rounds": 2})",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.id, "j1");
  EXPECT_EQ(spec.a_path, "x.aig");
  EXPECT_EQ(spec.b_path, "y.aig");
  EXPECT_DOUBLE_EQ(spec.deadline_seconds, 2.5);
  EXPECT_EQ(spec.priority, 3);
  EXPECT_DOUBLE_EQ(spec.params.engine.time_limit, 1.5);
  EXPECT_EQ(spec.params.engine.seed, 7u);
  EXPECT_EQ(spec.params.engine.sim_words, 8u);
  EXPECT_EQ(spec.params.engine.k_p, 12u);
  EXPECT_EQ(spec.params.engine.k_g, 11u);
  EXPECT_EQ(spec.params.engine.k_l, 5u);
  EXPECT_EQ(spec.params.sweeper.conflict_limit, 5000);
  EXPECT_EQ(spec.params.sweeper.max_rounds, 9u);
  EXPECT_TRUE(spec.params.interleave_rewriting);
  EXPECT_EQ(spec.params.max_rewrite_rounds, 2u);
  EXPECT_EQ(spec.params.engine.k_P, 24u) << "unset key must keep default";
}

TEST(CecServiceJobSpec, RejectsUnknownKeysAndMissingPaths) {
  JobSpec spec;
  std::string error;
  EXPECT_FALSE(parse_job_line(
      R"({"a": "x.aig", "b": "y.aig", "sweeep_threads": 2})", &spec,
      &error));
  EXPECT_NE(error.find("sweeep_threads"), std::string::npos) << error;
  // The retired sharded-sweep key is rejected like any other unknown key.
  error.clear();
  EXPECT_FALSE(parse_job_line(
      R"({"a": "x.aig", "b": "y.aig", "sweep_threads": 2})", &spec, &error));
  EXPECT_NE(error.find("unknown key \"sweep_threads\""), std::string::npos)
      << error;
  error.clear();
  EXPECT_FALSE(parse_job_line(R"({"a": "x.aig"})", &spec, &error));
  EXPECT_NE(error.find("required"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(
      parse_job_line(R"({"a": "x.aig", "b": "y.aig"} junk)", &spec, &error));
  error.clear();
  EXPECT_FALSE(parse_job_line("not json", &spec, &error));
  // Values of the wrong shape or out of the field's range name the key.
  error.clear();
  EXPECT_FALSE(parse_job_line(R"({"a": {"p": "x.aig"}, "b": "y.aig"})",
                              &spec, &error));
  EXPECT_NE(error.find("\"a\""), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(parse_job_line(R"({"a": "x.aig", "b": "y.aig", "k_P": 1e20})",
                              &spec, &error));
  EXPECT_NE(error.find("k_P"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(parse_job_line(R"({"a": "x.aig", "b": "y.aig", "seed": -1})",
                              &spec, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST(CecServiceJobSpec, ResultLineEscapesAndRoundTrips) {
  JobResult r;
  r.id = "quo\"te";
  r.verdict = Verdict::kNotEquivalent;
  r.cex = std::vector<bool>{true, false, true};
  r.cache_hit = true;
  r.error = "";
  const std::string line = result_to_json_line(r);
  EXPECT_NE(line.find("\"quo\\\"te\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"NOT equivalent\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"cex\": \"101\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"cache_hit\": true"), std::string::npos) << line;
}

}  // namespace
}  // namespace simsweep::service
