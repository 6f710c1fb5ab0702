#pragma once
/// \file json_jobs.hpp
/// \brief JSON-lines job-spec codec for the batch service (DESIGN.md
/// §2.9).
///
/// One job per line, one flat JSON object per job. Recognized keys:
///
///   "a", "b"          AIGER paths of the pair (required)
///   "id"              caller handle (default "job<ticket>")
///   "deadline"        whole-job wall-clock budget in seconds, queue
///                     wait included (default 0 = none)
///   "priority"        higher dispatches earlier (default 0)
///   "time_limit"      engine.time_limit override in seconds
///   "seed"            engine.seed
///   "sim_words"       engine.sim_words
///   "k_P","k_p","k_g","k_l"  engine thresholds
///   "conflict_limit"  sweeper conflict budget per SAT call
///   "max_rounds"      sweeper round cap
///   "interleave_rewriting"   bool, portfolio §V item 3
///   "max_rewrite_rounds"     rewrite-round cap
///
/// The line is read by the shared obs::json parser; a value of the wrong
/// type (nested objects, arrays and null included), a negative or
/// out-of-range number and an unknown key are errors naming the key (a
/// typo silently ignored would change the verdict contract of the
/// submitted job). Blank lines and lines whose first non-space character
/// is '#' are skipped by callers.

#include <string>

#include "service/cec_service.hpp"

namespace simsweep::service {

/// Parses one JSON-lines job object into *out. *out carries the caller's
/// defaults on entry: keys absent from the line keep their incoming
/// values (this is how cec_tool applies its CLI-wide parameter
/// convention). Returns false and fills *error (never crashes) on
/// malformed input or an unknown key; *out is unchanged then.
bool parse_job_line(const std::string& line, JobSpec* out,
                    std::string* error);

/// One-line JSON rendering of a result (the --serve response format).
std::string result_to_json_line(const JobResult& result);

}  // namespace simsweep::service
