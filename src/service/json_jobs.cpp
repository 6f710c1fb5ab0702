#include "service/json_jobs.hpp"

#include <cstdint>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"

namespace simsweep::service {

namespace {

/// Stores `num` into integer field `field`; false (field untouched) when
/// it does not fit, since the conversion would be undefined.
template <typename T>
bool store(T& field, double num) {
  if (!(num < static_cast<double>(std::numeric_limits<T>::max()) + 1.0))
    return false;
  field = static_cast<T>(num);
  return true;
}

}  // namespace

bool parse_job_line(const std::string& line, JobSpec* out,
                    std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string parse_error;
  const std::optional<obs::json::Value> doc =
      obs::json::parse(line, &parse_error);
  if (!doc) return fail(parse_error);
  if (!doc->is_object()) return fail("a job line must be one JSON object");

  using Type = obs::json::Value::Type;
  JobSpec spec = *out;  // the line overrides the caller's defaults
  engine::EngineParams& e = spec.params.engine;
  sweep::SweeperParams& s = spec.params.sweeper;
  for (std::size_t m = 0; m < doc->keys.size(); ++m) {
    const std::string& key = doc->keys[m];
    const obs::json::Value& v = doc->items[m];
    if (key == "id" || key == "a" || key == "b") {
      if (v.type != Type::kString)
        return fail("expected a string for \"" + key + "\"");
      if (key == "id") spec.id = v.string;
      if (key == "a") spec.a_path = v.string;
      if (key == "b") spec.b_path = v.string;
    } else if (key == "interleave_rewriting") {
      if (v.type != Type::kBool)
        return fail("expected true/false for \"" + key + "\"");
      spec.params.interleave_rewriting = v.boolean;
    } else if (key == "deadline" || key == "priority" ||
               key == "time_limit" || key == "seed" ||
               key == "sim_words" || key == "k_P" ||
               key == "k_p" || key == "k_g" || key == "k_l" ||
               key == "conflict_limit" || key == "max_rounds" ||
               key == "max_rewrite_rounds") {
      if (v.type != Type::kNumber)
        return fail("expected a number for \"" + key + "\"");
      const double num = v.number;
      if (num < 0) return fail("negative value for " + key);
      bool fits = true;
      if (key == "deadline") spec.deadline_seconds = num;
      if (key == "priority") fits = store(spec.priority, num);
      if (key == "time_limit") e.time_limit = num;
      if (key == "seed") fits = store(e.seed, num);
      if (key == "sim_words") fits = store(e.sim_words, num);
      if (key == "k_P") fits = store(e.k_P, num);
      if (key == "k_p") fits = store(e.k_p, num);
      if (key == "k_g") fits = store(e.k_g, num);
      if (key == "k_l") fits = store(e.k_l, num);
      if (key == "conflict_limit") fits = store(s.conflict_limit, num);
      if (key == "max_rounds") fits = store(s.max_rounds, num);
      if (key == "max_rewrite_rounds")
        fits = store(spec.params.max_rewrite_rounds, num);
      if (!fits) return fail("value out of range for " + key);
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  if (spec.a_path.empty() || spec.b_path.empty())
    return fail("both \"a\" and \"b\" paths are required");
  *out = std::move(spec);
  return true;
}

std::string result_to_json_line(const JobResult& result) {
  std::string out = "{\"id\": \"";
  obs::json::append_escaped(out, result.id);
  out += "\", \"verdict\": \"";
  out += to_string(result.verdict);
  out += "\"";
  char buf[64];
  std::snprintf(buf, sizeof buf, ", \"queue_seconds\": %.6f",
                result.queue_seconds);
  out += buf;
  std::snprintf(buf, sizeof buf, ", \"run_seconds\": %.6f",
                result.run_seconds);
  out += buf;
  out += ", \"cache_hit\": ";
  out += result.cache_hit ? "true" : "false";
  if (result.deadline_expired) out += ", \"deadline_expired\": true";
  if (result.cex) {
    out += ", \"cex\": \"";
    for (const bool v : *result.cex) out += v ? '1' : '0';
    out += "\"";
  }
  if (!result.error.empty()) {
    out += ", \"error\": \"";
    obs::json::append_escaped(out, result.error);
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace simsweep::service
