#pragma once
/// \file report.hpp
/// \brief JSON run-report emitter + schema validator for obs snapshots.
///
/// The run report is the end-to-end surface of the observability layer
/// (`cec_tool --json-report`, `engine_anatomy`, the `report_schema`
/// ctest). Schema `simsweep.run_report.v3`:
///
/// ```json
/// {
///   "schema": "simsweep.run_report.v3",
///   "metrics": {
///     "exhaustive": { "batches": 12, "words_simulated": 1048576, ... },
///     "cut":        { "pass1": { "cuts_enumerated": 4096, ... }, ... },
///     "ec":         { "builds": 3, "classes_built": 120, ... },
///     "partial_sim":{ "simulate_calls": 5, "pattern_words": 8, ... },
///     "miter":      { "rebuilds": 4, "ands_removed": 7986, ... },
///     "engine":     { "total_seconds": 2.7, ... },
///     "pool":       { "jobs": 931, "busy_fraction": { "mean": 0.4 }, ... },
///     "faults":     { "injected": 0, "recovered": 0 },
///     "degrade":    { "ladder_steps": 0, ... },
///     "ckpt":       { "writes": 0, ... },
///     "supervisor": { "restarts": 0, ... }
///   }
/// }
/// ```
///
/// Dotted metric names nest into objects segment by segment; counters
/// print as integers, gauges as doubles. validate_report_json() checks a
/// serialized report against this schema: the five paper-module sections
/// (exhaustive, cut, ec, partial_sim, miter) must each carry at least one
/// nonzero metric, and the pool, robustness (`faults`, `degrade`,
/// DESIGN.md §2.4) and checkpoint-durability (`ckpt`, `supervisor`, §2.8)
/// sections must be present — all zeros is their healthy state, so
/// presence, not nonzero-ness, is the contract.

#include <string>

#include "obs/registry.hpp"

namespace simsweep::obs {

/// Schema tag stamped into every emitted run report (current version).
inline constexpr const char kSchemaId[] = "simsweep.run_report.v3";

/// Serializes a snapshot as a `simsweep.run_report.v3` JSON document.
std::string to_json(const Snapshot& snapshot);

/// Writes to_json(snapshot) to `path`. Returns false on I/O failure.
bool write_json_file(const Snapshot& snapshot, const std::string& path);

/// Validates a serialized report: well-formed JSON, the current
/// "schema" tag (older tags are rejected), a "metrics" object, the five
/// module sections each with a nonzero leaf, and the pool, faults,
/// degrade, ckpt and supervisor sections present. On failure returns
/// false and, if `error` is non-null, stores a reason naming the failing
/// tag or section.
bool validate_report_json(const std::string& json, std::string* error);

}  // namespace simsweep::obs
