#pragma once
/// \file metric_names.hpp
/// \brief Typed metric-name constants expanded from metric_names.def
/// (DESIGN.md §2.6).
///
/// Every name a run report can contain is declared once in the X-macro
/// catalog src/obs/metric_names.def and surfaces here as a typed
/// constant (obs::metric::k*) or a family prefix. Instrumentation code
/// in src/ must publish through these constants — the `simsweep_audit`
/// static-analysis ctest rejects raw metric-name string literals passed
/// to Registry mutation calls, respellings of registered names anywhere
/// in the tree, names missing from the catalog, and catalog rows no
/// longer referenced by any code.
///
/// Dynamic families (per-pass, per-bucket, per-site leaves) compose
/// runtime names from a catalogued prefix, e.g.
///   std::string(obs::metric::kFaultsSitePrefix) + site
/// and are validated structurally by tools/check_report.cpp.

namespace simsweep::obs::metric {

#define SIMSWEEP_METRIC(ident, name) \
  inline constexpr const char ident[] = name;
#define SIMSWEEP_METRIC_FAMILY(ident, name) \
  inline constexpr const char ident[] = name;
#include "obs/metric_names.def"
#undef SIMSWEEP_METRIC
#undef SIMSWEEP_METRIC_FAMILY

/// All registered static leaf names, for schema checks and tooling.
inline constexpr const char* kRegisteredMetrics[] = {
#define SIMSWEEP_METRIC(ident, name) name,
#define SIMSWEEP_METRIC_FAMILY(ident, name)
#include "obs/metric_names.def"
#undef SIMSWEEP_METRIC
#undef SIMSWEEP_METRIC_FAMILY
};

/// All dynamic family prefixes (runtime-composed names must start with
/// one of these).
inline constexpr const char* kMetricFamilies[] = {
#define SIMSWEEP_METRIC(ident, name)
#define SIMSWEEP_METRIC_FAMILY(ident, name) name,
#include "obs/metric_names.def"
#undef SIMSWEEP_METRIC
#undef SIMSWEEP_METRIC_FAMILY
};

}  // namespace simsweep::obs::metric
