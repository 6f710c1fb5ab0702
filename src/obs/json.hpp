#pragma once
/// \file json.hpp
/// \brief The project's one JSON reader and string escaper.
///
/// Every JSON document the program reads from outside — run reports
/// (obs::validate_report_json, tools/check_report) and batch job lines
/// (service::parse_job_line) — goes through parse(); every string the
/// program writes into JSON goes through append_escaped(). Grammar
/// restrictions of a particular document (the flat job-line object, the
/// report's required sections) are checked by its caller on the Value
/// tree, not by a variant parser.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace simsweep::obs::json {

/// One parsed JSON value. Objects keep their members in document order
/// (`keys[i]` names `items[i]`); arrays use `items` only.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<std::string> keys;
  std::vector<Value> items;

  bool is_object() const { return type == Type::kObject; }

  /// Object member `key` (the last one when the key repeats), or null
  /// when this is not an object or has no such member.
  const Value* get(std::string_view key) const;

  /// Member lookup along a dotted path of object keys ("metrics.ckpt"),
  /// or null when any segment is missing.
  const Value* at(std::string_view dotted_path) const;
};

/// Parses one complete JSON document (surrounding whitespace allowed,
/// anything else after the value rejected). On failure returns nullopt
/// and, if `error` is non-null, stores "<reason> at offset <n>". Never
/// throws; nesting deeper than 64 levels is rejected.
std::optional<Value> parse(std::string_view text, std::string* error);

/// Appends `s` to `out` as the body of a JSON string literal: quote,
/// backslash and control characters are escaped, everything else is
/// copied verbatim.
void append_escaped(std::string& out, std::string_view s);

}  // namespace simsweep::obs::json
