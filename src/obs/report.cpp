#include "obs/report.hpp"

#include <cstdio>
#include <map>

#include "obs/json.hpp"

namespace simsweep::obs {

namespace {

/// Name tree for the emitter: dotted metric names nest segment by segment.
struct Node {
  std::map<std::string, Node> children;
  const Metric* leaf = nullptr;
};

void insert_metric(Node& root, const Metric& m) {
  Node* node = &root;
  std::size_t pos = 0;
  while (true) {
    const std::size_t dot = m.name.find('.', pos);
    const std::string seg = m.name.substr(
        pos, dot == std::string::npos ? std::string::npos : dot - pos);
    node = &node->children[seg];
    if (dot == std::string::npos) break;
    pos = dot + 1;
  }
  node->leaf = &m;
}

void emit_node(const Node& node, int indent, std::string& out) {
  // A name that is both a leaf and a prefix would lose its leaf here; the
  // naming scheme forbids that (DESIGN.md §2.3) and instrumentation
  // complies, so children win.
  if (node.children.empty() && node.leaf != nullptr) {
    char buf[64];
    if (node.leaf->kind == MetricKind::kCounter)
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(node.leaf->count));
    else
      std::snprintf(buf, sizeof buf, "%.9g", node.leaf->value);
    out += buf;
    return;
  }
  out += "{\n";
  std::size_t i = 0;
  for (const auto& [seg, child] : node.children) {
    out.append(static_cast<std::size_t>(indent) + 2, ' ');
    out.push_back('"');
    json::append_escaped(out, seg);
    out += "\": ";
    emit_node(child, indent + 2, out);
    if (++i < node.children.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append(static_cast<std::size_t>(indent), ' ');
  out.push_back('}');
}

/// True iff some numeric (or true boolean) leaf under `v` is nonzero.
bool has_nonzero_leaf(const json::Value& v) {
  switch (v.type) {
    case json::Value::Type::kNumber: return v.number != 0.0;
    case json::Value::Type::kBool: return v.boolean;
    default:
      for (const json::Value& item : v.items)
        if (has_nonzero_leaf(item)) return true;
      return false;
  }
}

}  // namespace

std::string to_json(const Snapshot& snapshot) {
  Node root;
  for (const Metric& m : snapshot.metrics) insert_metric(root, m);
  std::string out;
  out += "{\n  \"schema\": \"";
  out += kSchemaId;
  out += "\",\n  \"metrics\": ";
  emit_node(root, 2, out);
  out += "\n}\n";
  return out;
}

bool write_json_file(const Snapshot& snapshot, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json(snapshot);
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  return ok && closed;
}

bool validate_report_json(const std::string& text, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  std::string parse_error;
  const std::optional<json::Value> doc = json::parse(text, &parse_error);
  if (!doc) return fail("malformed JSON: " + parse_error);

  const json::Value* schema = doc->get("schema");
  if (schema == nullptr || schema->type != json::Value::Type::kString)
    return fail("missing top-level \"schema\" string");
  if (schema->string != kSchemaId)
    return fail("unexpected schema id \"" + schema->string + "\" (want \"" +
                kSchemaId + "\")");
  const json::Value* metrics = doc->get("metrics");
  if (metrics == nullptr || !metrics->is_object())
    return fail("missing top-level \"metrics\" object");

  // The five paper modules must be present with at least one nonzero
  // numeric leaf.
  for (const char* section :
       {"exhaustive", "cut", "ec", "partial_sim", "miter"}) {
    const json::Value* v = metrics->get(section);
    if (v == nullptr || !v->is_object())
      return fail(std::string("missing module section \"metrics.") +
                  section + "\"");
    if (!has_nonzero_leaf(*v))
      return fail(std::string("module section \"metrics.") + section +
                  "\" has no nonzero metric");
  }
  // Presence only: pool telemetry, robustness (DESIGN.md §2.4) and
  // checkpoint durability (§2.8) — a healthy, unarmed run legitimately
  // reports all zeros there.
  for (const char* section :
       {"pool", "faults", "degrade", "ckpt", "supervisor"}) {
    const json::Value* v = metrics->get(section);
    if (v == nullptr || !v->is_object())
      return fail(std::string("missing section \"metrics.") + section +
                  "\"");
  }
  return true;
}

}  // namespace simsweep::obs
