#include "obs/json.hpp"

#include <cstdio>
#include <cstdlib>

namespace simsweep::obs::json {

namespace {

constexpr int kMaxDepth = 64;

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Appends code point `cp` (< 0x10000) as UTF-8.
void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Recursive-descent reader. Every accessor bounds-checks, and the first
/// failure latches the error with its offset.
struct Reader {
  std::string_view s;
  std::size_t i = 0;
  std::string err;

  bool fail(const char* what) {
    if (err.empty())
      err = std::string(what) + " at offset " + std::to_string(i);
    return false;
  }

  void skip_ws() {
    while (i < s.size() && is_ws(s[i])) ++i;
  }

  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) != word) return fail("invalid literal");
    i += word.size();
    return true;
  }

  bool string(std::string& out) {
    ++i;  // opening quote
    while (i < s.size() && s[i] != '"') {
      if (s[i] != '\\') {
        out.push_back(s[i++]);
        continue;
      }
      if (++i >= s.size()) break;
      const char e = s[i++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const int h = i < s.size() ? hex_value(s[i]) : -1;
            if (h < 0) return fail("bad \\u escape");
            cp = cp * 16 + static_cast<unsigned>(h);
            ++i;
          }
          append_utf8(out, cp);
          break;
        }
        default: --i; return fail("unsupported escape");
      }
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;  // closing quote
    return true;
  }

  /// Strict JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(double& out) {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    if (i < s.size() && s[i] == '0') {
      ++i;
    } else if (i < s.size() && is_digit(s[i])) {
      while (i < s.size() && is_digit(s[i])) ++i;
    } else {
      return fail("expected a value");
    }
    if (i < s.size() && s[i] == '.') {
      if (++i >= s.size() || !is_digit(s[i])) return fail("malformed number");
      while (i < s.size() && is_digit(s[i])) ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (i >= s.size() || !is_digit(s[i])) return fail("malformed number");
      while (i < s.size() && is_digit(s[i])) ++i;
    }
    // strtod needs a terminated buffer; the span is validated above.
    const std::string text(s.substr(start, i - start));
    out = std::strtod(text.c_str(), nullptr);
    return true;
  }

  bool value(Value& v, int depth) {
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    if (depth > kMaxDepth) return fail("nesting too deep");
    switch (s[i]) {
      case '{': v.type = Value::Type::kObject; return members(v, depth, '}');
      case '[': v.type = Value::Type::kArray; return members(v, depth, ']');
      case '"': v.type = Value::Type::kString; return string(v.string);
      case 't': v.type = Value::Type::kBool; v.boolean = true;
                return literal("true");
      case 'f': v.type = Value::Type::kBool; return literal("false");
      case 'n': return literal("null");
      default: v.type = Value::Type::kNumber; return number(v.number);
    }
  }

  /// Object (`close` == '}') or array (']') body after its opening char.
  bool members(Value& v, int depth, char close) {
    ++i;
    skip_ws();
    if (i < s.size() && s[i] == close) {
      ++i;
      return true;
    }
    while (true) {
      if (close == '}') {
        skip_ws();
        if (i >= s.size() || s[i] != '"')
          return fail("expected a key string");
        std::string& key = v.keys.emplace_back();
        if (!string(key)) return false;
        skip_ws();
        if (i >= s.size() || s[i] != ':') return fail("expected ':'");
        ++i;
      }
      if (!value(v.items.emplace_back(), depth + 1)) return false;
      skip_ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == close) {
        ++i;
        return true;
      }
      return fail(close == '}' ? "expected ',' or '}'"
                               : "expected ',' or ']'");
    }
  }
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (std::size_t k = keys.size(); k-- > 0;)
    if (keys[k] == key) return &items[k];
  return nullptr;
}

const Value* Value::at(std::string_view dotted_path) const {
  const Value* v = this;
  while (v != nullptr) {
    const std::size_t dot = dotted_path.find('.');
    v = v->get(dotted_path.substr(0, dot));
    if (dot == std::string_view::npos) break;
    dotted_path.remove_prefix(dot + 1);
  }
  return v;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Reader r{text, 0, {}};
  Value v;
  bool ok = r.value(v, 0);
  if (ok) {
    r.skip_ws();
    if (r.i != text.size()) ok = r.fail("trailing content after JSON value");
  }
  if (ok) return v;
  if (error != nullptr) *error = r.err;
  return std::nullopt;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace simsweep::obs::json
