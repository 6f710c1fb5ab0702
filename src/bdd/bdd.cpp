#include "bdd/bdd.hpp"

#include <cassert>
#include <cmath>

namespace simsweep::bdd {

namespace {
enum Op : std::uint64_t { kOpAnd = 1, kOpXor = 2, kOpNot = 3, kOpIte = 4 };
}

BddManager::BddManager(unsigned num_vars, std::size_t node_limit)
    : num_vars_(num_vars), node_limit_(node_limit) {
  nodes_.push_back(Node{num_vars_, kFalse, kFalse});  // terminal 0
  nodes_.push_back(Node{num_vars_, kTrue, kTrue});    // terminal 1
  var_refs_.assign(num_vars_, kFalse);
  cache_.assign(std::size_t{1} << 18, CacheEntry{});
}

bool BddManager::cache_lookup(std::uint64_t op, Ref f, Ref g, Ref h,
                              Ref& out) const {
  const CacheEntry& e = cache_[triple_key(op, (std::uint64_t{f} << 32) | g,
                                          h) &
                               (cache_.size() - 1)];
  if (e.op != op || e.f != f || e.g != g || e.h != h) return false;
  out = e.result;
  return true;
}

void BddManager::cache_store(std::uint64_t op, Ref f, Ref g, Ref h,
                             Ref result) {
  CacheEntry& e = cache_[triple_key(op, (std::uint64_t{f} << 32) | g, h) &
                         (cache_.size() - 1)];
  e = CacheEntry{op, f, g, h, result};
}

BddManager::Ref BddManager::var(unsigned v) {
  assert(v < num_vars_);
  if (var_refs_[v] == kFalse) var_refs_[v] = make_node(v, kFalse, kTrue);
  return var_refs_[v];
}

BddManager::Ref BddManager::make_node(std::uint32_t v, Ref low, Ref high) {
  if (low == high) return low;  // reduction rule
  const UniqueKey key{v, low, high};
  if (auto it = unique_.find(key); it != unique_.end()) return it->second;
  if (nodes_.size() >= node_limit_) throw BddOverflow();
  nodes_.push_back(Node{v, low, high});
  const Ref r = static_cast<Ref>(nodes_.size() - 1);
  unique_[key] = r;
  return r;
}

BddManager::Ref BddManager::apply_and(Ref f, Ref g) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue) return g;
  if (g == kTrue) return f;
  if (f == g) return f;
  if (f > g) std::swap(f, g);  // canonical operand order
  Ref r;
  if (cache_lookup(kOpAnd, f, g, 0, r)) return r;
  step();

  const std::uint32_t v = std::min(top_var(f), top_var(g));
  const Ref f0 = top_var(f) == v ? nodes_[f].low : f;
  const Ref f1 = top_var(f) == v ? nodes_[f].high : f;
  const Ref g0 = top_var(g) == v ? nodes_[g].low : g;
  const Ref g1 = top_var(g) == v ? nodes_[g].high : g;
  r = make_node(v, apply_and(f0, g0), apply_and(f1, g1));
  cache_store(kOpAnd, f, g, 0, r);
  return r;
}

BddManager::Ref BddManager::apply_xor(Ref f, Ref g) {
  if (f == kFalse) return g;
  if (g == kFalse) return f;
  if (f == g) return kFalse;
  if (f == kTrue) return negate(g);
  if (g == kTrue) return negate(f);
  if (f > g) std::swap(f, g);
  Ref r;
  if (cache_lookup(kOpXor, f, g, 0, r)) return r;
  step();

  const std::uint32_t v = std::min(top_var(f), top_var(g));
  const Ref f0 = top_var(f) == v ? nodes_[f].low : f;
  const Ref f1 = top_var(f) == v ? nodes_[f].high : f;
  const Ref g0 = top_var(g) == v ? nodes_[g].low : g;
  const Ref g1 = top_var(g) == v ? nodes_[g].high : g;
  r = make_node(v, apply_xor(f0, g0), apply_xor(f1, g1));
  cache_store(kOpXor, f, g, 0, r);
  return r;
}

BddManager::Ref BddManager::negate(Ref f) {
  if (f == kFalse) return kTrue;
  if (f == kTrue) return kFalse;
  Ref r;
  if (cache_lookup(kOpNot, f, 0, 0, r)) return r;
  step();
  r = make_node(nodes_[f].var, negate(nodes_[f].low), negate(nodes_[f].high));
  cache_store(kOpNot, f, 0, 0, r);
  return r;
}

BddManager::Ref BddManager::ite(Ref f, Ref g, Ref h) {
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return negate(f);
  Ref r;
  if (cache_lookup(kOpIte, f, g, h, r)) return r;
  step();

  const std::uint32_t v =
      std::min(top_var(f), std::min(top_var(g), top_var(h)));
  auto cof = [&](Ref x, bool hi) {
    if (top_var(x) != v) return x;
    return hi ? nodes_[x].high : nodes_[x].low;
  };
  r = make_node(v, ite(cof(f, false), cof(g, false), cof(h, false)),
                ite(cof(f, true), cof(g, true), cof(h, true)));
  cache_store(kOpIte, f, g, h, r);
  return r;
}

std::optional<std::vector<bool>> BddManager::satisfy_one(Ref f) const {
  if (f == kFalse) return std::nullopt;
  std::vector<bool> assignment(num_vars_, false);
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    if (n.high != kFalse) {
      assignment[n.var] = true;
      f = n.high;
    } else {
      f = n.low;
    }
  }
  assert(f == kTrue);
  return assignment;
}

double BddManager::sat_count(Ref f) const {
  std::unordered_map<Ref, double> memo;
  // count(f) over variables [top_var(f), num_vars_), then scale.
  auto count = [&](auto&& self, Ref g) -> double {
    if (g == kFalse) return 0.0;
    if (g == kTrue) return 1.0;
    if (auto it = memo.find(g); it != memo.end()) return it->second;
    const Node& n = nodes_[g];
    const double lo =
        self(self, n.low) *
        std::pow(2.0, static_cast<double>(top_var(n.low)) - n.var - 1);
    const double hi =
        self(self, n.high) *
        std::pow(2.0, static_cast<double>(top_var(n.high)) - n.var - 1);
    const double r = lo + hi;
    memo[g] = r;
    return r;
  };
  return count(count, f) * std::pow(2.0, static_cast<double>(top_var(f)));
}

bool BddManager::evaluate(Ref f, const std::vector<bool>& assignment) const {
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    f = assignment[n.var] ? n.high : n.low;
  }
  return f == kTrue;
}

}  // namespace simsweep::bdd
