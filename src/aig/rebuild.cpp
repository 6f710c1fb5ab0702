#include "aig/rebuild.hpp"

#include <cassert>

namespace simsweep::aig {

SubstitutionMap::SubstitutionMap(std::size_t num_vars)
    : repl_(num_vars) {
  for (std::size_t v = 0; v < num_vars; ++v)
    repl_[v] = make_lit(static_cast<Var>(v));
}

bool SubstitutionMap::merge(Var var, Lit lit) {
  assert(var < repl_.size() && lit_var(lit) < repl_.size());
  if (lit_var(lit) >= var) return false;
  if (repl_[var] != make_lit(var)) return false;  // already substituted
  repl_[var] = lit;
  ++num_merged_;
  return true;
}

Lit SubstitutionMap::resolve(Lit lit) const {
  // Follow the chain; compress the path for amortized O(1) lookups.
  Var v = lit_var(lit);
  bool c = lit_compl(lit);
  while (repl_[v] != make_lit(v)) {
    const Lit next = repl_[v];
    c ^= lit_compl(next);
    v = lit_var(next);
  }
  // Path compression (single hop is enough for our chain lengths).
  const Var v0 = lit_var(lit);
  const Lit direct = make_lit(v, c ^ lit_compl(lit));
  if (v0 != v && repl_[v0] != direct) repl_[v0] = direct;
  return make_lit(v, c);
}

void SubstitutionMap::compress() {
  for (Var v = 0; v < repl_.size(); ++v) resolve(make_lit(v));
}

RebuildResult rebuild(const Aig& aig, const SubstitutionMap& subst) {
  RebuildResult result;
  result.aig = Aig(aig.num_pis());
  result.lit_map.assign(aig.num_nodes(), RebuildResult::kLitInvalid);

  // Mark variables reachable from the POs through resolved literals.
  std::vector<std::uint8_t> needed(aig.num_nodes(), 0);
  std::vector<Var> stack;
  auto mark = [&](Lit lit) {
    const Var v = lit_var(subst.resolve(lit));
    if (!needed[v]) {
      needed[v] = 1;
      stack.push_back(v);
    }
  };
  for (Lit po : aig.pos()) mark(po);
  while (!stack.empty()) {
    const Var v = stack.back();
    stack.pop_back();
    if (!aig.is_and(v)) continue;
    mark(aig.fanin0(v));
    mark(aig.fanin1(v));
  }

  result.lit_map[0] = kLitFalse;
  for (unsigned i = 0; i < aig.num_pis(); ++i)
    result.lit_map[i + 1] = result.aig.pi_lit(i);

  auto mapped = [&](Lit lit) {
    const Lit r = subst.resolve(lit);
    const Lit base = result.lit_map[lit_var(r)];
    assert(base != RebuildResult::kLitInvalid);
    return lit_notcond(base, lit_compl(r));
  };

  for (Var v = aig.num_pis() + 1; v < aig.num_nodes(); ++v) {
    if (!needed[v]) continue;
    if (lit_var(subst.resolve(make_lit(v))) != v) continue;  // substituted
    result.lit_map[v] =
        result.aig.add_and(mapped(aig.fanin0(v)), mapped(aig.fanin1(v)));
  }
  for (Lit po : aig.pos()) result.aig.add_po(mapped(po));
  return result;
}

RebuildResult cleanup(const Aig& aig) {
  return rebuild(aig, SubstitutionMap(aig.num_nodes()));
}

}  // namespace simsweep::aig
