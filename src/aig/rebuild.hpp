#pragma once
/// \file rebuild.hpp
/// \brief Miter-manager reduction: merging proved node pairs by rebuilding.
///
/// The engine's miter manager (paper §III-A) reduces the miter by merging
/// proved equivalent pairs. SimSweep records proved pairs in a
/// SubstitutionMap (old variable -> replacement literal, with union-find
/// style resolution for chains) and then rebuilds the AIG in one
/// topological pass with structural hashing, dropping logic that becomes
/// dangling. The rebuild is functionally equivalent to in-place merging but
/// keeps the graph canonical (strashed, topologically ordered, no
/// dangling nodes).

#include <vector>

#include "aig/aig.hpp"

namespace simsweep::aig {

/// Records "variable v is equivalent to literal l" facts and resolves
/// substitution chains (v -> l whose variable is itself substituted).
class SubstitutionMap {
 public:
  explicit SubstitutionMap(std::size_t num_vars);

  /// Declares var equivalent to lit. lit's variable must be smaller than
  /// var (the representative convention: min id in the class), which makes
  /// chains acyclic. Returns false (and ignores the fact) otherwise.
  bool merge(Var var, Lit lit);

  /// Resolves a literal through the substitution chain.
  Lit resolve(Lit lit) const;

  /// Points every substituted variable straight at its representative.
  /// resolve() then never writes, so threads may share a compressed map
  /// for as long as no merge follows.
  void compress();

  /// Whether any merge has been recorded.
  bool empty() const { return num_merged_ == 0; }
  std::size_t num_merged() const { return num_merged_; }

 private:
  // repl_[v] == make_lit(v) when v is not substituted.
  mutable std::vector<Lit> repl_;
  std::size_t num_merged_ = 0;
};

/// Result of a rebuild: the new AIG plus the old-variable -> new-literal
/// map (kLitInvalid for dropped/dangling variables).
struct RebuildResult {
  Aig aig;
  std::vector<Lit> lit_map;
  static constexpr Lit kLitInvalid = 0xFFFFFFFFu;
};

/// Rebuilds `aig` with the substitutions applied: every PO cone is copied
/// into a fresh strashed AIG where each substituted variable is replaced by
/// its resolved literal. Dangling logic is dropped. PIs are preserved even
/// if unused so the PI interface is stable.
RebuildResult rebuild(const Aig& aig, const SubstitutionMap& subst);

/// rebuild() with an empty substitution: removes dangling nodes and
/// re-strashes.
RebuildResult cleanup(const Aig& aig);

}  // namespace simsweep::aig
