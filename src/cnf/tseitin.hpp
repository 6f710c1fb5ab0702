#pragma once
/// \file tseitin.hpp
/// \brief Incremental Tseitin encoding of AIG cones into a SAT solver.
///
/// The SAT-sweeping baseline checks many node pairs against one growing
/// solver instance. Encoding the whole miter up front wastes effort, so
/// the encoder adds clauses lazily: encode(lit) walks the literal's TFI
/// and emits the AND-gate clauses
///     n -> a,  n -> b,  (a & b) -> n
/// only for nodes not yet encoded. Each AIG variable maps to one solver
/// variable, created on first touch.
///
/// Substitution-aware mode (the sweep's PO probe solvers): when a
/// SubstitutionMap is attached, every literal — the root and each fanin
/// met during the cone walk — is resolved through the map first, so the
/// encoded cone is the cone of the *reduced* graph. Proved merges
/// therefore shrink every later encoding instead of only adding equality
/// clauses. The map may grow between encode() calls; clauses emitted
/// earlier stay valid because substitutions are proved equivalences.

#include <vector>

#include "aig/aig.hpp"
#include "aig/rebuild.hpp"
#include "sat/solver.hpp"

namespace simsweep::cnf {

class TseitinEncoder {
 public:
  /// `subst` is optional; when non-null it must outlive the encoder and
  /// may gain merges between encode() calls. Concurrent encoders may
  /// share a map only if it no longer changes and is compressed, so that
  /// resolve() never writes (see sweep::PairSolver).
  TseitinEncoder(const aig::Aig& aig, sat::Solver& solver,
                 const aig::SubstitutionMap* subst = nullptr)
      : aig_(aig), solver_(solver), subst_(subst),
        sat_var_(aig.num_nodes(), -1) {}

  /// Ensures the cone of `lit` (resolved through the substitution map if
  /// one is attached) is encoded; returns the corresponding SAT literal.
  sat::Lit encode(aig::Lit lit);

  /// SAT variable of an AIG variable, or -1 if not yet encoded.
  sat::Var sat_var(aig::Var v) const { return sat_var_[v]; }

 private:
  sat::Var touch(aig::Var v);
  aig::Lit resolved(aig::Lit lit) const {
    return subst_ != nullptr ? subst_->resolve(lit) : lit;
  }

  const aig::Aig& aig_;
  sat::Solver& solver_;
  const aig::SubstitutionMap* subst_;
  std::vector<sat::Var> sat_var_;
};

}  // namespace simsweep::cnf
