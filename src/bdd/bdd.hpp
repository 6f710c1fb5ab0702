#pragma once
/// \file bdd.hpp
/// \brief Reduced Ordered Binary Decision Diagrams (Bryant 1986).
///
/// BDDs were the workhorse of early CEC (paper §I) and serve here as a
/// third engine in the portfolio checker. The implementation is a classic
/// unique-table + computed-table ROBDD package without complement edges
/// or garbage collection: nodes live until the manager dies, and a node
/// limit turns the notorious memory blow-up into a clean BddOverflow
/// (callers report kUndecided). A stop hook turns a deadline or a cancel
/// into the same BddOverflow, from inside a running operation.

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace simsweep::bdd {

/// Thrown when the node limit is exceeded or the stop hook fires;
/// callers treat the check as undecided.
struct BddOverflow : std::runtime_error {
  explicit BddOverflow(const char* why = "BDD node limit exceeded")
      : std::runtime_error(why) {}
};

class BddManager {
 public:
  /// A BDD node reference. 0 = constant false, 1 = constant true.
  using Ref = std::uint32_t;
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  explicit BddManager(unsigned num_vars,
                      std::size_t node_limit = std::size_t{1} << 22);

  /// Polled every kStopPollSteps recursive operation steps: once it
  /// returns true, the running operation throws BddOverflow. One
  /// apply_and can recurse for minutes without reaching the node limit,
  /// so a deadline checked only between operations does not hold.
  void set_stop(std::function<bool()> stop) { stop_ = std::move(stop); }

  unsigned num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// The projection function of variable v (must be < num_vars).
  Ref var(unsigned v);

  Ref apply_and(Ref f, Ref g);
  Ref apply_or(Ref f, Ref g) {
    return negate(apply_and(negate(f), negate(g)));
  }
  Ref apply_xor(Ref f, Ref g);
  Ref negate(Ref f);
  Ref ite(Ref f, Ref g, Ref h);

  bool is_const(Ref f) const { return f <= 1; }

  /// One satisfying assignment (values for all num_vars variables,
  /// unconstrained ones 0), or nullopt if f == false.
  std::optional<std::vector<bool>> satisfy_one(Ref f) const;

  /// Number of satisfying assignments over all num_vars variables.
  double sat_count(Ref f) const;

  /// Evaluates f under a complete assignment.
  bool evaluate(Ref f, const std::vector<bool>& assignment) const;

 private:
  struct Node {
    std::uint32_t var;  ///< branching variable (top-most in the order)
    Ref low, high;
  };

  static constexpr std::uint32_t kStopPollSteps = 4096;

  /// Counts one recursive step (a computed-table miss) and polls the stop
  /// hook every kStopPollSteps of them.
  void step() {
    if (!stop_ || ++steps_ < kStopPollSteps) return;
    steps_ = 0;
    if (stop_()) throw BddOverflow("BDD operation stopped");
  }

  Ref make_node(std::uint32_t v, Ref low, Ref high);
  std::uint32_t top_var(Ref f) const {
    return is_const(f) ? num_vars_ : nodes_[f].var;
  }

  static std::uint64_t triple_key(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t c) {
    std::uint64_t h = a * 0x9E3779B97F4A7C15ULL;
    h ^= b + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h = h * 0xFF51AFD7ED558CCDULL + c;
    return h;
  }

  /// Direct-mapped operation cache with full-key verification (a plain
  /// hash-keyed map could silently return a wrong node on collision).
  struct CacheEntry {
    std::uint64_t op = ~std::uint64_t{0};
    Ref f = 0, g = 0, h = 0;
    Ref result = 0;
  };
  bool cache_lookup(std::uint64_t op, Ref f, Ref g, Ref h, Ref& out) const;
  void cache_store(std::uint64_t op, Ref f, Ref g, Ref h, Ref result);

  /// Exact-keyed unique table (canonicity must never depend on a hash).
  struct UniqueKey {
    std::uint32_t var;
    Ref low, high;
    bool operator==(const UniqueKey&) const = default;
  };
  struct UniqueKeyHash {
    std::size_t operator()(const UniqueKey& k) const {
      return static_cast<std::size_t>(
          triple_key(k.var, k.low, k.high));
    }
  };

  unsigned num_vars_;
  std::size_t node_limit_;
  std::vector<Node> nodes_;  // [0], [1] are placeholder terminals
  std::unordered_map<UniqueKey, Ref, UniqueKeyHash> unique_;
  std::vector<CacheEntry> cache_;
  std::vector<Ref> var_refs_;
  std::function<bool()> stop_;
  std::uint32_t steps_ = 0;
};

}  // namespace simsweep::bdd
