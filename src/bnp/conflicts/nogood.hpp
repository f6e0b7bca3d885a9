// Nogood store for branch-and-price conflict learning (bnp/conflicts).
//
// A *nogood* is a conjunction of branch literals — (predicate, sense,
// integer rhs) triples, the same atoms bnp/node_tree's BranchDecision
// chains are made of — proven unsatisfiable: no integral configuration
// solution exists under any node whose active branch rows imply all of
// them. Nogoods come from Farkas certificates of infeasible node masters
// (release::FractionalSolution::farkas_branch_rows projects the
// certificate onto the active branch rows; zero-multiplier rows are
// dropped, generalizing the conflict beyond the exact path that exposed
// it) and are consulted before children are enqueued, pruning whole
// subtrees without ever touching the LP.
//
// Soundness rests on rhs monotonicity of the certificate (see
// docs/ARCHITECTURE.md "Conflict learning"): a valid Farkas vector has
// y_i <= 0 on LE rows and y_i >= 0 on GE rows, so *tightening* any rhs
// (smaller LE, larger GE) only increases y'b and keeps y'a <= 0 — the
// certificate, restricted to its nonzero branch rows, refutes every node
// whose active literal set *dominates* the explanation, literal by
// literal. That dominance relation is the store's single primitive: it
// drives both the membership query (`matches`) and subsumption between
// stored nogoods (`learn` absorbs supersets in both directions).
//
// Determinism: the store is only ever touched from serial contexts (the
// serial driver's loop; the batch driver's pop-ordered merge loop),
// so its contents — and therefore every prune — are identical across
// thread counts. Eviction under the capacity bound is deterministic too:
// the nogood with the most literals goes first (most-specific = least
// reusable), ties broken by smallest insertion id.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "lp/model.hpp"
#include "release/config_lp.hpp"

namespace stripack::bnp::conflicts {

/// One branch atom: the predicate/sense pair identifies a (shared) branch
/// row, the rhs is the bound a node activates it at. A node's literal set
/// is its root path's decision chain, child-most rhs winning per
/// (predicate, sense) — exactly the rows bnp/solver activates for it.
struct BranchLiteral {
  release::BranchPredicate pred;
  lp::Sense sense = lp::Sense::LE;
  double rhs = 0.0;
};

/// Strict weak order on the literal *key* (predicate fields, then sense;
/// rhs excluded) — the canonical sort order of literal sets.
[[nodiscard]] bool literal_key_less(const BranchLiteral& a,
                                    const BranchLiteral& b);
[[nodiscard]] bool literal_key_equal(const BranchLiteral& a,
                                     const BranchLiteral& b);

/// True iff `specific` implies `general`: every literal of `general` has
/// a same-key literal in `specific` with a tighter-or-equal rhs (LE:
/// smaller-or-equal, GE: larger-or-equal). Both sides must be canonical
/// (see NogoodStore::canonicalize). dominates(nogood, node) is the prune
/// test; dominates(A, B) between nogoods means A subsumes B.
[[nodiscard]] bool dominates(std::span<const BranchLiteral> general,
                             std::span<const BranchLiteral> specific);

struct Nogood {
  std::vector<BranchLiteral> literals;  // canonical: key-sorted, keys unique
  std::size_t id = 0;                   // insertion order (eviction ties)
};

/// Deterministic, deduplicated, subsumption-reduced set of learned
/// nogoods with a bounded size budget. Not thread-safe by design — see
/// the determinism note above.
class NogoodStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit NogoodStore(std::size_t capacity = kDefaultCapacity);

  /// Key-sorts `literals` and collapses duplicate keys to the tightest
  /// rhs (the semantics of re-branching a predicate deeper down: the
  /// child-most row activation wins, and it is always tighter).
  static void canonicalize(std::vector<BranchLiteral>& literals);

  /// Learns one nogood (canonicalized internally). Returns true iff it
  /// was inserted: an empty conjunction is rejected (it would claim the
  /// root infeasible), as is one already subsumed by a stored nogood;
  /// stored nogoods the new one subsumes are erased first. Over
  /// capacity, evicts most-literals-first, ties by smallest id.
  bool learn(std::vector<BranchLiteral> literals);

  /// True iff some stored nogood refutes a node with this (canonical)
  /// active literal set.
  [[nodiscard]] bool matches(std::span<const BranchLiteral> active) const;

  [[nodiscard]] std::size_t size() const { return nogoods_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Cumulative counters: accepted inserts, learns rejected as subsumed,
  /// stored nogoods erased by a subsuming newcomer, capacity evictions.
  [[nodiscard]] std::size_t learned() const { return learned_; }
  [[nodiscard]] std::size_t rejected_subsumed() const {
    return rejected_subsumed_;
  }
  [[nodiscard]] std::size_t erased_subsumed() const {
    return erased_subsumed_;
  }
  [[nodiscard]] std::size_t evicted() const { return evicted_; }
  [[nodiscard]] const std::vector<Nogood>& nogoods() const {
    return nogoods_;
  }

 private:
  std::vector<Nogood> nogoods_;  // insertion order (minus erasures)
  std::size_t capacity_;
  std::size_t next_id_ = 0;
  std::size_t learned_ = 0;
  std::size_t rejected_subsumed_ = 0;
  std::size_t erased_subsumed_ = 0;
  std::size_t evicted_ = 0;
};

}  // namespace stripack::bnp::conflicts
