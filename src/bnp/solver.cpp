#include "bnp/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "bnp/conflicts/nogood.hpp"
#include "bnp/conflicts/propagate.hpp"
#include "bnp/worker_pool.hpp"
#include "release/integralize.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace stripack::bnp {

namespace {

[[nodiscard]] double frac_dist(double v) {
  return std::fabs(v - std::round(v));
}

[[nodiscard]] bool near_int(double v, double tol) {
  return frac_dist(v) <= tol;
}

[[nodiscard]] release::Configuration config_from_counts(
    const std::vector<int>& counts, const std::vector<double>& widths) {
  release::Configuration q;
  q.counts = counts;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    q.total_width += counts[i] * widths[i];
    q.total_items += counts[i];
  }
  return q;
}

// Integral candidates live on the aggregated view: columns with the same
// (phase, configuration) pattern merged. The solution is integral exactly
// when every aggregated total is.
using PatternKey = std::pair<std::size_t, std::vector<int>>;

[[nodiscard]] std::map<PatternKey, double> aggregate_patterns(
    const release::FractionalSolution& solution) {
  std::map<PatternKey, double> totals;
  for (const release::Slice& s : solution.slices) {
    totals[{s.phase, s.config.counts}] += s.height;
  }
  return totals;
}

// Structured identity of a branching predicate (and, with the sense, of a
// branch row). Replaces the old per-node string keys: comparisons are
// integer tuples plus one vector, with no allocation-heavy string
// building on the hot budget-accounted activation path.
struct PredKey {
  int kind = 0;
  int phase = -1;
  std::size_t width_a = 0;
  std::size_t width_b = 0;
  std::vector<int> counts;

  auto operator<=>(const PredKey&) const = default;
};

[[nodiscard]] PredKey pred_key(const release::BranchPredicate& pred) {
  PredKey key;
  key.kind = static_cast<int>(pred.kind);
  key.phase = pred.phase;
  key.width_a = pred.width_a;
  key.width_b = pred.width_b;
  key.counts = pred.counts;
  return key;
}

using RowKey = std::pair<int, PredKey>;  // (sense, predicate)

[[nodiscard]] RowKey row_key(const BranchDecision& d) {
  return {d.sense == lp::Sense::LE ? 0 : 1, pred_key(d.pred)};
}

// Per-predicate pseudo-cost statistics: observed dual-bound gain per unit
// of fractional distance, separately for the LE ("down") and GE ("up")
// child. Updated in node processing order, so scores are deterministic and
// identical across thread counts.
struct PseudoCost {
  double down_sum = 0.0;
  int down_n = 0;
  double up_sum = 0.0;
  int up_n = 0;
};

class PseudoCostTable {
 public:
  void add(const PredKey& key, lp::Sense sense, double unit_gain) {
    PseudoCost& pc = table_[key];
    if (sense == lp::Sense::LE) {
      pc.down_sum += unit_gain;
      ++pc.down_n;
      global_down_sum_ += unit_gain;
      ++global_down_n_;
    } else {
      pc.up_sum += unit_gain;
      ++pc.up_n;
      global_up_sum_ += unit_gain;
      ++global_up_n_;
    }
  }

  [[nodiscard]] bool empty() const {
    return global_down_n_ == 0 && global_up_n_ == 0;
  }

  // Product score (standard pseudo-cost branching): estimated bound gain
  // of the two children, unobserved sides falling back to the global
  // per-side average (or 1 when nothing was ever observed).
  [[nodiscard]] double score(const PredKey& key, double frac) const {
    const auto it = table_.find(key);
    const double down_avg =
        it != table_.end() && it->second.down_n > 0
            ? it->second.down_sum / it->second.down_n
            : (global_down_n_ > 0 ? global_down_sum_ / global_down_n_ : 1.0);
    const double up_avg =
        it != table_.end() && it->second.up_n > 0
            ? it->second.up_sum / it->second.up_n
            : (global_up_n_ > 0 ? global_up_sum_ / global_up_n_ : 1.0);
    constexpr double kEps = 1e-6;
    return std::max(frac * down_avg, kEps) *
           std::max((1.0 - frac) * up_avg, kEps);
  }

 private:
  std::map<PredKey, PseudoCost> table_;
  double global_down_sum_ = 0.0;
  int global_down_n_ = 0;
  double global_up_sum_ = 0.0;
  int global_up_n_ = 0;
};

struct BranchCandidate {
  release::BranchPredicate pred;
  double total = 0.0;  // the fractional pair/pattern total to split at
};

// All fractional pair totals (Ryan–Foster candidates), most-fractional
// first with deterministic key ties; falls back to single-pattern
// candidates when every pair total is integral (the completeness
// fallback). Empty when the solution is integral.
[[nodiscard]] std::vector<BranchCandidate> branch_candidates(
    const std::map<PatternKey, double>& totals, double tol) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, double> pairs;
  for (const auto& [key, height] : totals) {
    const std::vector<int>& counts = key.second;
    for (std::size_t a = 0; a < counts.size(); ++a) {
      if (counts[a] == 0) continue;
      for (std::size_t b = a; b < counts.size(); ++b) {
        const bool together = a == b ? counts[a] >= 2 : counts[b] >= 1;
        if (together) pairs[{key.first, a, b}] += height;
      }
    }
  }
  std::vector<BranchCandidate> out;
  for (const auto& [key, total] : pairs) {
    if (frac_dist(total) > tol) {
      release::BranchPredicate pred;
      pred.kind = release::BranchPredicate::Kind::PairTogether;
      pred.phase = static_cast<int>(std::get<0>(key));
      pred.width_a = std::get<1>(key);
      pred.width_b = std::get<2>(key);
      out.push_back({std::move(pred), total});
    }
  }
  if (out.empty()) {
    for (const auto& [key, total] : totals) {
      if (frac_dist(total) > tol) {
        release::BranchPredicate pred;
        pred.kind = release::BranchPredicate::Kind::Pattern;
        pred.phase = static_cast<int>(key.first);
        pred.counts = key.second;
        out.push_back({std::move(pred), total});
      }
    }
  }
  // Most fractional first; map iteration already fixed the tie order.
  std::stable_sort(out.begin(), out.end(),
                   [](const BranchCandidate& a, const BranchCandidate& b) {
                     return frac_dist(a.total) > frac_dist(b.total);
                   });
  return out;
}

// Branching rule: pseudo-cost scores over the candidates once any
// observation exists (strong branching seeds them at the root);
// most-fractional otherwise. Deterministic: candidates arrive in a fixed
// order and only a strictly better score displaces the incumbent.
[[nodiscard]] std::optional<BranchCandidate> select_branch(
    const std::map<PatternKey, double>& totals, double tol,
    const PseudoCostTable& pc, bool use_pc) {
  std::vector<BranchCandidate> candidates = branch_candidates(totals, tol);
  if (candidates.empty()) return std::nullopt;
  if (!use_pc || pc.empty()) return std::move(candidates.front());
  // Fractionality stays the primary signal: pseudo-cost scores only
  // arbitrate among the top-F most fractional candidates. Unrestricted
  // pc selection measured 2-3x slower per node on larger instances (it
  // drifts toward predicates whose rows make node re-solves expensive).
  constexpr std::size_t kPcWindow = 8;
  const std::size_t window = std::min(candidates.size(), kPcWindow);
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t i = 0; i < window; ++i) {
    const double f =
        candidates[i].total - std::floor(candidates[i].total);
    const double score = pc.score(pred_key(candidates[i].pred), f);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return std::move(candidates[best]);
}

[[nodiscard]] std::vector<release::Slice> integral_slices(
    const std::map<PatternKey, double>& totals,
    const std::vector<double>& widths) {
  std::vector<release::Slice> slices;
  for (const auto& [key, height] : totals) {
    const double h = std::round(height);
    if (h < 0.5) continue;
    slices.push_back(release::Slice{config_from_counts(key.second, widths),
                                    key.first, h});
  }
  return slices;
}

[[nodiscard]] double slices_objective(
    const std::vector<release::Slice>& slices, std::size_t num_phases) {
  double obj = 0.0;
  for (const release::Slice& s : slices) {
    if (s.phase + 1 == num_phases) obj += s.height;
  }
  return obj;
}

// The stack-everything fallback incumbent: all supply as phase-R
// singleton columns. Always feasible — phase R is unbounded and the
// suffix surpluses carry late supply to every earlier demand row.
[[nodiscard]] std::vector<release::Slice> trivial_incumbent(
    const release::ConfigLpProblem& problem) {
  std::vector<release::Slice> slices;
  const std::size_t R = problem.num_releases() - 1;
  for (std::size_t i = 0; i < problem.num_widths(); ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < problem.num_releases(); ++j) {
      total += problem.demand[j][i];
    }
    total = std::ceil(total - 1e-9);
    if (total < 0.5) continue;
    std::vector<int> counts(problem.num_widths(), 0);
    counts[i] = 1;
    slices.push_back(
        release::Slice{config_from_counts(counts, problem.widths), R, total});
  }
  return slices;
}

// Root rounding heuristic: floor every early-phase pattern total (never
// violates a packing capacity), ceil the phase-R totals, then repair the
// coverage lost to flooring with phase-R singletons sized by the worst
// suffix deficit per width. All heights integral by construction.
[[nodiscard]] std::vector<release::Slice> rounded_incumbent(
    const release::ConfigLpProblem& problem,
    const std::map<PatternKey, double>& totals, double tol) {
  const std::size_t phases = problem.num_releases();
  const std::size_t W = problem.num_widths();
  std::vector<release::Slice> slices;
  std::vector<std::vector<double>> supply(phases, std::vector<double>(W, 0.0));
  for (const auto& [key, height] : totals) {
    const std::size_t j = key.first;
    const double h = j + 1 == phases ? std::ceil(height - tol)
                                     : std::floor(height + tol);
    if (h < 0.5) continue;
    for (std::size_t i = 0; i < W; ++i) supply[j][i] += h * key.second[i];
    slices.push_back(
        release::Slice{config_from_counts(key.second, problem.widths), j, h});
  }
  for (std::size_t i = 0; i < W; ++i) {
    double worst = 0.0;
    double suffix_supply = 0.0;
    double suffix_demand = 0.0;
    for (std::size_t j = phases; j-- > 0;) {
      suffix_supply += supply[j][i];
      suffix_demand += problem.demand[j][i];
      worst = std::max(worst, suffix_demand - suffix_supply);
    }
    const double extra = std::ceil(worst - tol);
    if (extra < 0.5) continue;
    std::vector<int> counts(W, 0);
    counts[i] = 1;
    slices.push_back(release::Slice{config_from_counts(counts, problem.widths),
                                    phases - 1, extra});
  }
  return slices;
}

void accumulate(BnpResult& result, const release::FractionalSolution& s) {
  result.lp_iterations += s.iterations;
  result.dual_iterations += s.dual_iterations;
  result.warm_phase1_iterations += s.colgen_warm_phase1_iterations;
  result.farkas_rounds += s.farkas_rounds;
  result.farkas_columns += s.farkas_columns;
  result.columns = std::max(result.columns, s.lp_cols);
  result.lp_refactor_retries += s.lp_refactor_retries;
  result.lp_residual_repairs += s.lp_residual_repairs;
  result.lp_cold_restarts += s.lp_cold_restarts;
  result.master_failovers += s.master_failovers;
  result.lp_dual_bland_fallbacks += s.lp_dual_bland_fallbacks;
}

// The warm-path invariant: node re-solves never run phase 1 — unless the
// recovery ladder legitimately restarted cold (a cold restart inside the
// backend, or a full backend failover), or the solve was interrupted /
// failed before certifying anything.
[[nodiscard]] bool warm_path_ok(const release::FractionalSolution& s) {
  return s.colgen_warm_phase1_iterations == 0 || !s.feasible ||
         s.lp_cold_restarts > 0 || s.master_failovers > 0;
}

void accumulate(BnpResult& result, const release::PricingStats& s) {
  result.pricing_dfs_expansions += s.dfs_expansions;
  result.pricing_row_tests += s.row_tests;
  result.pricing_cache_probes += s.cache_probes;
  result.pricing_cache_hits += s.cache_hits;
  result.pricing_memo_hits += s.exact_memo_hits;
  result.pricing_cache_patterns =
      std::max(result.pricing_cache_patterns, s.cache_patterns);
}

// The whole search state threaded through the root handling, the serial
// path and the batch path. Keeping it in one struct (instead of a dozen
// lambda captures) makes the two search drivers readable.
struct Search {
  Search(const BnpOptions& opts, const release::ConfigLpProblem& prob,
         release::ConfigLpSolver& s)
      : options(opts), problem(prob), solver(s) {}

  const BnpOptions& options;
  const release::ConfigLpProblem& problem;
  release::ConfigLpSolver& solver;
  NodeTree tree;
  BnpResult result;
  std::vector<release::Slice> incumbent;
  PseudoCostTable pseudo_costs;
  // Branch rows shared across nodes through (sense, predicate) keys; rows
  // are created parked at their neutral rhs and activated per node.
  std::map<RowKey, int> row_by_key;
  // Serial path: rows active at the previously evaluated node, sorted —
  // the activation diff binary-searches and reserves instead of scanning
  // every materialized row.
  std::vector<int> previously_active;
  bool stalled = false;
  double stalled_bound = std::numeric_limits<double>::infinity();
  double tol = 1e-6;
  std::size_t phases = 0;
  // Conflict learning (bnp/conflicts), engaged iff options.use_conflicts.
  // Both are touched only from serial contexts (the serial/cold loops and
  // the batch driver's pop-ordered merge loop), so prunes are identical
  // across thread counts.
  std::optional<conflicts::NogoodStore> nogoods;
  std::optional<conflicts::Propagator> propagator;
  // Row -> literal identity, the inverse of ensure_row: turns a Farkas
  // projection (`farkas_branch_rows`, model row indices) back into
  // predicate literals.
  std::map<int, std::pair<release::BranchPredicate, lp::Sense>> pred_by_row;
  std::vector<conflicts::BranchLiteral> parent_lits;  // process() scratch
  std::vector<conflicts::BranchLiteral> child_lits;
  std::vector<conflicts::BranchLiteral> learn_lits;  // learn_from scratch
  // Pseudo-cost stall gate (options.pseudo_cost_stall_gate): consecutive
  // observations without dual-bound movement.
  double stall_gate_bound = -std::numeric_limits<double>::infinity();
  int stall_gate_count = 0;

  [[nodiscard]] int ensure_row(const BranchDecision& d) {
    const RowKey key = row_key(d);
    const auto it = row_by_key.find(key);
    if (it != row_by_key.end()) return it->second;
    // A long-lived master (solve_warm) may already carry this row from an
    // earlier request; reuse it instead of appending duplicates without
    // bound. Fresh masters never hit the lookup (no rows yet).
    int row = solver.find_branch_row(d.pred, d.sense);
    if (row < 0) row = solver.add_branch_row(d.pred, d.sense, d.rhs);
    // Park immediately: both search drivers treat "not on the active
    // path" as neutral, and batch clones must snapshot neutral rows.
    solver.deactivate_branch_row(row);
    row_by_key.emplace(key, row);
    if (nogoods) pred_by_row.emplace(row, std::make_pair(d.pred, d.sense));
    return row;
  }

  // The node's root path as (row, rhs) activation pairs, child-most rhs
  // winning when a predicate was re-branched deeper down. Sorted rows in
  // `rows_out` (reserve + binary search; no linear scans over all rows).
  void node_path(int id, std::vector<std::pair<int, double>>& path,
                 std::vector<int>& rows_out) {
    path.clear();
    rows_out.clear();
    rows_out.reserve(static_cast<std::size_t>(tree.node(id).depth));
    for (int n = id; tree.node(n).parent >= 0; n = tree.node(n).parent) {
      const BranchDecision& d = tree.node(n).decision;
      const int row = ensure_row(d);
      const auto it =
          std::lower_bound(rows_out.begin(), rows_out.end(), row);
      if (it != rows_out.end() && *it == row) continue;  // child-most wins
      rows_out.insert(it, row);
      path.push_back({row, d.rhs});
    }
  }

  [[nodiscard]] double cutoff() const {
    if (!options.lagrangian_pruning || !tree.has_incumbent()) {
      return std::numeric_limits<double>::infinity();
    }
    // Integer objectives: proving the node's LP >= incumbent - 0.4 rules
    // out any strictly better integer solution in its subtree (the 0.1
    // inside the half-integer quantum absorbs floating-point drift).
    return tree.incumbent() - 0.4;
  }

  // Cutoff-as-constraint (options.conflict_cutoff_cap): node re-solves
  // go through resolve_with_height_cap so "cannot beat the incumbent"
  // surfaces as a *certified infeasible* master — the Farkas certificate
  // feeds learn_from — instead of a silent Lagrangian early exit, which
  // proves the same fact but explains nothing. The Lagrangian cutoff is
  // parked (infinity) in this mode so the infeasibility proof completes.
  [[nodiscard]] bool cap_mode() const {
    return nogoods.has_value() && options.conflict_cutoff_cap &&
           tree.has_incumbent();
  }

  [[nodiscard]] double cap_rhs() const {
    // Tighter than cutoff()'s -0.4 and equally exact: objectives are
    // integral, so any integral solution with objective > incumbent-0.9
    // is already >= incumbent — an infeasible capped master certifies
    // the subtree holds nothing strictly better than the incumbent. The
    // extra 0.5 matters: node LPs habitually land on half-integers
    // (incumbent - 0.5), which the -0.4 quantum leaves feasible (and
    // unexplained) but this cap converts into Farkas certificates. The
    // 0.1 left of the integer absorbs float drift; clamped because a
    // zero incumbent (everything fits before rho_R) caps at zero.
    return std::max(0.0, tree.incumbent() - 0.9);
  }

  // Stall-gate observation: called once per node (serial/cold) or once
  // per batch round, *before* the pop — a pure function of tree state at
  // that boundary, so the gate is identical across thread counts.
  void observe_bound() {
    if (!options.pseudo_cost_branching ||
        options.pseudo_cost_stall_gate <= 0) {
      return;
    }
    const double bound = tree.best_open_bound();
    if (bound > stall_gate_bound + 1e-9) {
      stall_gate_bound = bound;
      stall_gate_count = 0;
    } else {
      ++stall_gate_count;
    }
  }

  [[nodiscard]] bool pseudo_costs_active() const {
    return options.pseudo_cost_branching &&
           (options.pseudo_cost_stall_gate <= 0 ||
            stall_gate_count < options.pseudo_cost_stall_gate);
  }

  // Learns a nogood from a certified-infeasible node: the literals of
  // the active branch rows carrying a nonzero certificate multiplier.
  // Rows active on the path but with a (near-)zero multiplier are
  // dropped — they do not participate in the proof — as are supported
  // rows that were *parked* at this node: the parked rhs is the loosest
  // any node ever holds, so every node's activation only tightens it and
  // the certificate survives (rhs monotonicity; see bnp/conflicts).
  void learn_from(
      const release::FractionalSolution& sol,
      const std::vector<std::pair<int, double>>& path,
      const std::map<int, std::pair<release::BranchPredicate, lp::Sense>>&
          rows) {
    if (!nogoods || sol.farkas_branch_rows.empty()) return;
    learn_lits.clear();
    for (const auto& [row, mult] : sol.farkas_branch_rows) {
      const auto rit = rows.find(row);
      if (rit == rows.end()) continue;  // not a row this search activates
      double rhs = 0.0;
      bool active = false;
      for (const auto& [prow, prhs] : path) {
        if (prow == row) {
          rhs = prhs;
          active = true;
          break;
        }
      }
      if (!active) continue;  // parked: universally dominated, droppable
      // A valid certificate has y <= 0 on LE rows and y >= 0 on GE rows
      // (otherwise y'(Ax) >= y'b fails for feasible x) — the property
      // the nogood's rhs-monotonicity argument rests on. A violation
      // means the certificate is unusable; learn nothing from it.
      const bool sign_ok = rit->second.second == lp::Sense::LE
                               ? mult <= tol
                               : mult >= -tol;
      if (!sign_ok) return;
      learn_lits.push_back(
          conflicts::BranchLiteral{rit->second.first, rit->second.second,
                                   rhs});
    }
    if (learn_lits.empty()) return;  // defensive: the root is feasible
    if (nogoods->learn(learn_lits)) ++result.nogoods_learned;
  }

  // The node's literal set straight from the tree's decision chain (no
  // row materialization — children consulted here may never be
  // enqueued). canonicalize collapses re-branched predicates to the
  // child-most (= tightest) rhs, matching the row activation semantics.
  void node_literals(int id, std::vector<conflicts::BranchLiteral>& out) {
    out.clear();
    for (int n = id; tree.node(n).parent >= 0; n = tree.node(n).parent) {
      const BranchDecision& d = tree.node(n).decision;
      out.push_back(conflicts::BranchLiteral{d.pred, d.sense, d.rhs});
    }
  }

  // Prune-before-enqueue: a child refuted by structural propagation or
  // by a stored nogood never enters the open set — its subtree is
  // proven empty, so skipping it preserves exactness and every bound.
  void try_child(int parent, BranchDecision d, double bound) {
    if (nogoods) {
      child_lits = parent_lits;
      child_lits.push_back(conflicts::BranchLiteral{d.pred, d.sense, d.rhs});
      conflicts::NogoodStore::canonicalize(child_lits);
      if (propagator->propagate(child_lits).infeasible) {
        ++result.propagation_prunes;
        return;
      }
      if (nogoods->matches(child_lits)) {
        ++result.nogood_prunes;
        return;
      }
    }
    tree.add_child(parent, std::move(d), bound);
  }

  // Pseudo-cost observation from a solved child LP.
  void observe_gain(int id, double objective) {
    if (!options.pseudo_cost_branching) return;
    const Node& node = tree.node(id);
    if (node.parent < 0) return;
    const BranchDecision& d = node.decision;
    const double f = d.sense == lp::Sense::LE
                         ? std::max(d.frac, 1e-6)
                         : std::max(1.0 - d.frac, 1e-6);
    const double gain = std::max(0.0, objective - d.parent_obj);
    pseudo_costs.add(pred_key(d.pred), d.sense, gain / f);
  }

  // Process one solved node: prune by (integer-rounded) bound, harvest an
  // integral solution, or branch on the selected candidate.
  void process(int id, const release::FractionalSolution& sol) {
    const double bound =
        std::ceil(sol.objective - tol * (1.0 + sol.objective));
    if (bound >= tree.incumbent() - 0.5) return;
    const std::map<PatternKey, double> totals = aggregate_patterns(sol);
    const auto branch =
        select_branch(totals, tol, pseudo_costs, pseudo_costs_active());
    if (!branch) {
      std::vector<release::Slice> slices =
          integral_slices(totals, problem.widths);
      if (tree.offer_incumbent(slices_objective(slices, phases))) {
        incumbent = std::move(slices);
        result.incumbent_node = tree.created();
      }
      return;
    }
    const double frac = branch->total - std::floor(branch->total);
    BranchDecision le{branch->pred, lp::Sense::LE,
                      std::floor(branch->total), frac, sol.objective};
    BranchDecision ge{branch->pred, lp::Sense::GE,
                      std::floor(branch->total) + 1.0, frac, sol.objective};
    if (nogoods) node_literals(id, parent_lits);
    try_child(id, std::move(le), bound);
    try_child(id, std::move(ge), bound);
  }
};

// Root strong branching: solve both children's LPs for the top-K most
// fractional pair candidates, seeding the pseudo-cost table with real
// per-unit gains before the first branching decision. Runs on the shared
// master (probe rows are parked again afterwards and the master is
// re-solved back to its root state), so it is identical across thread
// counts and batch sizes.
void strong_branch_root(Search& search,
                        const release::FractionalSolution& root) {
  const int probes = search.options.strong_branching_probes;
  if (probes <= 0 || !search.options.pseudo_cost_branching) return;
  const std::map<PatternKey, double> totals = aggregate_patterns(root);
  std::vector<BranchCandidate> candidates =
      branch_candidates(totals, search.tol);
  // Pair candidates only (patterns are the rare fallback; probing them
  // would materialize rows of marginal reuse value).
  std::erase_if(candidates, [](const BranchCandidate& c) {
    return c.pred.kind != release::BranchPredicate::Kind::PairTogether;
  });
  if (candidates.empty()) return;
  if (candidates.size() > static_cast<std::size_t>(probes)) {
    candidates.resize(static_cast<std::size_t>(probes));
  }
  const double gain_cap =
      std::max(1.0, search.tree.incumbent() - root.objective);
  bool touched = false;
  std::vector<std::pair<int, double>> probe_path;
  for (const BranchCandidate& c : candidates) {
    const double floor_total = std::floor(c.total);
    const double frac = c.total - floor_total;
    for (const lp::Sense sense : {lp::Sense::LE, lp::Sense::GE}) {
      const double rhs =
          sense == lp::Sense::LE ? floor_total : floor_total + 1.0;
      BranchDecision probe{c.pred, sense, rhs, frac, root.objective};
      const int row = search.ensure_row(probe);
      search.solver.set_branch_row_rhs(row, rhs);
      // Probes run capped too: a probe cut off by the incumbent comes
      // back certified infeasible, and its *unit* nogood prunes every
      // future child carrying this literal without an LP.
      const bool capped = search.cap_mode();
      search.solver.set_node_cutoff(
          capped ? std::numeric_limits<double>::infinity()
                 : search.cutoff());
      const release::FractionalSolution sol =
          capped ? search.solver.resolve_with_height_cap(search.cap_rhs())
                 : search.solver.resolve();
      touched = true;
      accumulate(search.result, sol);
      ++search.result.strong_branch_probes;
      search.solver.deactivate_branch_row(row);
      double objective;
      if (sol.cutoff_pruned) {
        objective = root.objective + gain_cap;
      } else if (sol.status == lp::SolveStatus::Infeasible) {
        // A probe certified empty at the root is a (unit) nogood like
        // any other — future children re-activating this literal are
        // pruned without an LP.
        probe_path.assign(1, {row, rhs});
        search.learn_from(sol, probe_path, search.pred_by_row);
        objective = root.objective + gain_cap;
      } else if (sol.feasible) {
        objective = sol.objective;
      } else {
        continue;  // iteration limit: no usable observation
      }
      const double f = sense == lp::Sense::LE ? std::max(frac, 1e-6)
                                              : std::max(1.0 - frac, 1e-6);
      const double gain = std::max(0.0, objective - root.objective);
      search.pseudo_costs.add(pred_key(c.pred), sense, gain / f);
    }
  }
  if (touched) {
    // Re-solve the all-neutral master so the retained basis (the clone
    // snapshot seed) is root-optimal again. The cap row must be parked
    // with the probe rows: a root whose LP gap to the incumbent is
    // inside the cap quantum would otherwise make this very re-solve
    // infeasible.
    search.solver.clear_height_cap();
    search.solver.set_node_cutoff(std::numeric_limits<double>::infinity());
    const release::FractionalSolution restored = search.solver.resolve();
    accumulate(search.result, restored);
  }
}

// Classic serial driver (node_batch == 1, threads == 1): every node
// re-solves the one shared master in place — each node sees all columns
// priced before it, and sibling hops reuse the previous node's basis.
void run_serial(Search& search, const Stopwatch& watch) {
  BnpResult& result = search.result;
  NodeTree& tree = search.tree;
  std::vector<std::pair<int, double>> path;
  std::vector<int> active;
  // A certified-infeasible node leaves the engine without an optimal
  // basis, so the *next* re-solve may legitimately re-enter phase 1 —
  // the one excusable departure from the dual warm path.
  bool prev_infeasible = false;
  while (!tree.done()) {
    if (result.nodes >= search.options.budget.max_nodes) {
      result.status = BnpStatus::NodeLimit;
      break;
    }
    if (search.options.budget.max_seconds > 0.0 &&
        watch.seconds() > search.options.budget.max_seconds) {
      result.status = BnpStatus::TimeLimit;
      break;
    }
    search.observe_bound();
    const std::optional<int> popped = tree.pop_best();
    if (!popped) break;
    const int id = *popped;
    if (tree.node(id).bound >= tree.incumbent() - 0.5) continue;
    ++result.nodes;

    // Activate exactly this node's path and dual re-solve warm. Only the
    // diff against the previously active node is touched, so activation
    // costs O(path log path) rather than O(all rows) per node.
    search.node_path(id, path, active);
    for (const int row : search.previously_active) {
      if (!std::binary_search(active.begin(), active.end(), row)) {
        search.solver.deactivate_branch_row(row);
      }
    }
    for (const auto& [row, rhs] : path) {
      search.solver.set_branch_row_rhs(row, rhs);
    }
    search.previously_active = std::move(active);
    active = {};
    const bool capped = search.cap_mode();
    search.solver.set_node_cutoff(
        capped ? std::numeric_limits<double>::infinity()
               : search.cutoff());
    release::FractionalSolution sol =
        capped ? search.solver.resolve_with_height_cap(search.cap_rhs())
               : search.solver.resolve();
    bool fell_back = false;
    if (capped && !sol.feasible &&
        sol.status != lp::SolveStatus::Infeasible) {
      // A cap binding right at the LP optimum can exhaust the iteration
      // budget without a verdict; re-solve this one node uncapped on the
      // classic Lagrangian path (a pure function of the node, so the
      // fallback is deterministic) instead of stalling the search.
      search.solver.clear_height_cap();
      search.solver.set_node_cutoff(search.cutoff());
      sol = search.solver.resolve();
      fell_back = true;
    }
    accumulate(result, sol);
    // Farkas-repaired re-solves (a capped master that dipped infeasible
    // before pricing restored it) legitimately pass through phase 1, as
    // does a fallback re-solve recovering from an exhausted capped one.
    STRIPACK_ASSERT(warm_path_ok(sol) || prev_infeasible ||
                        sol.farkas_rounds > 0 || fell_back,
                    "branch-and-price node re-solve left the warm path");
    prev_infeasible = sol.status == lp::SolveStatus::Infeasible;

    if (sol.cutoff_pruned) {
      ++result.cutoff_pruned_nodes;
      continue;  // certified: the subtree cannot beat the incumbent
    }
    if (sol.status == lp::SolveStatus::Infeasible) {  // certified
      search.learn_from(sol, path, search.pred_by_row);
      continue;
    }
    if (!sol.feasible) {
      // IterationLimit is "unknown", not "proven empty": stop with the
      // bracket rather than mis-prune.
      search.stalled = true;
      search.stalled_bound = tree.node(id).bound;
      break;
    }
    search.observe_gain(id, sol.objective);
    search.process(id, sol);
  }
}

// Batch-synchronous driver: pop the top-B open nodes, evaluate them
// concurrently on per-node clones of the frozen master, then merge
// children, incumbents, pseudo costs and priced columns back in node-id
// order. Deterministic for any thread count at a fixed B (see
// bnp/worker_pool); the master's own rows stay permanently neutral.
void run_batched(Search& search, const Stopwatch& watch, int batch_size) {
  BnpResult& result = search.result;
  NodeTree& tree = search.tree;
  BnpWorkerPool pool(search.options.threads);
  std::vector<int> ids;
  std::vector<NodeTask> tasks;
  std::vector<int> active_scratch;
  while (!tree.done()) {
    if (result.nodes >= search.options.budget.max_nodes) {
      result.status = BnpStatus::NodeLimit;
      break;
    }
    if (search.options.budget.max_seconds > 0.0 &&
        watch.seconds() > search.options.budget.max_seconds) {
      result.status = BnpStatus::TimeLimit;
      break;
    }
    search.observe_bound();  // once per batch round: the batch analogue
    const std::size_t allowance = std::min(
        static_cast<std::size_t>(batch_size),
        search.options.budget.max_nodes - result.nodes);
    ids.clear();
    tasks.clear();
    while (ids.size() < allowance) {
      const std::optional<int> popped = tree.pop_best();
      if (!popped) break;
      if (tree.node(*popped).bound >= tree.incumbent() - 0.5) continue;
      ids.push_back(*popped);
      tasks.emplace_back();
      search.node_path(*popped, tasks.back().path, active_scratch);
    }
    if (ids.empty()) break;

    // In cap mode the cap is frozen per round alongside the incumbent
    // (it is a function of the tree at the pop boundary), so every
    // worker sees the same rhs regardless of thread count.
    const std::optional<double> height_cap =
        search.cap_mode() ? std::optional<double>(search.cap_rhs())
                          : std::nullopt;
    const std::vector<NodeEvaluation> evals = pool.evaluate(
        search.solver, tasks, search.cutoff(), height_cap);
    ++result.batches;

    // Merge in pop order (best bound first, newest node first on ties —
    // the order the serial driver would process them in); each eval only
    // depends on its own task, so the merge is deterministic for any
    // thread count.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const int id = ids[i];
      const NodeEvaluation& eval = evals[i];
      ++result.nodes;
      accumulate(result, eval.solution);
      accumulate(result, eval.pricing);
      result.node_retries += eval.retries;
      for (const release::AdoptableColumn& col : eval.new_columns) {
        (void)search.solver.adopt_column(col.config, col.phase);
      }
      const release::FractionalSolution& sol = eval.solution;
      if (sol.cutoff_pruned) {
        ++result.cutoff_pruned_nodes;
        continue;
      }
      if (sol.status == lp::SolveStatus::Infeasible) {
        // Clones share the master's row indices, so the task's path and
        // the projection line up; learning here — inside the pop-ordered
        // merge loop — keeps the store identical across thread counts.
        search.learn_from(sol, tasks[i].path, search.pred_by_row);
        continue;
      }
      if (!sol.feasible) {
        search.stalled = true;
        // The whole remainder of the batch leaves the open set here; fold
        // every unprocessed bound into the bracket so the reported dual
        // bound never overclaims.
        for (std::size_t k = i; k < ids.size(); ++k) {
          search.stalled_bound =
              std::min(search.stalled_bound, tree.node(ids[k]).bound);
        }
        break;
      }
      // Nodes evaluated against the frozen incumbent may be prunable by a
      // sibling's incumbent found in this very batch; process() handles
      // that through its bound check (deterministically — merge order).
      search.observe_gain(id, sol.objective);
      search.process(id, sol);
    }
    if (search.stalled) break;

    // Refresh the master every batch: pick up adopted columns and
    // freshly materialized (neutral) child rows, and leave a root-optimal
    // basis as the next batch's clone snapshot.
    search.solver.set_node_cutoff(std::numeric_limits<double>::infinity());
    const release::FractionalSolution refreshed = search.solver.resolve();
    accumulate(result, refreshed);
    STRIPACK_ASSERT(warm_path_ok(refreshed),
                    "master refresh left the warm path");
  }
}

// Cold baseline driver (reuse_engine == false): a fresh master built and
// cold-solved at every node — BM_BranchAndPrice's comparison arm.
void run_cold(Search& search, const Stopwatch& watch) {
  BnpResult& result = search.result;
  NodeTree& tree = search.tree;
  while (!tree.done()) {
    if (result.nodes >= search.options.budget.max_nodes) {
      result.status = BnpStatus::NodeLimit;
      break;
    }
    if (search.options.budget.max_seconds > 0.0 &&
        watch.seconds() > search.options.budget.max_seconds) {
      result.status = BnpStatus::TimeLimit;
      break;
    }
    search.observe_bound();
    const std::optional<int> popped = tree.pop_best();
    if (!popped) break;
    const int id = *popped;
    if (tree.node(id).bound >= tree.incumbent() - 0.5) continue;
    ++result.nodes;

    release::ConfigLpSolver fresh(search.problem, search.options.lp);
    release::FractionalSolution fresh_root = fresh.solve();
    accumulate(result, fresh_root);
    if (!fresh_root.feasible) {
      search.stalled = true;
      search.stalled_bound = tree.node(id).bound;
      break;
    }
    std::set<RowKey> seen;
    // The fresh master's row indices are node-local; carry a local path
    // and row map so learning can still translate its Farkas projection.
    std::vector<std::pair<int, double>> cold_path;
    std::map<int, std::pair<release::BranchPredicate, lp::Sense>> cold_rows;
    for (int n = id; tree.node(n).parent >= 0; n = tree.node(n).parent) {
      const BranchDecision& d = tree.node(n).decision;
      if (seen.insert(row_key(d)).second) {
        const int row = fresh.add_branch_row(d.pred, d.sense, d.rhs);
        cold_path.push_back({row, d.rhs});
        cold_rows.emplace(row, std::make_pair(d.pred, d.sense));
      }
    }
    result.branch_rows = std::max(result.branch_rows, seen.size());
    const bool capped = search.cap_mode();
    if (capped) fresh.ensure_height_cap_row();
    fresh.set_node_cutoff(capped
                              ? std::numeric_limits<double>::infinity()
                              : search.cutoff());
    release::FractionalSolution sol =
        capped ? fresh.resolve_with_height_cap(search.cap_rhs())
               : fresh.resolve();
    if (capped && !sol.feasible &&
        sol.status != lp::SolveStatus::Infeasible) {
      // Same verdict-less fallback as the serial driver.
      fresh.clear_height_cap();
      fresh.set_node_cutoff(search.cutoff());
      sol = fresh.resolve();
    }
    accumulate(result, sol);
    accumulate(result, fresh.pricing_stats());

    if (sol.cutoff_pruned) {
      ++result.cutoff_pruned_nodes;
      continue;
    }
    if (sol.status == lp::SolveStatus::Infeasible) {
      search.learn_from(sol, cold_path, cold_rows);
      continue;
    }
    if (!sol.feasible) {
      search.stalled = true;
      search.stalled_bound = tree.node(id).bound;
      break;
    }
    search.observe_gain(id, sol.objective);
    search.process(id, sol);
  }
}

// Shared implementation of `solve` (master == nullptr: build and own a
// fresh master) and `solve_warm` (master points at a caller-owned
// persistent master whose column pool / branch rows / pricing cache are
// reused across requests).
BnpResult solve_impl(const Instance& instance, const BnpOptions& options,
                     release::ConfigLpSolver* master) {
  instance.check_well_formed();
  STRIPACK_EXPECTS(!instance.empty());
  STRIPACK_EXPECTS(!instance.has_precedence());
  STRIPACK_EXPECTS(options.threads >= 0);
  STRIPACK_EXPECTS(options.node_batch >= 0);
  STRIPACK_EXPECTS(master == nullptr || options.reuse_engine);
  for (const Item& it : instance.items()) {
    STRIPACK_EXPECTS(near_int(it.height(), 1e-6));
    STRIPACK_EXPECTS(near_int(it.release, 1e-6));
  }
  const Stopwatch watch;
  const release::ConfigLpProblem problem = release::make_problem(instance);
  const double rho_r = problem.releases.back();

  BnpOptions local = options;
  // The pattern cache lives inside the ConfigLpSolver (and its clones).
  local.lp.use_pricing_cache =
      options.pricing_cache && local.lp.use_column_generation;
  const int threads = local.threads == 0
                          ? static_cast<int>(std::max(
                                1u, std::thread::hardware_concurrency()))
                          : local.threads;
  int batch = local.node_batch;
  if (batch == 0) batch = threads > 1 ? 4 * threads : 1;
  const bool batch_mode =
      local.reuse_engine && (batch > 1 || threads > 1);

  // Anytime deadline: a watchdog thread trips the stop token once the
  // wall clock passes the budget (or the caller's own stop flag flips),
  // and the token is threaded into every LP (re-)solve — so the deadline
  // interrupts at *pivot boundaries* inside a node LP, not just between
  // nodes. An interrupted LP reports IterationLimit (no certificate); the
  // drivers fold the node's pre-solve tree bound into the bracket, so
  // `dual_bound` stays valid on every exit path.
  std::atomic<bool> stop_flag{false};
  struct Watchdog {
    std::atomic<bool> quit{false};
    std::thread thread;
    ~Watchdog() {
      quit.store(true, std::memory_order_relaxed);
      if (thread.joinable()) thread.join();
    }
  } watchdog;
  if (local.budget.max_seconds > 0.0) {
    const std::atomic<bool>* caller_stop = local.lp.stop;
    const double deadline = local.budget.max_seconds;
    watchdog.thread = std::thread([&watch, &watchdog, &stop_flag,
                                   caller_stop, deadline] {
      while (!watchdog.quit.load(std::memory_order_relaxed)) {
        if (watch.seconds() > deadline ||
            (caller_stop != nullptr &&
             caller_stop->load(std::memory_order_relaxed))) {
          stop_flag.store(true, std::memory_order_relaxed);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    local.lp.stop = &stop_flag;
  }

  std::optional<release::ConfigLpSolver> owned;
  if (master == nullptr) owned.emplace(problem, local.lp);
  release::ConfigLpSolver& solver = master != nullptr ? *master : *owned;
  // Warm masters outlive `stop_flag` (a stack local): whatever token this
  // call installs must be cleared before returning, on every exit path.
  struct StopGuard {
    release::ConfigLpSolver* solver = nullptr;
    ~StopGuard() {
      if (solver != nullptr) solver->set_stop(nullptr);
    }
  } stop_guard;
  release::FractionalSolution root;
  if (master != nullptr) {
    // The warm-reuse contract: the master's problem must describe this
    // very instance. The caller (the service's warm pool) re-points the
    // demand in place; widths/releases/strip width are the request-class
    // invariants that make the column pool transferable at all.
    const release::ConfigLpProblem& mp = master->problem();
    STRIPACK_EXPECTS(mp.widths == problem.widths);
    STRIPACK_EXPECTS(mp.releases == problem.releases);
    STRIPACK_EXPECTS(mp.strip_width == problem.strip_width);
    STRIPACK_EXPECTS(mp.demand == problem.demand);
    master->set_stop(local.lp.stop);
    stop_guard.solver = master;
    if (master->solved()) {
      // Demand is pure rhs in the differenced formulation: re-bind the
      // demand rows, park every left-over branch row, and dual re-solve
      // the root from the previous request's basis — no phase 1, no
      // re-enumeration, the entire column pool carried over.
      master->rebind_demand();
      root = master->resolve();
    } else {
      root = master->solve();  // first request on this master: cold
    }
  } else {
    root = solver.solve();
  }

  Search search{local, problem, solver};
  search.tol = local.tol;
  search.phases = problem.num_releases();
  if (local.use_conflicts) {
    // Per-search lifetime by design: nogoods are demand-dependent (the
    // certificate's y'b involves the demand rhs), so a warm master's
    // next request — which rebinds demand — must start a fresh store.
    search.nogoods.emplace(local.nogood_capacity);
    search.propagator.emplace(problem, local.tol);
    // Materialize the (parked) cap row before any node is evaluated:
    // activation is then a pure rhs change on the dual warm path, and
    // batch clones inherit the row at a fixed index from the snapshot.
    if (local.conflict_cutoff_cap) solver.ensure_height_cap_row();
  }
  BnpResult& result = search.result;
  accumulate(result, root);
  // The configuration LP proper is always feasible (phase R is
  // unbounded); a non-optimal root can only mean the simplex gave up
  // (iteration limit), which must surface as a Stalled bracket below,
  // not a crash — the trivial incumbent is still a valid solution.
  STRIPACK_ASSERT(root.status != lp::SolveStatus::Infeasible,
                  "the configuration LP is always feasible");

  search.tree.add_root(
      root.feasible
          ? std::ceil(root.objective - local.tol * (1.0 + root.objective))
          : 0.0);

  // Incumbent: the trivial stack, improved by the root rounding.
  search.incumbent = trivial_incumbent(problem);
  search.tree.offer_incumbent(
      slices_objective(search.incumbent, search.phases));
  if (root.feasible && local.rounding_incumbent) {
    std::vector<release::Slice> rounded =
        rounded_incumbent(problem, aggregate_patterns(root), local.tol);
    if (search.tree.offer_incumbent(
            slices_objective(rounded, search.phases))) {
      search.incumbent = std::move(rounded);
    }
  }
  result.incumbent_node = search.tree.created();  // the root alone

  result.nodes = 1;
  (void)search.tree.pop_best();  // the root: its LP is the solve above
  if (root.feasible) {
    if (local.reuse_engine) strong_branch_root(search, root);
    search.process(0, root);
  } else {
    search.stalled = true;
    search.stalled_bound = search.tree.node(0).bound;
  }

  if (!search.stalled) {
    if (!local.reuse_engine) {
      run_cold(search, watch);
    } else if (batch_mode) {
      run_batched(search, watch, batch);
    } else {
      run_serial(search, watch);
    }
  }

  result.nodes_created = search.tree.created();
  if (search.nogoods) {
    result.nogoods_subsumed = search.nogoods->rejected_subsumed() +
                              search.nogoods->erased_subsumed();
    result.nogoods_evicted = search.nogoods->evicted();
    result.nogood_store_size = search.nogoods->size();
  }
  // Warm mode materializes rows once in the shared master; cold mode
  // reports the deepest per-node row count instead.
  result.branch_rows =
      std::max(result.branch_rows, search.row_by_key.size());
  if (local.reuse_engine) {
    accumulate(result, solver.pricing_stats());
  }
  if (search.stalled) {
    // A stall caused by the deadline tripping mid-LP (the interrupted
    // solve reports no certificate, exactly like a numerical stall) is a
    // TimeLimit, not a numerical verdict; the bracket was folded into
    // `stalled_bound` either way.
    result.status = local.budget.max_seconds > 0.0 &&
                            watch.seconds() > local.budget.max_seconds
                        ? BnpStatus::TimeLimit
                        : BnpStatus::Stalled;
  }

  const double incumbent_obj = search.tree.incumbent();
  double global_bound =
      std::min(incumbent_obj, search.tree.best_open_bound());
  if (search.stalled) {
    global_bound = std::min(global_bound, search.stalled_bound);
  }
  if (result.status == BnpStatus::Optimal) global_bound = incumbent_obj;
  result.height = rho_r + incumbent_obj;
  result.dual_bound = rho_r + global_bound;
  result.slices = std::move(search.incumbent);

  release::FractionalSolution incumbent_solution;
  incumbent_solution.feasible = true;
  incumbent_solution.status = lp::SolveStatus::Optimal;
  incumbent_solution.objective = incumbent_obj;
  incumbent_solution.height = result.height;
  incumbent_solution.slices = result.slices;
  const release::IntegralizeResult realized =
      integralize(instance, problem, incumbent_solution);
  STRIPACK_ASSERT(realized.fallback_items == 0,
                  "incumbent slices must cover every rectangle");
  result.packing = Packing{instance, realized.placement};
  return result;
}

}  // namespace

BnpResult solve(const Instance& instance, const BnpOptions& options) {
  return solve_impl(instance, options, nullptr);
}

BnpResult solve_warm(const Instance& instance, const BnpOptions& options,
                     release::ConfigLpSolver& master) {
  return solve_impl(instance, options, &master);
}

BnpOptions BnpPacker::default_pack_options() {
  BnpOptions options;
  options.budget.max_nodes = 200;
  options.budget.max_seconds = 5.0;
  return options;
}

BnpPacker::BnpPacker(BnpOptions options, double height_grid)
    : options_(std::move(options)), height_grid_(height_grid) {}

PackResult BnpPacker::pack(std::span<const Rect> rects,
                           double strip_width) const {
  PackResult out;
  if (rects.empty()) return out;
  double grid = height_grid_;
  if (grid <= 0.0) {
    bool all_integer = true;
    double min_height = std::numeric_limits<double>::infinity();
    for (const Rect& r : rects) {
      all_integer = all_integer && near_int(r.height, 1e-6) && r.height > 0.5;
      min_height = std::min(min_height, r.height);
    }
    grid = all_integer ? 1.0 : min_height;
  }
  STRIPACK_EXPECTS(grid > 0.0);
  std::vector<Item> items;
  items.reserve(rects.size());
  for (const Rect& r : rects) {
    const double units = std::ceil(r.height / grid - 1e-9);
    items.push_back(Item{Rect{r.width, std::max(units, 1.0)}, 0.0});
  }
  const Instance scaled(std::move(items), strip_width);
  const BnpResult solved = solve(scaled, options_);
  out.placement.reserve(rects.size());
  double height = 0.0;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Position& p = solved.packing.placement[i];
    out.placement.push_back(Position{p.x, p.y * grid});
    height = std::max(height, p.y * grid + rects[i].height);
  }
  out.height = height;
  return out;
}

}  // namespace stripack::bnp
