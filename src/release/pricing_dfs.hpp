// The exact pricing search of the configuration LP (release/config_lp):
// a branch-and-bound DFS over the width classes that maximizes, for one
// phase,
//
//   sum_i counts[i] * value[i] + sum_r mult_r * [pred_r matches counts]
//
// over every nonempty configuration, where the second sum runs over the
// branch rows (bnp/solver's branching constraints) that apply to the
// phase. `KnapsackOracle` in config_lp.cpp calls it once per phase and
// pricing round; this header exists so the search can be tested on its
// own (tests/pricing_dfs_test.cpp).
//
// Branch-row bonuses are incremental. Rows whose multiplier is exactly
// zero are dropped once per call (adding ±0.0 never changes a sum that
// starts at +0.0 and so is never -0.0). Without Pattern rows and with at
// most 64 live rows, each DFS level carries a bitmask of the live rows
// that match the counts assigned so far: a PairTogether row is decided
// once, when the DFS assigns the larger of its two widths, and a
// PhaseTotal row always matches. The bonus is the sum of the set bits'
// multipliers in ascending bit (= row) order, the same additions in the
// same order as testing every row at every node, so the result is
// bitwise identical. Pattern rows and wider row sets fall back to that
// per-node test over the live rows.
//
// The DFS never walks a level that can only assign zero copies. Widths
// are distinct and descending, so once the remaining capacity cannot
// hold one copy of a width it cannot hold any later one either; and a
// width of non-positive value that no positive bonus needs is never
// taken. Each node jumps straight to the next level that can take an
// item (a binary search for the first width that fits, then a per-call
// table of the next width worth taking) and returns when none is left.
// The skipped nodes would only have repeated their parent's state,
// incumbent test and (no tighter) bounds, so the search visits the same
// configurations in the same order with far fewer expansions.
#pragma once

#include <span>
#include <vector>

#include "release/config_lp.hpp"
#include "release/configurations.hpp"

namespace stripack::release {

/// One branching row applying to the phase being priced, with the value a
/// matching configuration collects from it (and its model row index, the
/// pattern cache's key for memoized match bits).
struct AppliedBranchRow {
  const BranchPredicate* pred = nullptr;
  double mult = 0.0;
  int row = 0;
};

/// Width-indexed DP bound for the pricing DFS (memoized-pricing mode).
/// When every width and the strip width sit on a common rational grid
/// (units of 1/denom), `suffix[i][c]` is the *exact* maximum raw value of
/// any configuration drawn from width classes i.. within c capacity units
/// — an unbounded-knapsack DP, O(W * cap_units) to fill. The DFS bounds a
/// subtree by current + suffix[index][units_left] + bonus_cap, which is
/// admissible (raw max dominates any achievable raw value; positive
/// branch-row bonuses top out at bonus_cap), and far tighter than the
/// fractional suffix-density bound — with a warm seed for the incumbent it
/// collapses the search to roughly the argmax path.
struct DpBound {
  int cap_units = 0;
  std::vector<int> width_units;             // one per width class
  std::vector<std::vector<double>> suffix;  // [W+1][cap_units+1]
};

/// Smallest denominator <= 4096 putting all widths and the strip width on
/// one integer grid (0 when none). Unit-capacity feasibility then agrees
/// with the DFS's epsilon-relaxed double checks: a config the DFS deems
/// feasible has total units <= cap_units * (1 + 1e-9), and integer totals
/// below cap_units + 1 are <= cap_units.
[[nodiscard]] int detect_width_grid(const ConfigLpProblem& problem);

/// Fills `dp` for the given per-class values (reusing its storage).
void fill_dp_bound(const ConfigLpProblem& problem, int denom,
                   const std::vector<double>& value, DpBound& dp);

/// Buffers `best_config_for_phase` reuses across calls, so a search does
/// no heap allocation once they have grown to the width table's size.
struct PricingDfsScratch {
  std::vector<double> suffix_density;
  std::vector<char> keep;
  /// next_useful[i]: first level >= i that may take an item (W: none).
  std::vector<std::size_t> next_useful;
  std::vector<int> counts;
  /// Rows with a nonzero multiplier; live[k] is bit k of the row mask.
  std::vector<AppliedBranchRow> live;
  /// A PairTogether row, decided when the DFS assigns `width` (the larger
  /// of its two widths); those of width i are
  /// decide[decide_begin[i] .. decide_begin[i + 1]).
  struct Decision {
    std::size_t width = 0;
    std::size_t other = 0;  // the smaller width (== width for a == b)
    int bit = 0;
  };
  std::vector<Decision> decide;
  std::vector<std::size_t> decide_begin;
};

/// Branch-and-bound maximization over nonempty configurations of one
/// phase (see the file comment). The DFS bound adds every positive
/// multiplier to the classic suffix density bound (admissible: a
/// configuration collects at most that), and widths a positive-multiplier
/// predicate needs are exempt from the "skip non-positive values" pruning
/// so pair/pattern bonuses stay reachable. Returns the best configuration
/// (empty when nothing beats zero) and its adjusted value through
/// `best_value_out`. `rows` must already be filtered to `phase`, and
/// `problem.widths` must be descending (as `make_problem` builds them).
///
/// Levels that can only take zero copies are skipped: those where no
/// copy fits (`floor(cap_left / w + 1e-9) < 1`) and those of non-positive
/// value outside the kept widths. The skip is exact. Such a level keeps
/// the counts and the row mask of its parent, so its incumbent test
/// repeats one that already ran and cannot strictly improve. Its entry
/// and `c = 0` bounds are at least the next taken level's, because
/// `suffix_density` and `DpBound::suffix` do not increase with the index,
/// so anything they prune that level prunes on entry. The value, the
/// maximizer and the order of incumbent updates are those of the
/// level-by-level walk; only `dfs_expansions` (and, under the per-node
/// row test, `row_tests`) fall.
///
/// A PhaseTotal row exempts no width from that pruning, so the search is
/// exact only while PhaseTotal multipliers are non-positive: a positive
/// one could lift a configuration of non-positive-value widths above
/// zero unseen. Up to the LP tolerance the master gives them no other
/// sign: in column-generation mode they are LE rows of a minimization
/// (see `ConfigLpSolver::add_branch_row`).
///
/// `seed` (with its exact adjusted value `seed_value` > 0) warm-starts the
/// incumbent at seed_value - 2e-12: every subtree that cannot strictly
/// beat a known-achievable value is pruned immediately, while any pattern
/// of equal or better value still qualifies (the epsilon sits below the
/// 1e-12 improvement threshold), so the returned maximizer matches the
/// unseeded DFS's choice. If nothing improves on the seed, the exact seed
/// value is restored on output.
///
/// With `dp` (a filled DpBound for `value`) the subtree bound is the
/// exact raw suffix optimum at the remaining unit capacity; otherwise the
/// fractional suffix-density bound. Both only ever skip subtrees that
/// cannot *strictly* improve, so the returned maximizer is identical
/// either way. `stats`, when given, accumulates the search's work
/// counters (`dfs_expansions` and `row_tests`; the cache fields are the
/// caller's).
[[nodiscard]] Configuration best_config_for_phase(
    const ConfigLpProblem& problem, const std::vector<double>& value,
    std::span<const AppliedBranchRow> rows, std::size_t phase,
    double* best_value_out, PricingDfsScratch& scratch,
    const Configuration* seed = nullptr, double seed_value = 0.0,
    const DpBound* dp = nullptr, PricingStats* stats = nullptr);

}  // namespace stripack::release
