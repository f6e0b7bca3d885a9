#include "release/pricing_dfs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace stripack::release {

int detect_width_grid(const ConfigLpProblem& problem) {
  const auto on_grid = [](double v, int d) {
    const double scaled = v * d;
    return std::fabs(scaled - std::round(scaled)) <= 1e-7 &&
           std::round(scaled) >= 0.0;
  };
  const auto& widths = problem.widths;
  for (int d = 1; d <= 4096; ++d) {
    if (!on_grid(problem.strip_width, d)) continue;
    // all_of stops at the first off-grid width, so a table on no grid
    // (jittered widths) costs about one test per denominator.
    if (!std::all_of(widths.begin(), widths.end(),
                     [&](double w) { return on_grid(w, d); })) {
      continue;
    }
    // Degenerate grids (a zero-unit width) would break the DP.
    if (std::all_of(widths.begin(), widths.end(),
                    [d](double w) { return std::round(w * d) >= 1.0; })) {
      return d;
    }
  }
  return 0;
}

void fill_dp_bound(const ConfigLpProblem& problem, int denom,
                   const std::vector<double>& value, DpBound& dp) {
  const std::size_t W = problem.widths.size();
  dp.cap_units =
      static_cast<int>(std::round(problem.strip_width * denom));
  if (dp.width_units.size() != W) {
    dp.width_units.resize(W);
    for (std::size_t i = 0; i < W; ++i) {
      dp.width_units[i] =
          static_cast<int>(std::round(problem.widths[i] * denom));
    }
  }
  const std::size_t cols = static_cast<std::size_t>(dp.cap_units) + 1;
  dp.suffix.resize(W + 1);
  for (auto& row : dp.suffix) row.assign(cols, 0.0);
  for (std::size_t i = W; i-- > 0;) {
    const std::vector<double>& below = dp.suffix[i + 1];
    std::vector<double>& here = dp.suffix[i];
    const int u = dp.width_units[i];
    const double v = value[i];
    for (std::size_t c = 0; c < cols; ++c) {
      double best = below[c];
      if (v > 0.0 && static_cast<int>(c) >= u) {
        best = std::max(best, here[c - static_cast<std::size_t>(u)] + v);
      }
      here[c] = best;
    }
  }
}

namespace {

// Live rows the bitmask can carry: one bit each.
constexpr std::size_t kMaxMaskRows = 64;

// Builds the per-width decide lists and returns the mask of rows that
// match every nonempty configuration (PhaseTotal); false when a live row
// needs the per-node test (Pattern) or the rows outnumber the mask bits.
bool build_decisions(std::size_t num_widths, PricingDfsScratch& s,
                     std::uint64_t* always) {
  if (s.live.size() > kMaxMaskRows) return false;
  for (const AppliedBranchRow& r : s.live) {
    if (r.pred->kind == BranchPredicate::Kind::Pattern) return false;
  }
  *always = 0;
  s.decide.clear();
  for (std::size_t k = 0; k < s.live.size(); ++k) {
    const BranchPredicate& p = *s.live[k].pred;
    if (p.kind == BranchPredicate::Kind::PhaseTotal) {
      *always |= std::uint64_t{1} << k;
    } else {
      s.decide.push_back({std::max(p.width_a, p.width_b),
                          std::min(p.width_a, p.width_b),
                          static_cast<int>(k)});
    }
  }
  std::sort(s.decide.begin(), s.decide.end(),
            [](const PricingDfsScratch::Decision& x,
               const PricingDfsScratch::Decision& y) {
              return x.width < y.width;
            });
  s.decide_begin.assign(num_widths + 1, 0);
  for (const PricingDfsScratch::Decision& d : s.decide) {
    ++s.decide_begin[d.width + 1];
  }
  for (std::size_t i = 0; i < num_widths; ++i) {
    s.decide_begin[i + 1] += s.decide_begin[i];
  }
  return true;
}

}  // namespace

Configuration best_config_for_phase(const ConfigLpProblem& problem,
                                    const std::vector<double>& value,
                                    std::span<const AppliedBranchRow> rows,
                                    std::size_t phase,
                                    double* best_value_out,
                                    PricingDfsScratch& scratch,
                                    const Configuration* seed,
                                    double seed_value, const DpBound* dp,
                                    PricingStats* stats) {
  const auto& widths = problem.widths;
  const std::size_t W = widths.size();
  // Suffix best density for the fractional bound.
  std::vector<double>& suffix_density = scratch.suffix_density;
  suffix_density.assign(W + 1, 0.0);
  for (std::size_t i = W; i-- > 0;) {
    suffix_density[i] =
        std::max(suffix_density[i + 1], std::max(value[i], 0.0) / widths[i]);
  }
  // A zero multiplier adds nothing to any value, bound or keep decision.
  std::vector<AppliedBranchRow>& live = scratch.live;
  live.clear();
  for (const AppliedBranchRow& r : rows) {
    if (r.mult != 0.0) live.push_back(r);
  }
  double bonus_cap = 0.0;
  std::vector<char>& keep = scratch.keep;
  keep.assign(W, 0);
  // Pattern matching is *non-monotone*: a penalized (negative-multiplier)
  // pattern can be escaped by ADDING an item, even one of non-positive
  // value — so while such a row applies, the skip-non-positive pruning
  // below must be disabled wholesale. Pair/total predicates are monotone
  // in the counts, so dropping a non-positive-value item never hurts
  // them; only widths a positive pair/pattern bonus needs are exempted.
  bool penalized_pattern = false;
  for (const AppliedBranchRow& r : live) {
    if (r.mult <= 0.0) {
      if (r.mult < 0.0 &&
          r.pred->kind == BranchPredicate::Kind::Pattern) {
        penalized_pattern = true;
      }
      continue;
    }
    bonus_cap += r.mult;
    switch (r.pred->kind) {
      case BranchPredicate::Kind::PhaseTotal:
        break;
      case BranchPredicate::Kind::PairTogether:
        keep[r.pred->width_a] = 1;
        keep[r.pred->width_b] = 1;
        break;
      case BranchPredicate::Kind::Pattern:
        for (std::size_t i = 0; i < W; ++i) {
          if (r.pred->counts[i] > 0) keep[i] = 1;
        }
        break;
    }
  }
  if (penalized_pattern) keep.assign(W, 1);
  // next_useful[i]: the first level j >= i where a nonzero count is worth
  // trying (W when none); the levels in between only ever take c = 0.
  std::vector<std::size_t>& next_useful = scratch.next_useful;
  next_useful.resize(W + 1);
  next_useful[W] = W;
  for (std::size_t i = W; i-- > 0;) {
    next_useful[i] =
        value[i] <= 0.0 && keep[i] == 0 ? next_useful[i + 1] : i;
  }

  std::uint64_t always = 0;
  const bool incremental = build_decisions(W, scratch, &always);
  std::vector<int>& counts = scratch.counts;
  counts.assign(W, 0);
  std::int64_t expansions = 0;
  std::int64_t row_tests = 0;
  // Raw value plus the bonus of every matching live row, added in row
  // order either way.
  const auto adjusted = [&](double raw, std::uint64_t mask) {
    double v = raw;
    if (incremental) {
      for (; mask != 0; mask &= mask - 1) {
        v += live[static_cast<std::size_t>(std::countr_zero(mask))].mult;
      }
      return v;
    }
    row_tests += static_cast<std::int64_t>(live.size());
    for (const AppliedBranchRow& r : live) {
      if (r.pred->matches(counts, phase)) v += r.mult;
    }
    return v;
  };
  // PairTogether rows decided by assigning `c` copies of width `index`.
  const auto decided = [&](std::size_t index, int c) {
    std::uint64_t bits = 0;
    if (!incremental || c == 0) return bits;  // c == 0 matches no pair
    const std::size_t end = scratch.decide_begin[index + 1];
    for (std::size_t d = scratch.decide_begin[index]; d < end; ++d) {
      const PricingDfsScratch::Decision& dec = scratch.decide[d];
      ++row_tests;
      if (dec.other == index ? c >= 2 : counts[dec.other] >= 1) {
        bits |= std::uint64_t{1} << dec.bit;
      }
    }
    return bits;
  };

  Configuration best;
  best.counts.assign(W, 0);
  double best_value = 0.0;
  bool improved_on_seed = false;
  if (seed != nullptr && seed_value > 0.0) {
    best = *seed;
    best_value = seed_value - 2e-12;
  }
  int total_items = 0;

  auto dfs = [&](auto&& self, std::size_t index, double used,
                 int units_left, double current, std::uint64_t mask) -> void {
    ++expansions;
    if (total_items > 0) {
      const double adj = adjusted(current, mask);
      if (adj > best_value + 1e-12) {
        best_value = adj;
        best.counts = counts;
        best.total_width = used;
        best.total_items = total_items;
        improved_on_seed = true;
      }
    }
    // Jump to the next level that can take an item. A level that cannot
    // (no copy fits, or a non-positive value nothing keeps) only assigns
    // c = 0, so its node repeats this node's state and incumbent test,
    // and its bounds are no tighter than the target level's: skipping it
    // prunes exactly what it would.
    const double cap_left = problem.strip_width - used;
    const auto copies = [&](std::size_t i) {
      return static_cast<int>(std::floor(cap_left / widths[i] + 1e-9));
    };
    index = next_useful[index];
    if (index == W) return;
    int max_here = copies(index);
    if (max_here < 1) {
      // Widths descend, so the fit test is monotone in the index: the
      // first level after `index` that fits is a binary search away.
      std::size_t lo = index + 1;
      std::size_t hi = W;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (copies(mid) >= 1) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      index = next_useful[lo];
      if (index == W) return;
      max_here = copies(index);
    }
    const double entry_bound =
        dp != nullptr
            ? dp->suffix[index][static_cast<std::size_t>(units_left)]
            : cap_left * suffix_density[index];
    if (current + entry_bound + bonus_cap <= best_value + 1e-12) {
      return;  // bound: cannot beat the incumbent
    }
    for (int c = max_here; c >= 0; --c) {
      // Per-count bound: updates need a strict 1e-12 improvement, so
      // skipping subtrees bounded by best_value + 1e-12 cannot change
      // the returned maximizer — and with a warm cache seed for
      // best_value this skips most of the tree before ever recursing.
      const double c_value = current + c * value[index];
      int rem_units = units_left;
      double c_bound;
      if (dp != nullptr) {
        rem_units = units_left - c * dp->width_units[index];
        if (rem_units < 0) continue;  // defensive: double/unit edge
        c_bound = dp->suffix[index + 1][static_cast<std::size_t>(rem_units)];
      } else {
        c_bound = (cap_left - c * widths[index]) * suffix_density[index + 1];
      }
      if (c_value + c_bound + bonus_cap <= best_value + 1e-12) continue;
      counts[index] = c;
      total_items += c;
      self(self, index + 1, used + c * widths[index], rem_units, c_value,
           mask | decided(index, c));
      total_items -= c;
    }
    counts[index] = 0;
  };
  dfs(dfs, 0, 0.0, dp != nullptr ? dp->cap_units : 0, 0.0, always);
  if (seed != nullptr && seed_value > 0.0 && !improved_on_seed) {
    best_value = seed_value;  // the -2e-12 was only a pruning device
  }
  if (stats != nullptr) {
    stats->dfs_expansions += expansions;
    stats->row_tests += row_tests;
  }
  *best_value_out = best_value;
  return best;
}

}  // namespace stripack::release
