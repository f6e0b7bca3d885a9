// Differential test of the exact pricing DFS (release/pricing_dfs).
//
// `reference_best_config` below is the search as it was before branch-row
// bonuses became incremental and before the search jumped over levels
// that cannot take an item: it tests every applied row at every DFS node
// and descends through every width class. The library version must
// return the bitwise-identical value and the same maximizer on every
// input, in no more expansions, while testing far fewer predicates and
// expanding far fewer nodes on inputs shaped like deep branch-and-price
// searches (many parked rows with zero multipliers). A brute-force
// enumeration checks the maximum itself on small width tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "gen/hard_integral.hpp"
#include "release/config_lp.hpp"
#include "release/pricing_dfs.hpp"
#include "util/rng.hpp"

namespace stripack::release {
namespace {

// The pre-incremental search, kept as the oracle. `row_tests` counts its
// predicate tests: every applied row at every evaluated node.
Configuration reference_best_config(const ConfigLpProblem& problem,
                                    const std::vector<double>& value,
                                    std::span<const AppliedBranchRow> rows,
                                    std::size_t phase,
                                    double* best_value_out,
                                    const Configuration* seed,
                                    double seed_value,
                                    std::int64_t* expansions,
                                    const DpBound* dp,
                                    std::int64_t* row_tests) {
  const auto& widths = problem.widths;
  std::vector<double> suffix_density(widths.size() + 1, 0.0);
  for (std::size_t i = widths.size(); i-- > 0;) {
    suffix_density[i] =
        std::max(suffix_density[i + 1], std::max(value[i], 0.0) / widths[i]);
  }
  double bonus_cap = 0.0;
  std::vector<char> keep(widths.size(), 0);
  bool penalized_pattern = false;
  for (const AppliedBranchRow& r : rows) {
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
        for (std::size_t i = 0; i < widths.size(); ++i) {
          if (r.pred->counts[i] > 0) keep[i] = 1;
        }
        break;
    }
  }
  if (penalized_pattern) keep.assign(widths.size(), 1);
  const auto adjusted = [&](const std::vector<int>& counts, double raw) {
    double v = raw;
    *row_tests += static_cast<std::int64_t>(rows.size());
    for (const AppliedBranchRow& r : rows) {
      if (r.pred->matches(counts, phase)) v += r.mult;
    }
    return v;
  };

  Configuration best;
  best.counts.assign(widths.size(), 0);
  double best_value = 0.0;
  bool improved_on_seed = false;
  if (seed != nullptr && seed_value > 0.0) {
    best = *seed;
    best_value = seed_value - 2e-12;
  }
  std::vector<int> counts(widths.size(), 0);
  int total_items = 0;

  auto dfs = [&](auto&& self, std::size_t index, double used,
                 int units_left, double current) -> void {
    if (expansions != nullptr) ++*expansions;
    if (total_items > 0) {
      const double adj = adjusted(counts, current);
      if (adj > best_value + 1e-12) {
        best_value = adj;
        best.counts = counts;
        best.total_width = used;
        best.total_items = total_items;
        improved_on_seed = true;
      }
    }
    if (index == widths.size()) return;
    const double cap_left = problem.strip_width - used;
    const double entry_bound =
        dp != nullptr
            ? dp->suffix[index][static_cast<std::size_t>(units_left)]
            : cap_left * suffix_density[index];
    if (current + entry_bound + bonus_cap <= best_value + 1e-12) {
      return;
    }
    const int max_here =
        static_cast<int>(std::floor(cap_left / widths[index] + 1e-9));
    for (int c = max_here; c >= 0; --c) {
      if (c > 0 && value[index] <= 0.0 && keep[index] == 0) continue;
      const double c_value = current + c * value[index];
      int rem_units = units_left;
      double c_bound;
      if (dp != nullptr) {
        rem_units = units_left - c * dp->width_units[index];
        if (rem_units < 0) continue;
        c_bound = dp->suffix[index + 1][static_cast<std::size_t>(rem_units)];
      } else {
        c_bound = (cap_left - c * widths[index]) * suffix_density[index + 1];
      }
      if (c_value + c_bound + bonus_cap <= best_value + 1e-12) continue;
      counts[index] = c;
      total_items += c;
      self(self, index + 1, used + c * widths[index], rem_units, c_value);
      total_items -= c;
    }
    counts[index] = 0;
  };
  dfs(dfs, 0, 0.0, dp != nullptr ? dp->cap_units : 0, 0.0);
  if (seed != nullptr && seed_value > 0.0 && !improved_on_seed) {
    best_value = seed_value;
  }
  *best_value_out = best_value;
  return best;
}

// One pricing input: the problem (only widths and strip width matter),
// per-width values, applied rows (predicates owned here) and an optional
// seed incumbent.
struct Case {
  ConfigLpProblem problem;
  std::vector<double> value;
  std::deque<BranchPredicate> preds;  // stable addresses for `rows`
  std::vector<AppliedBranchRow> rows;
  std::size_t phase = 0;
  bool use_dp = false;
  bool has_seed = false;
  Configuration seed;
  double seed_value = 0.0;
};

// The DFS's raw value of `counts` (same additions in the same order) plus
// every matching row's multiplier in row order.
double adjusted_value(const Case& c, const std::vector<int>& counts) {
  double v = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    v = v + counts[i] * c.value[i];
  }
  for (const AppliedBranchRow& r : c.rows) {
    if (r.pred->matches(counts, c.phase)) v += r.mult;
  }
  return v;
}

// Every nonempty configuration under the DFS's capacity rule.
void enumerate(const ConfigLpProblem& p, std::size_t index, double used,
               std::vector<int>& counts,
               const std::function<void(const std::vector<int>&)>& f) {
  if (index == p.widths.size()) {
    if (std::any_of(counts.begin(), counts.end(),
                    [](int n) { return n > 0; })) {
      f(counts);
    }
    return;
  }
  const int max_here = static_cast<int>(
      std::floor((p.strip_width - used) / p.widths[index] + 1e-9));
  for (int c = 0; c <= max_here; ++c) {
    counts[index] = c;
    enumerate(p, index + 1, used + c * p.widths[index], counts, f);
  }
  counts[index] = 0;
}

// A random configuration that fits (possibly empty).
std::vector<int> random_config(const ConfigLpProblem& p, Rng& rng) {
  std::vector<int> counts(p.widths.size(), 0);
  double used = 0.0;
  for (int tries = 0; tries < 4; ++tries) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p.widths.size()) - 1));
    if (used + p.widths[i] <= p.strip_width) {
      ++counts[i];
      used += p.widths[i];
    }
  }
  return counts;
}

double random_mult(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return -rng.uniform(0.0, 0.6);
    default:
      return rng.uniform(0.0, 0.6);
  }
}

void add_row(Case& c, BranchPredicate pred, double mult) {
  c.preds.push_back(std::move(pred));
  c.rows.push_back(
      {&c.preds.back(), mult, static_cast<int>(c.rows.size()) + 100});
}

BranchPredicate pair_row(std::size_t a, std::size_t b, int phase) {
  BranchPredicate pred;
  pred.kind = BranchPredicate::Kind::PairTogether;
  pred.phase = phase;
  pred.width_a = a;
  pred.width_b = b;
  return pred;
}

// Widths on a 1/denom grid of a unit strip (DP bound available) or
// off any grid, `w` of them, distinct and descending.
std::vector<double> random_widths(Rng& rng, std::size_t w, bool on_grid,
                                  double min_width) {
  std::vector<double> widths;
  while (widths.size() < w) {
    double x;
    if (on_grid) {
      const int denom = 20;
      x = static_cast<double>(rng.uniform_int(
              static_cast<std::int64_t>(std::ceil(min_width * denom)),
              denom)) /
          denom;
    } else {
      x = rng.uniform(min_width, 1.0);
    }
    if (std::none_of(widths.begin(), widths.end(),
                     [x](double y) { return std::fabs(x - y) < 1e-6; })) {
      widths.push_back(x);
    }
  }
  std::sort(widths.rbegin(), widths.rend());
  return widths;
}

// A mixed input: every row kind, every multiplier sign, optional seed.
// With `lp_signs`, PhaseTotal rows get the non-positive multipliers their
// LE sense gives them in the LP (see `best_config_for_phase`).
Case random_case(std::uint64_t seed, std::size_t max_widths,
                 double min_width, bool lp_signs) {
  Rng rng(seed);
  Case c;
  const auto w = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(max_widths)));
  const bool on_grid = rng.bernoulli(0.5);
  c.problem.strip_width = 1.0;
  c.problem.widths = random_widths(rng, w, on_grid, min_width);
  c.use_dp = on_grid && rng.bernoulli(0.8);
  c.phase = static_cast<std::size_t>(rng.uniform_int(0, 2));
  c.value.resize(w);
  for (double& v : c.value) {
    const auto roll = rng.uniform_int(0, 9);
    v = roll == 0 ? 0.0 : roll == 1 ? -0.0 : rng.uniform(-0.3, 0.8);
  }
  // Wide cases carry more live rows than the bitmask holds.
  const bool wide = rng.bernoulli(0.15);
  const auto num_rows =
      wide ? rng.uniform_int(65, 90) : rng.uniform_int(0, 40);
  const bool patterns = rng.bernoulli(0.3);
  const auto wmax = static_cast<std::int64_t>(w) - 1;
  for (std::int64_t k = 0; k < num_rows; ++k) {
    const int phase = rng.bernoulli(0.5) ? -1 : static_cast<int>(c.phase);
    const auto kind = rng.uniform_int(0, 9);
    BranchPredicate pred;
    if (kind == 0) {
      pred.kind = BranchPredicate::Kind::PhaseTotal;
      pred.phase = phase;
    } else if (kind == 1 && patterns) {
      pred.kind = BranchPredicate::Kind::Pattern;
      pred.phase = phase;
      pred.counts = random_config(c.problem, rng);
    } else {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, wmax));
      const auto b = rng.bernoulli(0.2)
                         ? a
                         : static_cast<std::size_t>(rng.uniform_int(0, wmax));
      pred = pair_row(a, b, phase);
    }
    double mult = wide ? rng.uniform(-0.6, 0.6) : random_mult(rng);
    if (lp_signs && pred.kind == BranchPredicate::Kind::PhaseTotal) {
      mult = -std::fabs(mult);
    }
    add_row(c, std::move(pred), mult);
  }
  if (rng.bernoulli(0.4)) {
    const std::vector<int> counts = random_config(c.problem, rng);
    const double v = adjusted_value(c, counts);
    if (v > 0.0) {
      c.has_seed = true;
      c.seed.counts = counts;
      for (std::size_t i = 0; i < w; ++i) {
        c.seed.total_width += counts[i] * c.problem.widths[i];
        c.seed.total_items += counts[i];
      }
      c.seed_value = v;
    }
  }
  return c;
}

// deep_proof's width tables (18 jittered classes in (1/3, 1/2]) with its
// branch-row shape: dozens of applied pair rows, most parked at a zero
// multiplier.
Case deep_proof_case(std::uint64_t seed, std::size_t num_rows,
                     std::size_t nonzero) {
  Rng rng(seed);
  Case c;
  c.problem = make_problem(
      gen::hard_integral_jittered(4, 2, 5.0, seed).instance);
  const auto w = c.problem.widths.size();
  c.value.resize(w);
  for (double& v : c.value) v = rng.uniform(-0.2, 0.7);
  std::vector<char> live(num_rows, 0);
  std::fill(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(nonzero),
            1);
  rng.shuffle(live);
  const auto wmax = static_cast<std::int64_t>(w) - 1;
  for (std::size_t k = 0; k < num_rows; ++k) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, wmax));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, wmax));
    add_row(c, pair_row(a, b, -1),
            live[k] != 0 ? rng.uniform(-0.5, 0.5) : 0.0);
  }
  return c;
}

struct Outcome {
  Configuration best;
  double value = 0.0;
  PricingStats stats;
};

Outcome run_reference(const Case& c) {
  DpBound dp;
  if (c.use_dp) {
    fill_dp_bound(c.problem, detect_width_grid(c.problem), c.value, dp);
  }
  Outcome o;
  o.best = reference_best_config(
      c.problem, c.value, c.rows, c.phase, &o.value,
      c.has_seed ? &c.seed : nullptr, c.seed_value, &o.stats.dfs_expansions,
      c.use_dp ? &dp : nullptr, &o.stats.row_tests);
  return o;
}

Outcome run_library(const Case& c, PricingDfsScratch& scratch) {
  DpBound dp;
  if (c.use_dp) {
    fill_dp_bound(c.problem, detect_width_grid(c.problem), c.value, dp);
  }
  Outcome o;
  o.best = best_config_for_phase(c.problem, c.value, c.rows, c.phase,
                                 &o.value, scratch,
                                 c.has_seed ? &c.seed : nullptr, c.seed_value,
                                 c.use_dp ? &dp : nullptr, &o.stats);
  return o;
}

void expect_same(const Outcome& ref, const Outcome& got, std::uint64_t seed) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.value),
            std::bit_cast<std::uint64_t>(got.value))
      << "seed " << seed << ": " << ref.value << " vs " << got.value;
  EXPECT_EQ(ref.best.counts, got.best.counts) << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.best.total_width),
            std::bit_cast<std::uint64_t>(got.best.total_width))
      << "seed " << seed;
  EXPECT_EQ(ref.best.total_items, got.best.total_items) << "seed " << seed;
  // The library jumps over levels that can only assign zero copies, each
  // an expansion of the reference's.
  EXPECT_LE(got.stats.dfs_expansions, ref.stats.dfs_expansions)
      << "seed " << seed;
}

TEST(PricingDfs, MatchesReferenceBitwiseOnMixedInputs) {
  PricingDfsScratch scratch;  // reused across calls, as the oracle does
  int with_dp = 0;
  int seeded = 0;
  int wide = 0;
  int with_pattern = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const Case c = random_case(seed, 9, 0.07, false);
    with_dp += c.use_dp ? 1 : 0;
    seeded += c.has_seed ? 1 : 0;
    wide += std::count_if(c.rows.begin(), c.rows.end(),
                          [](const AppliedBranchRow& r) {
                            return r.mult != 0.0;
                          }) > 64
                ? 1
                : 0;
    with_pattern += std::any_of(c.rows.begin(), c.rows.end(),
                                [](const AppliedBranchRow& r) {
                                  return r.pred->kind ==
                                         BranchPredicate::Kind::Pattern;
                                })
                        ? 1
                        : 0;
    expect_same(run_reference(c), run_library(c, scratch), seed);
    if (::testing::Test::HasFailure()) return;
  }
  // The generator really covers every path.
  EXPECT_GT(with_dp, 500);
  EXPECT_GT(seeded, 300);
  EXPECT_GT(wide, 50);
  EXPECT_GT(with_pattern, 300);
}

TEST(PricingDfs, FindsTheBruteForceMaximumOnSmallTables) {
  PricingDfsScratch scratch;
  for (std::uint64_t seed = 10'001; seed <= 11'500; ++seed) {
    const Case c = random_case(seed, 5, 0.15, true);
    double brute = 0.0;  // the DFS reports 0 when nothing beats zero
    std::vector<int> counts(c.problem.widths.size(), 0);
    enumerate(c.problem, 0, 0.0, counts,
              [&](const std::vector<int>& config) {
                brute = std::max(brute, adjusted_value(c, config));
              });
    const Outcome got = run_library(c, scratch);
    // Improvements must beat the incumbent by 1e-12, so the DFS may stop
    // that close below the maximum.
    EXPECT_NEAR(got.value, brute, 1e-11) << "seed " << seed;
    EXPECT_LE(got.value, brute + 1e-11) << "seed " << seed;
    if (got.best.total_items > 0) {
      EXPECT_NEAR(adjusted_value(c, got.best.counts), got.value, 1e-11)
          << "seed " << seed;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PricingDfs, DeepProofShapedRowsTestATenthOfTheReference) {
  // 56 applied rows, 11 of them nonzero: the traced deep_proof mean.
  PricingDfsScratch scratch;
  std::int64_t ref_tests = 0;
  std::int64_t new_tests = 0;
  std::int64_t ref_expansions = 0;
  std::int64_t new_expansions = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Case c = deep_proof_case(seed, 56, 11);
    const Outcome ref = run_reference(c);
    const Outcome got = run_library(c, scratch);
    expect_same(ref, got, seed);
    EXPECT_LE(got.stats.row_tests * 10, ref.stats.row_tests)
        << "seed " << seed;
    ref_tests += ref.stats.row_tests;
    new_tests += got.stats.row_tests;
    ref_expansions += ref.stats.dfs_expansions;
    new_expansions += got.stats.dfs_expansions;
  }
  EXPECT_GT(new_tests, 0);
  EXPECT_LE(new_tests * 10, ref_tests);
  // Every class lies in (1/3, 1/2], so once two items are placed no class
  // fits, and negative-value classes take nothing either: the reference
  // walks those levels one by one, the library jumps over them.
  EXPECT_LE(new_expansions * 3, ref_expansions);
  ::testing::Test::RecordProperty("reference_row_tests",
                                  std::to_string(ref_tests));
  ::testing::Test::RecordProperty("row_tests", std::to_string(new_tests));
  ::testing::Test::RecordProperty("reference_expansions",
                                  std::to_string(ref_expansions));
  ::testing::Test::RecordProperty("expansions",
                                  std::to_string(new_expansions));
}

TEST(PricingDfs, ZeroMultiplierRowsAreNeverTested) {
  Case c = deep_proof_case(7, 48, 0);
  PricingDfsScratch scratch;
  const Outcome ref = run_reference(c);
  const Outcome got = run_library(c, scratch);
  expect_same(ref, got, 7);
  EXPECT_GT(ref.stats.row_tests, 0);
  EXPECT_EQ(got.stats.row_tests, 0);
}

}  // namespace
}  // namespace stripack::release
