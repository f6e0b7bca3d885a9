// Branch-and-price solver mechanics: certified optima on gap families,
// warm-path invariants, budgets, node tree determinism, the pricing cache
// and pseudo-cost branching, and the packer adapter. Cross-validation
// against the other exact solvers lives in bnp_exact_cross_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bnp/node_tree.hpp"
#include "bnp/pricing_cache.hpp"
#include "bnp/solver.hpp"
#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "packers/registry.hpp"
#include "release/config_lp.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace stripack::bnp {
namespace {

constexpr double kTol = 1e-6;

Instance integer_instance(
    std::initializer_list<std::tuple<double, double, double>> items) {
  std::vector<Item> out;
  for (const auto& [w, h, r] : items) out.push_back(Item{Rect{w, h}, r});
  return Instance(std::move(out));
}

// Integer-height, integer-release workloads whose widths sit in the
// two-to-three-per-column regime — persistent fractionality, so the
// searches genuinely branch (trees of a few dozen nodes each; probed).
Instance seeded_instance(std::uint64_t seed, std::size_t n, int w_lo,
                         int w_hi, int h_max, int r_max) {
  Rng rng(seed);
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(rng.uniform_int(w_lo, w_hi)) / 100.0;
    const double h = static_cast<double>(rng.uniform_int(1, h_max));
    const double r =
        r_max > 0 ? static_cast<double>(rng.uniform_int(0, r_max)) : 0.0;
    items.push_back(Item{Rect{w, h}, r});
  }
  return Instance(std::move(items), 1.0);
}

// The sweep: triple-regime and mixed-width workloads plus hard_integral
// gap families, including the release-wave variants (bursts > 1) whose
// gap survives phasing.
std::vector<Instance> sweep_instances() {
  std::vector<Instance> out;
  out.push_back(seeded_instance(3, 20, 27, 39, 1, 0));
  out.push_back(seeded_instance(7, 20, 27, 39, 1, 0));
  out.push_back(seeded_instance(11, 20, 27, 39, 2, 2));
  out.push_back(seeded_instance(23, 20, 27, 39, 2, 2));
  out.push_back(seeded_instance(23, 18, 21, 55, 1, 2));
  out.push_back(gen::hard_integral_family(2).instance);
  out.push_back(gen::hard_integral_family(2, 3, 4.0).instance);
  return out;
}

TEST(NodeTree, BestFirstWithNewestFirstTies) {
  NodeTree tree;
  tree.add_root(5.0);
  ASSERT_EQ(tree.pop_best(), 0);
  BranchDecision d;  // contents irrelevant here
  const int a = tree.add_child(0, d, 6.0);
  const int b = tree.add_child(0, d, 7.0);
  const int c = tree.add_child(0, d, 6.0);
  const int e = tree.add_child(0, d, 7.0);
  // The bound orders first: the older bound-6 node beats the newer
  // bound-7 ones, and equal bounds pop the newest node first.
  EXPECT_EQ(tree.pop_best(), c);
  const int f = tree.add_child(c, d, 6.0);
  EXPECT_DOUBLE_EQ(tree.best_open_bound(), 6.0);
  EXPECT_EQ(tree.pop_best(), f);
  EXPECT_EQ(tree.pop_best(), a);
  EXPECT_EQ(tree.pop_best(), e);
  EXPECT_EQ(tree.pop_best(), b);
  EXPECT_EQ(tree.pop_best(), std::nullopt);
}

TEST(NodeTree, ChildBoundsNeverRegressAndIncumbentGates) {
  NodeTree tree;
  tree.add_root(4.0);
  BranchDecision d;
  const int child = tree.add_child(0, d, 3.0);  // weaker than the parent
  EXPECT_DOUBLE_EQ(tree.node(child).bound, 4.0);
  EXPECT_TRUE(tree.offer_incumbent(9.0));
  EXPECT_FALSE(tree.offer_incumbent(9.0));  // ties do not "improve"
  EXPECT_TRUE(tree.offer_incumbent(5.0));
  EXPECT_DOUBLE_EQ(tree.incumbent(), 5.0);
  EXPECT_FALSE(tree.done());  // open bound 4 could still beat 5
  EXPECT_TRUE(tree.offer_incumbent(4.0));
  EXPECT_TRUE(tree.done());  // bound 4 cannot *strictly* beat 4
}

TEST(Bnp, SingleItemIsImmediatelyOptimal) {
  // Width above 1/2: no two columns fit, so the slice optimum equals the
  // packing optimum.
  const Instance ins = integer_instance({{0.6, 2.0, 0.0}});
  const BnpResult result = solve(ins);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, 2.0, kTol);
  EXPECT_NEAR(result.dual_bound, result.height, kTol);
  EXPECT_EQ(result.warm_phase1_iterations, 0);
}

TEST(Bnp, TallItemsMaySliceAcrossColumns) {
  // The configuration IP is a *relaxation* of strip packing: a 0.5-wide,
  // 2-tall item can occupy two side-by-side unit columns of one slab, so
  // the certified slice optimum is 1 while every real packing needs 2 —
  // which the Lemma 3.4 realization faithfully reports.
  const Instance ins = integer_instance({{0.5, 2.0, 0.0}});
  const BnpResult result = solve(ins);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, 1.0, kTol);
  EXPECT_NEAR(result.packing.height(), 2.0, kTol);
  EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement));
}

TEST(Bnp, OddPairsGapFamilyIsProvenOptimal) {
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto family = gen::hard_integral_family(k);
    // The generator's LP certificate is real: Lemma 3.3's bound is the
    // fractional value, strictly below the integral optimum.
    EXPECT_NEAR(release::fractional_lower_bound(family.instance),
                family.certificate.lp_height, 1e-7)
        << "k=" << k;
    for (const bool colgen : {true, false}) {
      BnpOptions options;
      options.lp.use_column_generation = colgen;
      const BnpResult result = solve(family.instance, options);
      EXPECT_EQ(result.status, BnpStatus::Optimal) << "k=" << k;
      EXPECT_NEAR(result.height, family.certificate.ip_height, kTol)
          << "k=" << k << " colgen=" << colgen;
      EXPECT_NEAR(result.dual_bound, result.height, kTol);
      EXPECT_GT(result.height,
                family.certificate.lp_height + 0.25);  // the gap is real
      EXPECT_EQ(result.warm_phase1_iterations, 0);
    }
  }
}

TEST(Bnp, ReleasedGapFamilyIsProvenOptimal) {
  const auto family = gen::hard_integral_family(2, 3, 4.0);
  EXPECT_NEAR(release::fractional_lower_bound(family.instance),
              family.certificate.lp_height, 1e-7);
  const BnpResult result = solve(family.instance);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, family.certificate.ip_height, kTol);
  EXPECT_NEAR(result.dual_bound, result.height, kTol);
  EXPECT_EQ(result.warm_phase1_iterations, 0);
  EXPECT_TRUE(
      testing::placement_valid(family.instance, result.packing.placement));
}

TEST(Bnp, BranchingIsExercisedWithoutTheRoundingIncumbent) {
  // With only the trivial stack incumbent the root bound cannot prune, so
  // proving the k+1 optimum requires real branching on the fractional
  // pair total — and every node re-solve must stay on the warm path.
  const auto family = gen::hard_integral_family(2);
  BnpOptions options;
  options.rounding_incumbent = false;
  const BnpResult result = solve(family.instance, options);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, family.certificate.ip_height, kTol);
  // The first child already proves the incumbent optimal, so its sibling
  // is cut off by bound — at least one branching row must have
  // materialized, and more than the root was processed.
  EXPECT_GT(result.nodes, 1u);
  EXPECT_GE(result.branch_rows, 1u);
  EXPECT_EQ(result.warm_phase1_iterations, 0);
}

TEST(Bnp, PseudoCostStallGateKeepsCertifiedOptima) {
  // The stall auto-gate (options.pseudo_cost_stall_gate) swaps the
  // branching *selector* mid-search when the dual bound flatlines; the
  // selector never affects soundness, so certified optima must agree
  // between a gate tight enough to trip on any multi-node search, the
  // default, and the gate disabled.
  std::vector<Instance> instances;
  instances.push_back(gen::hard_integral_family(2).instance);
  instances.push_back(gen::hard_integral_family(2, 3, 4.0).instance);
  {
    Rng rng(7);
    std::vector<Item> items;
    for (std::size_t i = 0; i < 16; ++i) {
      const double w =
          static_cast<double>(rng.uniform_int(27, 39)) / 100.0;
      items.push_back(Item{Rect{w, 1.0}, 0.0});
    }
    instances.push_back(Instance(std::move(items), 1.0));
  }
  for (const Instance& ins : instances) {
    BnpOptions reference;
    reference.rounding_incumbent = false;
    reference.pseudo_cost_stall_gate = 0;  // gate off: pseudo costs stay on
    const BnpResult base = solve(ins, reference);
    ASSERT_EQ(base.status, BnpStatus::Optimal);
    for (const int gate : {1, 32}) {
      BnpOptions gated = reference;
      gated.pseudo_cost_stall_gate = gate;
      const BnpResult result = solve(ins, gated);
      ASSERT_EQ(result.status, BnpStatus::Optimal) << "gate=" << gate;
      EXPECT_EQ(result.height, base.height) << "gate=" << gate;
      EXPECT_EQ(result.dual_bound, base.dual_bound) << "gate=" << gate;
    }
  }
}

TEST(Bnp, DenseMasterBackendProvesTheSameOptima) {
  // The master LP runs on the reference dense-tableau backend instead of
  // the eta-file engine; branch and price must reach the same certified
  // optimum with a closed gap. Keeps the backend seam honest end to end,
  // not just at the single-LP conformance level.
  for (std::size_t k = 1; k <= 3; ++k) {
    const auto family = gen::hard_integral_family(k);
    BnpOptions dense;
    dense.lp.backend = "dense";
    const BnpResult result = solve(family.instance, dense);
    EXPECT_EQ(result.status, BnpStatus::Optimal) << "k=" << k;
    EXPECT_NEAR(result.height, family.certificate.ip_height, kTol) << "k=" << k;
    EXPECT_NEAR(result.dual_bound, result.height, kTol) << "k=" << k;
  }
}

TEST(Bnp, NodeBudgetReturnsABracket) {
  const auto family = gen::hard_integral_family(3);
  BnpOptions options;
  options.rounding_incumbent = false;
  options.budget.max_nodes = 1;
  const BnpResult result = solve(family.instance, options);
  EXPECT_EQ(result.status, BnpStatus::NodeLimit);
  EXPECT_LE(result.dual_bound, result.height + kTol);
  // The incumbent is still a valid integral solution...
  EXPECT_GE(result.height, family.certificate.ip_height - kTol);
  // ...and the dual bound is still a certified lower bound.
  EXPECT_LE(result.dual_bound, family.certificate.ip_height + kTol);
  EXPECT_TRUE(
      testing::placement_valid(family.instance, result.packing.placement));
}

TEST(Bnp, BudgetedRunsKeepValidBrackets) {
  // A node budget smaller than the tree must yield NodeLimit with a
  // bracket that still sandwiches the true optimum, with the search
  // stopped partway through the tree (budget 6 of 10 nodes).
  const Instance ins = seeded_instance(3, 20, 27, 39, 1, 0);
  BnpOptions exact;
  exact.rounding_incumbent = false;
  const BnpResult truth = solve(ins, exact);
  ASSERT_EQ(truth.status, BnpStatus::Optimal);
  ASSERT_GT(truth.nodes, 8u);  // the budget below must genuinely bite
  BnpOptions options = exact;
  options.budget.max_nodes = 6;
  const BnpResult result = solve(ins, options);
  EXPECT_EQ(result.status, BnpStatus::NodeLimit);
  EXPECT_LE(result.dual_bound, result.height + kTol);
  EXPECT_GE(result.height, truth.height - kTol);
  EXPECT_LE(result.dual_bound, truth.height + kTol);
  EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement));
}

TEST(Bnp, PricingCacheKeepsCertifiedQuantities) {
  // Memoized pricing only seeds the exact DFS; status, height and dual
  // bound must match the uncached run on the whole sweep, while the DFS
  // expansion count drops.
  std::int64_t cached_expansions = 0;
  std::int64_t uncached_expansions = 0;
  for (const Instance& ins : sweep_instances()) {
    BnpOptions with_cache;
    with_cache.rounding_incumbent = false;
    BnpOptions without_cache = with_cache;
    without_cache.pricing_cache = false;
    const BnpResult a = solve(ins, with_cache);
    const BnpResult b = solve(ins, without_cache);
    EXPECT_EQ(a.status, b.status);
    EXPECT_NEAR(a.height, b.height, kTol);
    EXPECT_NEAR(a.dual_bound, b.dual_bound, kTol);
    cached_expansions += a.pricing_dfs_expansions;
    uncached_expansions += b.pricing_dfs_expansions;
    EXPECT_GT(a.pricing_cache_probes, 0) << "cache never probed";
  }
  EXPECT_GT(uncached_expansions, 0);
  // The committed target: >= 30% fewer DFS expansions with memoized
  // pricing on (the bench records the exact ratio per size).
  EXPECT_LT(static_cast<double>(cached_expansions),
            0.7 * static_cast<double>(uncached_expansions));
}

TEST(Bnp, PricingCacheMemoIgnoresParkedRows) {
  // A zero multiplier (either sign) changes no configuration's value, so
  // inputs that differ only in parked rows must share one memo entry.
  PricingCache cache;
  release::BranchPredicate pair;
  pair.kind = release::BranchPredicate::Kind::PairTogether;
  pair.width_a = 0;
  pair.width_b = 2;
  cache.register_row(5, pair);
  cache.register_row(7, pair);
  const std::vector<double> value{0.4, 0.3, 0.2};
  const int id = cache.insert(std::vector<int>{1, 0, 1}, 0.9);
  using Rows = std::vector<std::pair<int, double>>;
  // The probe sums only the pattern's nonzero counts, in index order.
  const PricingCache::Seed seed = cache.probe(value, Rows{{7, 0.25}});
  EXPECT_EQ(seed.pattern, id);
  EXPECT_EQ(seed.value, 0.0 + 1 * 0.4 + 1 * 0.2 + 0.25);
  cache.memoize(value, Rows{{5, 0.0}, {7, 0.25}}, seed);
  for (const Rows& rows : {Rows{{7, 0.25}}, Rows{{5, -0.0}, {7, 0.25}},
                           Rows{{5, 0.0}, {7, 0.25}}}) {
    const auto hit = cache.lookup(value, rows);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pattern, id);
    EXPECT_EQ(hit->value, seed.value);
  }
  EXPECT_EQ(cache.memo_hits(), 3);
  // A live row is part of the input.
  EXPECT_FALSE(cache.lookup(value, Rows{{5, 0.1}, {7, 0.25}}).has_value());
  EXPECT_FALSE(cache.lookup(value, Rows{}).has_value());
}

TEST(Bnp, PseudoCostBranchingStaysExactOnGapFamilies) {
  // The gap families need genuine branching to close their LP/IP gap; the
  // pseudo-cost selector (strong-branching seeded) must still certify.
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto family = gen::hard_integral_family(k);
    for (const bool pseudo : {true, false}) {
      BnpOptions options;
      options.rounding_incumbent = false;
      options.pseudo_cost_branching = pseudo;
      const BnpResult result = solve(family.instance, options);
      EXPECT_EQ(result.status, BnpStatus::Optimal) << "k=" << k;
      EXPECT_NEAR(result.height, family.certificate.ip_height, kTol)
          << "k=" << k << " pseudo=" << pseudo;
      EXPECT_NEAR(result.dual_bound, result.height, kTol);
    }
  }
}

TEST(Bnp, SeededReleaseWorkloadsAreCertifiedAndRealized) {
  // Integer-height, integer-release workloads: the certified optimum must
  // sandwich between the fractional bound and the realized packing.
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    Rng rng(seed);
    std::vector<Item> items;
    const std::size_t n = 8 + seed % 5;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = static_cast<double>(rng.uniform_int(1, 4)) / 4.0;
      const double h = static_cast<double>(rng.uniform_int(1, 3));
      const double r = static_cast<double>(rng.uniform_int(0, 3));
      items.push_back(Item{Rect{w, h}, r});
    }
    const Instance ins(std::move(items), 1.0);
    const BnpResult result = solve(ins);
    ASSERT_EQ(result.status, BnpStatus::Optimal) << "seed=" << seed;
    EXPECT_NEAR(result.dual_bound, result.height, kTol);
    EXPECT_GE(result.height,
              release::fractional_lower_bound(ins) - 1e-7);
    EXPECT_EQ(result.warm_phase1_iterations, 0);
    EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement))
        << "seed=" << seed;
    EXPECT_GE(result.packing.height(), result.height - kTol);
  }
}

// Node ceilings on the deep-search families. The root LP bound of a
// jittered gap instance already equals the optimum, so the search is a
// hunt for one integral node, and newest-first ties dive for it (at most
// 53 nodes on these shapes). A breadth-first sweep of each bound level
// needs thousands of nodes per instance and fails the ceiling.
TEST(Bnp, JitteredGapFamiliesCertifyWithinANodeCeiling) {
  struct Shape {
    std::size_t k;
    double spacing;
    std::uint64_t seeds;
  };
  for (const Shape shape : {Shape{3, 5.0, 8}, Shape{4, 5.0, 8},
                            Shape{5, 6.0, 4}}) {
    for (std::uint64_t seed = 1; seed <= shape.seeds; ++seed) {
      const auto family =
          gen::hard_integral_jittered(shape.k, 2, shape.spacing, seed);
      BnpOptions options;
      options.budget.max_nodes = 500;
      const BnpResult result = solve(family.instance, options);
      const std::string label =
          "k=" + std::to_string(shape.k) + " seed=" + std::to_string(seed);
      EXPECT_EQ(result.status, BnpStatus::Optimal) << label;
      EXPECT_NEAR(result.height, family.certificate.ip_height, kTol) << label;
      EXPECT_NEAR(result.dual_bound, result.height, kTol) << label;
      EXPECT_LE(result.incumbent_node, result.nodes_created) << label;
    }
  }
}

// The wide jittered family (50 items in 25 width classes per wave) is
// priced far more often than it branches. Once a phase configuration
// holds two items no class fits the rest of the strip, and the pricing
// DFS jumps over such levels instead of walking them, so each solve
// stays far below the 12.9M expansions the level-by-level walk took.
TEST(Bnp, WideJitteredFamilyCertifiesWithinAnExpansionCeiling) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto family = gen::hard_integral_jittered(12, 2, 14.0, seed);
    const BnpResult result = solve(family.instance);
    const std::string label = "seed=" + std::to_string(seed);
    EXPECT_EQ(result.status, BnpStatus::Optimal) << label;
    EXPECT_NEAR(result.height, 27.0, kTol) << label;
    EXPECT_NEAR(family.certificate.ip_height, 27.0, kTol) << label;
    EXPECT_NEAR(result.dual_bound, result.height, kTol) << label;
    EXPECT_EQ(result.nodes, 117u) << label;
    EXPECT_LE(result.pricing_dfs_expansions, 2'000'000) << label;
    ::testing::Test::RecordProperty(
        "expansions_seed" + std::to_string(seed),
        std::to_string(result.pricing_dfs_expansions));
  }
}

TEST(Bnp, ScaleInstanceClosesWithinItsBudget) {
  // bench_scaling's BnpScale n = 120 workload (seed 49, widths
  // 0.27-0.45, heights 1-2, releases 0-4) under its 150-node budget and
  // without the rounding incumbent: the search must prove the optimum
  // rather than stop at NodeLimit with a bracket.
  Rng rng(49);
  std::vector<Item> items;
  for (int i = 0; i < 120; ++i) {
    const double w = static_cast<double>(rng.uniform_int(27, 45)) / 100.0;
    const double h = static_cast<double>(rng.uniform_int(1, 2));
    const double r = static_cast<double>(rng.uniform_int(0, 4));
    items.push_back(Item{Rect{w, h}, r});
  }
  const Instance ins(std::move(items), 1.0);
  BnpOptions options;
  options.rounding_incumbent = false;
  options.budget.max_nodes = 150;
  const BnpResult result = solve(ins, options);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, 66.0, kTol);
  EXPECT_NEAR(result.dual_bound, 66.0, kTol);
  EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement));
}

TEST(Bnp, RejectsNonIntegerAndPrecedenceInstances) {
  EXPECT_THROW((void)solve(integer_instance({{0.5, 1.5, 0.0}})),
               ContractViolation);
  EXPECT_THROW((void)solve(integer_instance({{0.5, 1.0, 0.5}})),
               ContractViolation);
  Instance dag = integer_instance({{0.5, 1.0, 0.0}, {0.5, 1.0, 0.0}});
  dag.add_precedence(0, 1);
  EXPECT_THROW((void)solve(dag), ContractViolation);
}

TEST(BnpPacker, QuantizesArbitraryHeightsIntoAValidPacking) {
  Rng rng(11);
  gen::RectParams params;
  params.min_width = 0.2;
  params.max_width = 0.9;
  const auto rects = gen::random_rects(12, params, rng);
  const BnpPacker packer;
  const PackResult result = packer.pack(rects, 1.0);
  std::vector<Item> items;
  for (const Rect& r : rects) items.push_back(Item{r, 0.0});
  const Instance ins(std::move(items), 1.0);
  EXPECT_TRUE(testing::placement_valid(ins, result.placement));
  EXPECT_EQ(packer.name(), "BnP");
}

TEST(BnpPacker, RegisteredByNameButNotInTheHeuristicGallery) {
  const auto packer = make_packer("BnP");
  ASSERT_NE(packer, nullptr);
  EXPECT_EQ(packer->name(), "BnP");
  const std::vector<Rect> rects{{0.6, 1.0}, {0.6, 1.0}, {0.6, 1.0}};
  EXPECT_NEAR(packer->pack(rects, 1.0).height, 3.0, kTol);
  for (const auto& heuristic : all_packers()) {
    EXPECT_NE(heuristic->name(), "BnP");
  }
}

}  // namespace
}  // namespace stripack::bnp
